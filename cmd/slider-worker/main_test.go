package main

import (
	"errors"
	"strings"
	"testing"

	"slider"
	"slider/internal/dist"
)

// TestRegisteredJobContracts holds every job the worker serves to the
// combiner and reducer contract the runtime relies on.
func TestRegisteredJobContracts(t *testing.T) {
	registry, err := newRegistry()
	if err != nil {
		t.Fatal(err)
	}
	samples := []slider.Split{{
		ID:      "s0",
		Records: []slider.Record{"a a b", "a b c c"},
	}}
	for _, name := range registry.Names() {
		job, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := slider.CheckJob(job, samples); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestWorkerServesAndShutsDown(t *testing.T) {
	registry := &slider.JobRegistry{}
	if err := registry.Register("wordcount", wordCount); err != nil {
		t.Fatal(err)
	}
	worker, err := slider.NewWorker("t", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := slider.NewWorkerPool("wordcount", []string{worker.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	results, err := pool.RunMap(wordCount(), []slider.Split{
		{ID: "s0", Records: []slider.Record{"x y x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Records != 1 {
		t.Fatalf("results = %+v", results)
	}
	if worker.Served() != 1 {
		t.Fatalf("served = %d", worker.Served())
	}
	if err := worker.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRefusesForeignRecord: a split holding a record that is not a
// string fails its batch with the job's error, and the same worker answers
// the next Ping and serves the next batch.
func TestWorkerRefusesForeignRecord(t *testing.T) {
	registry, err := newRegistry()
	if err != nil {
		t.Fatal(err)
	}
	worker, err := slider.NewWorker("t", "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	for _, job := range []*slider.Job{wordCount(), streamWordCount()} {
		pool, err := slider.NewWorkerPool(job.Name, []string{worker.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		_, err = pool.RunMap(job, []slider.Split{{ID: "s0", Records: []slider.Record{"x y", 7}}})
		var served *dist.RemoteError
		if !errors.As(err, &served) || !strings.Contains(err.Error(), "record int is not a string") {
			t.Fatalf("%s: err = %v, want the worker's RemoteError naming the record", job.Name, err)
		}
		if _, err := dist.Ping(worker.Addr()); err != nil {
			t.Fatalf("%s: ping after the foreign record: %v", job.Name, err)
		}
		results, err := pool.RunMap(job, []slider.Split{{ID: "s1", Records: []slider.Record{"x y x"}}})
		if err != nil || len(results) != 1 {
			t.Fatalf("%s: batch after the foreign record: %d results, err %v", job.Name, len(results), err)
		}
	}
}

func TestWorkerMapOutput(t *testing.T) {
	job := wordCount()
	var total int64
	out, err := slider.RunScratch(job, []slider.Split{
		{ID: "s0", Records: []slider.Record{"go go gopher"}},
	}, 0, slider.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		total += v.(int64)
	}
	if total != 3 || out["go"].(int64) != 2 {
		t.Fatalf("out = %v", out)
	}
}
