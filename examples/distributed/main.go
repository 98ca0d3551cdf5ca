// Distributed map execution with task-level fault tolerance.
//
// Three workers (in-process here; normally separate slider-worker
// processes or machines) serve the map phase of a sliding word count
// over TCP. Mid-stream one worker dies; the pool re-executes its tasks
// on the survivors and the window's results are unaffected — MapReduce's
// fault model, inherited by Slider.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"strings"

	"slider"
	"slider/internal/workload"
)

func wordCount() *slider.Job {
	sum := func(_ string, values []slider.Value) slider.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &slider.Job{
		Name:       "wordcount",
		Partitions: 4,
		Map: func(rec slider.Record, emit slider.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Commutative: true,
	}
}

func main() {
	// A shared registry: in production each slider-worker binary
	// registers the same jobs by name.
	registry := &slider.JobRegistry{}
	if err := registry.Register("wordcount", wordCount); err != nil {
		log.Fatal(err)
	}
	var workers []*slider.Worker
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := slider.NewWorker(fmt.Sprintf("worker-%d", i), "127.0.0.1:0", registry)
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
		fmt.Printf("started %s on %s\n", fmt.Sprintf("worker-%d", i), w.Addr())
	}

	pool, err := slider.NewWorkerPool("wordcount", addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	rt, err := slider.New(wordCount(), slider.Config{
		Mode: slider.Fixed, BucketSplits: 2, WindowBuckets: 8,
		MapRunner: pool, // ← map tasks now run on the workers
	})
	if err != nil {
		log.Fatal(err)
	}

	gen := workload.NewText(workload.TextConfig{
		Seed: 12, LinesPerSplit: 100, WordsPerLine: 10, Vocabulary: 2000, ZipfS: 1.2,
	})
	res, err := rt.Initial(gen.Range(0, 16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninitial window mapped remotely: %d distinct words\n", len(res.Output))
	for i, w := range workers {
		fmt.Printf("  worker-%d executed %d map task(s)\n", i, w.Served())
	}

	next := 16
	for slide := 1; slide <= 4; slide++ {
		if slide == 2 {
			fmt.Println("\n-- killing worker-0 mid-stream --")
			workers[0].Close()
		}
		res, err = rt.Advance(2, gen.Range(next, next+2))
		if err != nil {
			log.Fatal(err)
		}
		next += 2
		fmt.Printf("slide %d: %d distinct words, %d live worker(s), %d retried task(s) so far\n",
			slide, len(res.Output), pool.LiveWorkers(), pool.Retries())
	}

	// Correctness despite the failure: compare with a local scratch run.
	window := gen.Range(next-16, next)
	want, err := slider.RunScratch(wordCount(), window, 0, slider.NewRecorder())
	if err != nil {
		log.Fatal(err)
	}
	for k, v := range want {
		if res.Output[k].(int64) != v.(int64) {
			log.Fatalf("MISMATCH for %q", k)
		}
	}
	fmt.Println("\nfinal window agrees with local recomputation — failure was invisible")
}
