// Command slider-worker serves Slider map tasks over TCP for the
// built-in demo jobs, so multiple processes (or machines) can share one
// sliding-window computation's map phase.
//
// Usage:
//
//	slider-worker -addr 127.0.0.1:7070 &
//	slider-worker -addr 127.0.0.1:7071 &
//	slider-demo -workers 127.0.0.1:7070,127.0.0.1:7071
//
// Jobs are identified by name; this binary registers "wordcount" (the
// job slider-demo runs) and "stream-wordcount" (the normalized variant
// slider-stream runs, so a stream driver with -workers can farm its map
// phase out to these processes). Embedders register their own jobs with
// slider.RegisterJob in their own worker binaries.
//
// With -obs-addr set the worker also serves its own observability
// endpoints: /metrics (self stats: tasks served, per-phase latency
// histograms, fault counters) and /debug/trace (recent batch traces as
// Chrome trace JSON). The same instrumentation makes the worker answer
// the pool's stats calls, feeding cluster-level federation on the
// driver's /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"slider"
	"slider/internal/apps"
)

// The jobs this binary serves, with the partition count the drivers that
// name them use.
func wordCount() *slider.Job       { return apps.WordCount(4) }
func streamWordCount() *slider.Job { return apps.StreamWordCount(4) }

// newRegistry registers every job this worker binary serves.
func newRegistry() (*slider.JobRegistry, error) {
	registry := &slider.JobRegistry{}
	if err := registry.Register("wordcount", wordCount); err != nil {
		return nil, err
	}
	if err := registry.Register("stream-wordcount", streamWordCount); err != nil {
		return nil, err
	}
	return registry, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slider-worker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slider-worker", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	name := fs.String("name", "", "worker name (default: the listen address)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics and /debug/pprof on this address (empty = no server)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	registry, err := newRegistry()
	if err != nil {
		return err
	}

	label := *name
	if label == "" {
		label = *addr
	}
	worker, err := slider.NewWorker(label, *addr, registry)
	if err != nil {
		return err
	}
	fmt.Printf("slider-worker %q serving %v on %s\n", label, registry.Names(), worker.Addr())
	if *obsAddr != "" {
		// Instrumentation rides the obs flag: without it the batch
		// handler stays a zero-allocation no-op; with it the worker
		// records batch span trees, answers the pool's stats calls, and
		// stitches its spans into the driver's slide traces.
		obs := slider.NewWorkerObs()
		worker.SetObs(obs)
		srv, err := slider.StartObsServer(*obsAddr, slider.ObsConfig{
			Node:   worker.StatsSnapshot,
			Tracer: obs.Tracer,
			Fault:  obs.Faults,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("slider-worker %q: obs endpoints on http://%s/\n", label, srv.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Printf("slider-worker %q: served %d map task(s), shutting down\n", label, worker.Served())
	return worker.Close()
}
