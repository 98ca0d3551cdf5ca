// Command slider-stream runs an incremental sliding word count over
// lines read from stdin: a live demonstration of the record-oriented
// streaming driver on arbitrary input.
//
// Usage:
//
//	tail -f app.log | slider-stream -split 100 -window 20 -slide 5 -top 10
//
// Every slide prints the window's top words and the update's cost. With
// -slide 0 the window is append-only.
//
// With -workers the map phase runs remotely on slider-worker processes
// (which register the same "stream-wordcount" job), the periodic stats
// line grows a cluster section federated from the workers' stats calls,
// and the obs server's /metrics exposes per-worker and cluster-level
// series next to the driver's own.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"slider"
	"slider/internal/apps"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slider-stream:", err)
		os.Exit(1)
	}
}

// run streams the lines of in through the window and prints to out.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("slider-stream", flag.ContinueOnError)
	split := fs.Int("split", 100, "lines per split")
	window := fs.Int("window", 20, "window length in splits")
	slide := fs.Int("slide", 5, "slide width in splits (0 = append-only)")
	top := fs.Int("top", 10, "words to print per window")
	backendName := fs.String("backend", slider.BackendAuto.String(), fmt.Sprintf("aggregation backend: %v, or one of %v", slider.BackendAuto, slider.Kinds()))
	lateness := fs.Int("lateness", 0, "accepted bucket lateness for out-of-order arrivals (>0 selects the fingertree backend)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/pprof, /debug/slides, /debug/tree and /debug/trace on this address (empty = no server)")
	statsEvery := fs.Int("stats", 10, "print a runtime stats line every N windows (0 = never)")
	workerAddrs := fs.String("workers", "", "comma-separated slider-worker addresses to run the map phase on (empty = in-process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := slider.ParseKind(*backendName)
	if err != nil {
		return err
	}

	// Instrument every slide so the stats line (and the obs server, when
	// enabled) has latency and memo data. Span tracing stays off unless
	// someone can actually look at the traces.
	so := slider.NewSlideObs()
	if *obsAddr == "" {
		so.Tracer.SetMode(slider.TraceOff, 0)
	}

	// With -workers the map phase runs on remote slider-worker processes.
	// The pool shares the runtime's tracer so the workers' own span trees
	// land in the slide's trace, the runtime records its degradation events
	// into the pool's fault recorder, and the pool polls every worker's
	// stats to keep a federated cluster view.
	var pool *slider.WorkerPool
	if *workerAddrs != "" {
		pool, err = slider.NewWorkerPoolConfig("stream-wordcount",
			strings.Split(*workerAddrs, ","), slider.WorkerPoolConfig{
				Hedge:         true,
				StatsInterval: time.Second,
				Tracer:        so.Tracer,
			})
		if err != nil {
			return err
		}
		defer pool.Close()
	}

	var cw *slider.CountWindow
	runNo := 0
	sink := func(o slider.WindowOutput) error {
		runNo++
		type wc struct {
			word  string
			count int64
		}
		words := make([]wc, 0, len(o.Result.Output))
		for w, v := range o.Result.Output {
			words = append(words, wc{w, v.(int64)})
		}
		sort.Slice(words, func(i, j int) bool {
			if words[i].count != words[j].count {
				return words[i].count > words[j].count
			}
			return words[i].word < words[j].word
		})
		fmt.Fprintf(out, "window #%d [splits %d..%d): %d distinct words, update work %v\n",
			runNo, o.WindowStart, o.WindowEnd, len(words), o.Result.Report.Work.Round(1000))
		for i, w := range words {
			if i == *top {
				break
			}
			fmt.Fprintf(out, "  %6d  %s\n", w.count, w.word)
		}
		if *statsEvery > 0 && runNo%*statsEvery == 0 {
			ms := cw.Runtime().Store().Stats()
			hitRatio := 0.0
			if ms.Hits+ms.Misses > 0 {
				hitRatio = float64(ms.Hits) / float64(ms.Hits+ms.Misses)
			}
			faultLine := "none"
			if fsnap := cw.Runtime().FaultRecorder().Snapshot(); fsnap != (slider.FaultStats{}) {
				faultLine = fsnap.String()
			}
			fmt.Fprintf(out, "stats: slides=%d backend=%v memo-hit=%.1f%% slide-p95=%v faults: %s\n",
				runNo, cw.Runtime().Backend(), 100*hitRatio, so.Slide.Quantile(0.95), faultLine)
			if pool != nil {
				fmt.Fprintf(out, "stats: %s\n", pool.ClusterStats())
			}
		}
		return nil
	}

	rtCfg := slider.Config{Obs: so, Backend: backend, AllowedLateness: *lateness}
	if pool != nil {
		rtCfg.MapRunner = pool
	}
	cw, err = slider.NewCountWindow(slider.CountWindowConfig{
		Job:             apps.StreamWordCount(4),
		RecordsPerSplit: *split,
		WindowSplits:    *window,
		SlideSplits:     *slide,
		Config:          rtCfg,
	}, sink)
	if err != nil {
		return err
	}
	if *obsAddr != "" {
		srv, err := slider.StartObsServerForRuntime(*obsAddr, cw.Runtime())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "obs: serving introspection endpoints on http://%s/\n", srv.Addr())
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		if err := cw.Push(scanner.Text()); err != nil {
			return err
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if runNo == 0 {
		fmt.Fprintf(out, "stream ended before the first window filled (%d splits needed)\n", *window)
	}
	return nil
}
