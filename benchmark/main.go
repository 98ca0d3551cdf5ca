// Command benchmark is the repository's end-to-end benchmark: it pushes
// generated records through stream.Push, one caller waiting for each Push
// to return, and reports how long a record takes to reach the sink and
// what a slide costs; a separate traced run times calls into each layer's
// public functions. See README.md in this directory.
//
//	go run ./benchmark                          all workloads, both runs, one JSON document
//	go run ./benchmark -workload wc-wide-local -trace 0 -seed 7 -seconds 10
//	go run ./benchmark -compare 'a/*.json' 'b/*.json'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// outDir, under the module root, receives everything a run leaves behind:
// the worker binary, the trace files and the result document.
const outDir = ".bench_build"

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:])
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 2
	}
	os.Exit(code)
}

// run returns exit code 1 when a run completed but an operation failed or
// a comparison went beyond a bound; an error means no result was printed.
func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and end standard output with the contract's result line (default: all)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "length of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 = measured run, end-to-end metrics; 1 = traced run, per-layer metrics")
	outPath := fs.String("o", "", "also write the JSON document to this file")
	doCompare := fs.Bool("compare", false, "compare the end-to-end metrics of two sets of documents: -compare 'a/*.json' 'b/*.json'")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *trace != 0 && *trace != 1 {
		return 0, errors.New("-trace takes 0 or 1")
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return 0, errors.New("-compare takes two file patterns")
		}
		beyond, err := compare(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil || !beyond {
			return 0, err
		}
		return 1, nil
	}

	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	man, err := loadManifest(root)
	if err != nil {
		return 0, err
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	out := filepath.Join(root, outDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}

	b := &bench{man: man, seed: *seed, sc: fullScale, traceDir: out, ref: newReference(),
		lim: limits{seconds: *seconds, warmup: 32, setups: 9}}
	b.buildWorker = func() (string, error) { return buildWorker(ctx, root, out) }

	doc := &document{Env: environment{
		Commit: commit(root), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
	}}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	for _, name := range names {
		s, err := findSpec(name)
		if err != nil {
			return 0, err
		}
		rep, err := b.runWorkload(ctx, s, *workload == "" || *trace == 0, *workload == "" || *trace == 1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		doc.Workloads = append(doc.Workloads, rep)
	}

	writeTable(os.Stderr, doc)
	data, err := encodeDocument(doc)
	if err != nil {
		return 0, err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return 0, err
		}
	}
	code := 0
	for _, w := range doc.Workloads {
		if !w.Correct {
			code = 1
		}
	}
	if *workload != "" {
		fmt.Println(contractLine(doc.Workloads[0]))
		return code, nil
	}
	_, err = os.Stdout.Write(data)
	return code, err
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./benchmark` starts at the root, `go test` in benchmark/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// bench holds what every workload of an invocation shares.
type bench struct {
	man      *manifest
	seed     int64
	sc       scale
	lim      limits
	traceDir string
	ref      *reference // built once, before any timer starts
	// buildWorker compiles the worker binary; nil in the tier-1 test,
	// whose workers run in-process (spawn is then set directly).
	buildWorker func() (string, error)
	spawn       spawnFunc
}

// runWorkload generates the workload's input and makes the measured run,
// the traced run, or both.
func (b *bench) runWorkload(ctx context.Context, s spec, measured, traced bool) (workloadReport, error) {
	rep := workloadReport{Name: s.name, Why: b.man.why(s.name)}
	w := s.build(b.seed, b.sc)
	var spawn spawnFunc
	if s.dist {
		if b.spawn == nil {
			// Compiled here, before any timer of the run has started.
			bin, err := b.buildWorker()
			if err != nil {
				return rep, err
			}
			b.spawn = spawnChildren(bin)
		}
		spawn = b.spawn
	}
	merge := func(o *outcome) {
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		rep.Errors = append(rep.Errors, o.errs...)
		rep.Host = o.host
	}
	if measured {
		got, o, err := runEndToEnd(ctx, w, spawn, b.lim, b.ref)
		if err != nil {
			return rep, err
		}
		merge(o)
		ms, err := report(b.man.EndToEnd, got)
		if err != nil {
			return rep, err
		}
		rep.Metrics = append(rep.Metrics, ms...)
	}
	if traced {
		rec := newRecorder()
		got, o, err := runTraced(ctx, w, spawn, b.lim, b.sc, rec, b.ref)
		if err != nil {
			return rep, err
		}
		merge(o)
		ms, err := report(b.man.PerLayer, got)
		if err != nil {
			return rep, err
		}
		rep.Metrics = append(rep.Metrics, ms...)
		if err := rec.write(filepath.Join(b.traceDir, "trace-"+s.name+".json"), s.name, b.seed); err != nil {
			return rep, err
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// commit names the checked-out commit, or "unknown" outside a git
// repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
