package sliderrt

import (
	"fmt"
	"testing"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// parallelCases enumerates every legal (mode, backend) of the resolution
// matrix (TestBackendMatrix), the rotating tree with and without split
// processing.
func parallelCases() map[string]Config {
	fixed := func(backend Backend, split bool) Config {
		return Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 8, Backend: backend, SplitProcessing: split}
	}
	return map[string]Config{
		"append":           {Mode: Append},
		"append-strawman":  {Mode: Append, Backend: BackendStrawman},
		"fixed":            fixed(BackendDaba, false),
		"fixed-rotating":   fixed(BackendRotating, false),
		"fixed-split":      fixed(BackendAuto, true),
		"fixed-strawman":   fixed(BackendStrawman, false),
		"fixed-fingertree": fixed(BackendFingerTree, false),
		"variable":         {Mode: Variable},
		"randomized":       {Mode: Variable, Backend: BackendRandomizedFolding, Seed: 7},
		"strawman":         {Mode: Variable, Backend: BackendStrawman},
	}
}

// runDigest is what a run leaves that must not depend on Config.Parallelism.
type runDigest struct {
	output, state   uint64
	space           int64
	tree, treeBg    core.Stats
	counters, bgCtr metrics.Counters
}

// runWorkload drives one Initial plus several Advances over the given
// number of partitions at the given parallelism and digests every run.
func runWorkload(t *testing.T, cfg Config, parts, par int) []runDigest {
	t.Helper()
	cfg.Parallelism = par
	job := wordCountJob()
	job.Partitions = parts
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(res *RunResult) runDigest {
		return runDigest{
			output:   mapreduce.FingerprintPayload(mapreduce.FromMap(res.Output)),
			state:    rt.StateFingerprint(),
			space:    res.SpaceBytes,
			tree:     res.TreeStats,
			treeBg:   res.TreeStatsBackground,
			counters: res.Report.Counters,
			bgCtr:    res.Background.Counters,
		}
	}
	window := 16
	res, err := rt.Initial(genSplits(0, window, 4, 99))
	if err != nil {
		t.Fatal(err)
	}
	runs := []runDigest{digest(res)}
	next := window
	for step := 0; step < 4; step++ {
		drop, add := 2, 2
		if cfg.Mode == Append {
			drop = 0
		}
		res, err := rt.Advance(drop, genSplits(next, add, 4, 99))
		if err != nil {
			t.Fatal(err)
		}
		next += add
		runs = append(runs, digest(res))
	}
	return runs
}

// acrossParallelism runs check(seq, par, what) for every case, over one
// partition and over four, with par the digests at Parallelism 2 and 8 and
// seq those at 1. One partition is the case where map tasks are the only
// thing a budget above 1 runs concurrently; with four, partition updates
// are too.
func acrossParallelism(t *testing.T, check func(t *testing.T, seq, par runDigest, what string)) {
	for name, cfg := range parallelCases() {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 4} {
				seq := runWorkload(t, cfg, parts, 1)
				for _, p := range []int{2, 8} {
					par := runWorkload(t, cfg, parts, p)
					for i := range seq {
						check(t, seq[i], par[i], fmt.Sprintf("%d partitions, run %d, Parallelism %d", parts, i, p))
					}
				}
			}
		})
	}
}

// TestRuntimeParallelismEquivalence checks the user-visible contract of
// Config.Parallelism: it changes how many map tasks and partition updates
// are in flight, and nothing a run produces — the output, the accounted
// space and the window state are identical on every run. With
// `go test -race` this also drives the concurrent partition updates, each
// with its own free list and combine counter, under the detector.
func TestRuntimeParallelismEquivalence(t *testing.T) {
	acrossParallelism(t, func(t *testing.T, seq, par runDigest, what string) {
		if par.output != seq.output {
			t.Fatalf("%s: output fingerprint %x, sequential %x", what, par.output, seq.output)
		}
		if par.space != seq.space {
			t.Fatalf("%s: SpaceBytes %d, sequential %d", what, par.space, seq.space)
		}
		if par.state != seq.state {
			t.Fatalf("%s: StateFingerprint %x, sequential %x", what, par.state, seq.state)
		}
	})
}

// TestRuntimeParallelismCounters checks the deterministic work counters
// are independent of Config.Parallelism: tree work and the run's counters,
// foreground and background, must not depend on how the work was scheduled.
func TestRuntimeParallelismCounters(t *testing.T) {
	acrossParallelism(t, func(t *testing.T, seq, par runDigest, what string) {
		if par.tree != seq.tree || par.treeBg != seq.treeBg {
			t.Fatalf("%s: TreeStats %+v / background %+v, sequential %+v / %+v", what, par.tree, par.treeBg, seq.tree, seq.treeBg)
		}
		if par.counters != seq.counters || par.bgCtr != seq.bgCtr {
			t.Fatalf("%s: Report.Counters %+v / background %+v, sequential %+v / %+v", what, par.counters, par.bgCtr, seq.counters, seq.bgCtr)
		}
	})
}
