package sliderrt

import (
	"testing"

	"slider/internal/mapreduce"
)

// parallelCases enumerates one configuration per tree type, so the
// parallel contraction engine is exercised end-to-end on every window
// mode: coalescing (Append), rotating (Fixed, with and without split
// processing), folding and randomized folding (Variable), and the
// strawman baseline.
func parallelCases() map[string]Config {
	return map[string]Config{
		"append":      {Mode: Append},
		"fixed":       {Mode: Fixed, BucketSplits: 2, WindowBuckets: 8},
		"fixed-split": {Mode: Fixed, BucketSplits: 2, WindowBuckets: 8, SplitProcessing: true},
		"variable":    {Mode: Variable},
		"randomized":  {Mode: Variable, Backend: BackendRandomizedFolding, Seed: 7},
		"strawman":    {Mode: Variable, Backend: BackendStrawman},
	}
}

// runWorkload drives one Initial plus several Advances at the given
// parallelism and returns the fingerprint of every run's output.
func runWorkload(t *testing.T, cfg Config, par int) []uint64 {
	t.Helper()
	cfg.Parallelism = par
	rt, err := New(wordCountJob(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := 16
	res, err := rt.Initial(genSplits(0, window, 4, 99))
	if err != nil {
		t.Fatal(err)
	}
	fps := []uint64{mapreduce.FingerprintPayload(mapreduce.FromMap(res.Output))}
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
		fps = append(fps, mapreduce.FingerprintPayload(mapreduce.FromMap(res.Output)))
	}
	return fps
}

// TestRuntimeParallelismEquivalence checks the user-visible contract of
// the parallel contraction engine: for every tree type, runs at
// Parallelism 1 and Parallelism 8 produce byte-identical outputs
// (fingerprint equality on every run, not just the last). With
// `go test -race` this also drives every tree's concurrent combines,
// shard merging, and the atomic combine counters under the detector.
func TestRuntimeParallelismEquivalence(t *testing.T) {
	for name, cfg := range parallelCases() {
		t.Run(name, func(t *testing.T) {
			seq := runWorkload(t, cfg, 1)
			par := runWorkload(t, cfg, 8)
			if len(seq) != len(par) {
				t.Fatalf("run counts diverge: %d vs %d", len(seq), len(par))
			}
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("run %d: parallel output fingerprint %x, sequential %x", i, par[i], seq[i])
				}
			}
		})
	}
}

// TestRuntimeParallelismCounters checks the deterministic work counters
// are independent of the worker count: combiner calls and recomputed
// nodes must not depend on how the work was scheduled.
func TestRuntimeParallelismCounters(t *testing.T) {
	for name, cfg := range parallelCases() {
		t.Run(name, func(t *testing.T) {
			counters := func(par int) (int64, int64) {
				c := cfg
				c.Parallelism = par
				rt, err := New(wordCountJob(), c)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Initial(genSplits(0, 16, 4, 5)); err != nil {
					t.Fatal(err)
				}
				drop := 2
				if c.Mode == Append {
					drop = 0
				}
				res, err := rt.Advance(drop, genSplits(16, 2, 4, 5))
				if err != nil {
					t.Fatal(err)
				}
				return res.Report.Counters.CombineCalls, res.TreeStats.NodesRecomputed
			}
			seqCombines, seqNodes := counters(1)
			parCombines, parNodes := counters(8)
			if seqCombines != parCombines {
				t.Fatalf("combine calls diverge: seq %d, par %d", seqCombines, parCombines)
			}
			if seqNodes != parNodes {
				t.Fatalf("recomputed nodes diverge: seq %d, par %d", seqNodes, parNodes)
			}
		})
	}
}

// TestTreeParallelismBudget pins the budget split between partition
// workers and intra-tree workers.
func TestTreeParallelismBudget(t *testing.T) {
	cases := []struct {
		par, parts, want int
	}{
		{8, 2, 4},   // budget left over: trees share it
		{8, 8, 1},   // partitions exhaust the budget
		{2, 8, 1},   // more partitions than budget
		{9, 2, 4},   // integer division
		{1, 1, 1},   // sequential
		{16, 1, 16}, // one partition gets everything
	}
	for _, tc := range cases {
		job := wordCountJob()
		job.Partitions = tc.parts
		rt, err := New(job, Config{Mode: Variable, Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.treeParallelism(); got != tc.want {
			t.Fatalf("par=%d parts=%d: treeParallelism = %d, want %d", tc.par, tc.parts, got, tc.want)
		}
	}
}
