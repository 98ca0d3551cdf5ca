package sliderrt

import (
	"bytes"
	"testing"
)

// Checkpoint/restore under Parallelism > 1: outputs and work counters are
// independent of how many partition updates run at once, so checkpoints
// written by a parallel runtime must restore and continue exactly like
// their sequential counterparts — across every mode and backend.

func TestCheckpointParallelAppend(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Append, Parallelism: 4}, 4,
		[]slide{{0, 2}, {0, 3}}, []slide{{0, 1}, {0, 4}})
}

func TestCheckpointParallelAppendSplitProcessing(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Append, SplitProcessing: true, Parallelism: 4}, 4,
		[]slide{{0, 2}}, []slide{{0, 1}, {0, 2}})
}

func TestCheckpointParallelFixed(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Parallelism: 4}
	checkpointRoundTrip(t, cfg, 8,
		[]slide{{2, 2}, {2, 2}}, []slide{{2, 2}, {4, 4}})
}

func TestCheckpointParallelFixedSplitProcessing(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, SplitProcessing: true, Parallelism: 4}
	checkpointRoundTrip(t, cfg, 8,
		[]slide{{2, 2}}, []slide{{2, 2}, {2, 2}})
}

func TestCheckpointParallelVariableFolding(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable, Parallelism: 4}, 8,
		[]slide{{3, 1}, {0, 5}}, []slide{{6, 2}, {1, 0}})
}

func TestCheckpointParallelVariableRandomized(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable, Backend: BackendRandomizedFolding, Seed: 11, Parallelism: 4}, 8,
		[]slide{{3, 1}}, []slide{{0, 5}, {6, 2}})
}

func TestCheckpointParallelStrawman(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable, Backend: BackendStrawman, Parallelism: 4}, 8,
		[]slide{{3, 1}}, []slide{{0, 4}})
}

// TestCheckpointCrossParallelism writes a checkpoint with a parallel
// runtime and restores it at Parallelism 1 and 4: parallelism is an
// execution knob, not persistent state, so the restored runtimes must
// produce identical outputs AND identical work counters as they continue
// — and match both the writer's output and a from-scratch run.
func TestCheckpointCrossParallelism(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Variable, Parallelism: 4, Memo: testMemoConfig()}
	writer, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	if _, err := writer.Initial(window); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Advance(3, genSplits(8, 2, 4, 7)); err != nil {
		t.Fatal(err)
	}
	window = append(window[3:], genSplits(8, 2, 4, 7)...)

	var buf bytes.Buffer
	if err := writer.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restoredAt := func(par int) *Runtime {
		readCfg := cfg
		readCfg.Parallelism = par
		rt, err := Restore(wordCountJob(), readCfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore at par %d: %v", par, err)
		}
		return rt
	}
	rest1 := restoredAt(1)
	rest4 := restoredAt(4)

	adds := genSplits(10, 3, 4, 7)
	origRes, err := writer.Advance(2, adds)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := rest1.Advance(2, adds)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := rest4.Advance(2, adds)
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[2:], adds...)
	wantSameOutput(t, res1.Output, origRes.Output)
	wantSameOutput(t, res4.Output, origRes.Output)
	wantSameOutput(t, res1.Output, scratch(t, job, window))
	if res1.TreeStats != res4.TreeStats {
		t.Fatalf("restored-at-par-1 TreeStats %+v != restored-at-par-4 %+v (work counters must not depend on parallelism)",
			res1.TreeStats, res4.TreeStats)
	}
}
