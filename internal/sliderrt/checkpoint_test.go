package sliderrt

import (
	"bytes"
	"strings"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/persist"
)

// checkpointRoundTrip drives a runtime halfway through a slide schedule,
// checkpoints it, restores into a fresh runtime, finishes the schedule on
// both, and requires identical outputs.
func checkpointRoundTrip(t *testing.T, cfg Config, initial int, firstHalf, secondHalf []slide) {
	t.Helper()
	job := wordCountJob()
	cfg.Memo = testMemoConfig()
	original, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, initial, 4, 7)
	next := initial
	if _, err := original.Initial(window); err != nil {
		t.Fatal(err)
	}
	for _, s := range firstHalf {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		if _, err := original.Advance(s.drop, add); err != nil {
			t.Fatal(err)
		}
		window = append(window[s.drop:], add...)
	}

	var buf bytes.Buffer
	if err := original.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Live() != original.Live() || restored.WindowLo() != original.WindowLo() {
		t.Fatalf("window bookkeeping mismatch: live %d/%d lo %d/%d",
			restored.Live(), original.Live(), restored.WindowLo(), original.WindowLo())
	}

	for i, s := range secondHalf {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		origRes, err := original.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("original slide %d: %v", i, err)
		}
		restRes, err := restored.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("restored slide %d: %v", i, err)
		}
		window = append(window[s.drop:], add...)
		wantSameOutput(t, restRes.Output, origRes.Output)
		wantSameOutput(t, restRes.Output, scratch(t, job, window))
	}
}

func TestCheckpointAppend(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Append}, 4,
		[]slide{{0, 2}, {0, 1}}, []slide{{0, 3}, {0, 2}})
}

func TestCheckpointAppendSplitProcessing(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Append, SplitProcessing: true}, 4,
		[]slide{{0, 2}}, []slide{{0, 1}, {0, 2}})
}

func TestCheckpointFixed(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4}
	checkpointRoundTrip(t, cfg, 8,
		[]slide{{2, 2}, {2, 2}}, []slide{{2, 2}, {4, 4}})
}

func TestCheckpointFixedSplitProcessing(t *testing.T) {
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, SplitProcessing: true}
	checkpointRoundTrip(t, cfg, 8,
		[]slide{{2, 2}}, []slide{{2, 2}, {2, 2}})
}

func TestCheckpointVariableFolding(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable}, 8,
		[]slide{{3, 1}, {0, 5}}, []slide{{6, 2}, {1, 0}})
}

func TestCheckpointVariableRandomized(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable, Backend: BackendRandomizedFolding, Seed: 11}, 8,
		[]slide{{3, 1}}, []slide{{0, 5}, {6, 2}})
}

func TestCheckpointStrawman(t *testing.T) {
	checkpointRoundTrip(t, Config{Mode: Variable, Backend: BackendStrawman}, 8,
		[]slide{{3, 1}}, []slide{{0, 4}})
}

func TestCheckpointBeforeInitial(t *testing.T) {
	rt, err := New(wordCountJob(), Config{Mode: Append, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != ErrNotInitial {
		t.Fatalf("err = %v, want ErrNotInitial", err)
	}
}

func TestRestoreConfigMismatch(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Append, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := Config{Mode: Variable, Memo: testMemoConfig()}
	if _, err := Restore(wordCountJob(), wrong, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mode mismatch accepted")
	}

	// Partition-count mismatch.
	otherJob := wordCountJob()
	otherJob.Partitions = 5
	if _, err := Restore(otherJob, cfg, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestRestoreCorruptData(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Append, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if _, err := Restore(wordCountJob(), cfg, strings.NewReader("junk")); err == nil {
		t.Fatal("junk checkpoint accepted")
	}
}

// TestDabaRestoreKeepsTheFlipPhase: the daba kind flips once every
// WindowBuckets buckets, on the multiples of the width, and a checkpoint
// carries no structure — only the buckets and the window's bounds. A runtime
// restored from a checkpoint taken at any phase of a cycle must flip when its
// writer does: over the next two cycles both report the same foreground and
// upkeep work, run by run, and end in the same state.
func TestDabaRestoreKeepsTheFlipPhase(t *testing.T) {
	const width, bucket = 4, 2
	job := wordCountJob()
	cfg := Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: bucket, WindowBuckets: width, Memo: testMemoConfig()}
	for phase := 0; phase < width; phase++ {
		writer, err := New(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := width * bucket
		if _, err := writer.Initial(genSplits(0, next, 4, 7)); err != nil {
			t.Fatal(err)
		}
		advance := func(rt *Runtime, add []mapreduce.Split) *RunResult {
			res, err := rt.Advance(bucket, add)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for i := 0; i < width+phase; i++ {
			advance(writer, genSplits(next, bucket, 4, 7))
			next += bucket
		}
		var ckpt bytes.Buffer
		if err := writer.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(job, cfg, &ckpt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*width; i++ {
			add := genSplits(next, bucket, 4, 7)
			next += bucket
			w, r := advance(writer, add), advance(restored, add)
			if i == 0 {
				// The writer's first result reports the upkeep its checkpoint
				// ran, which the restore has no part in.
				w.TreeStatsBackground = r.TreeStatsBackground
			}
			if w.TreeStats != r.TreeStats || w.TreeStatsBackground != r.TreeStatsBackground {
				t.Fatalf("phase %d, slide %d after the restore: the restored runtime did %+v (upkeep %+v), its writer %+v (upkeep %+v)",
					phase, i+1, r.TreeStats, r.TreeStatsBackground, w.TreeStats, w.TreeStatsBackground)
			}
		}
		if writer.StateFingerprint() != restored.StateFingerprint() {
			t.Fatalf("phase %d: the restored runtime ends in another state than its writer", phase)
		}
	}
}

// TestRestoreLegacyVictimOutOfRange rejects a rotating frame whose Victim
// cursor does not address a bucket instead of restoring a garbled window.
func TestRestoreLegacyVictimOutOfRange(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	rotCfg := cfg
	rotCfg.Backend = BackendRotating
	rt, err := New(job, rotCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 8, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	frame := rewriteFrame(t, buf.Bytes(), func(st *checkpointState) {
		for p := range st.Partitions {
			buckets, err := persist.DecodePayloadSet(st.Partitions[p].FlatBuckets)
			if err != nil {
				t.Fatal(err)
			}
			st.Partitions[p].Victim = len(buckets)
		}
	})
	if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "no victim cursor 4") {
		t.Fatalf("out-of-range victim: err = %v, want it refused as no victim cursor", err)
	}
}

func TestRestoredRuntimeRejectsReinitialize(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Append, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 4, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Initial(genSplits(99, 4, 4, 7)); err != ErrReinitialize {
		t.Fatalf("err = %v, want ErrReinitialize", err)
	}
}
