package sliderrt

import (
	"bytes"
	"strings"
	"testing"

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

// TestRestoreLegacyFixedCheckpointIntoDaba replays the pre-backend
// checkpoint layout: version-1 frames with no Backend field decode as
// BackendAuto, and their Fixed-mode Buckets are in rotating leaf-position
// order with a Victim cursor marking the oldest bucket. An auto config
// now resolves those restores to the DABA backend, which expects window
// order — the buckets must be rotated by Victim first, or every later
// slide evicts the wrong bucket and silently corrupts the aggregate.
func TestRestoreLegacyFixedCheckpointIntoDaba(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	rotCfg := cfg
	rotCfg.Backend = BackendRotating
	original, err := New(job, rotCfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	next := 8
	if _, err := original.Initial(window); err != nil {
		t.Fatal(err)
	}
	// Three one-bucket slides leave the rotating victim cursor at 3: a
	// legacy frame restored without rotation is maximally mis-ordered.
	for _, s := range []slide{{2, 2}, {2, 2}, {2, 2}} {
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
	var st checkpointState
	if err := persist.Decode(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != BackendRotating {
		t.Fatalf("checkpoint backend = %v, want %v", st.Backend, BackendRotating)
	}
	victims := 0
	for _, pc := range st.Partitions {
		if pc.Victim != 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("test needs a nonzero victim cursor to exercise the rotation")
	}
	// A pre-backend frame has no Backend field, which gob decodes as the
	// zero value: BackendAuto.
	st.Backend = BackendAuto
	frame, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Backend(); got != BackendDaba {
		t.Fatalf("restored backend = %v, want %v", got, BackendDaba)
	}
	for i, s := range []slide{{2, 2}, {2, 2}, {4, 4}, {2, 2}} {
		add := genSplits(next, s.add, 4, 7)
		next += s.add
		res, err := restored.Advance(s.drop, add)
		if err != nil {
			t.Fatalf("restored slide %d: %v", i, err)
		}
		window = append(window[s.drop:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
	}
}

// TestRestoreLegacyVictimOutOfRange rejects a legacy frame whose Victim
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
	var st checkpointState
	if err := persist.Decode(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	st.Backend = BackendAuto
	for p := range st.Partitions {
		buckets, err := persist.DecodePayloadSet(st.Partitions[p].FlatBuckets)
		if err != nil {
			t.Fatal(err)
		}
		st.Partitions[p].Victim = len(buckets)
	}
	frame, err := persist.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(wordCountJob(), cfg, bytes.NewReader(frame)); err == nil {
		t.Fatal("out-of-range victim accepted")
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
