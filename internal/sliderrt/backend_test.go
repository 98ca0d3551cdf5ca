package sliderrt

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// concatJob is associative but NOT commutative: it joins every line in
// window order, so any backend that re-orders buckets relative to
// window age produces a different string. Only order-preserving
// backends (DABA, strawman) may serve it in Fixed mode.
func concatJob() *mapreduce.Job {
	join := func(values []mapreduce.Value) mapreduce.Value {
		var sb strings.Builder
		for i, v := range values {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.(string))
		}
		return sb.String()
	}
	return &mapreduce.Job{
		Name:       "concat",
		Partitions: 2,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			line, ok := rec.(string)
			if !ok {
				return fmt.Errorf("record %T is not a string", rec)
			}
			emit("seq", line)
			return nil
		},
		Combine:     func(_ string, values []mapreduce.Value) mapreduce.Value { return join(values) },
		Reduce:      func(_ string, values []mapreduce.Value) mapreduce.Value { return join(values) },
		Commutative: false,
	}
}

// TestDabaServesNonCommutativeFixedWindow is the capability the DABA
// backend unlocks: a fixed-width window over a non-commutative combiner,
// previously rejected outright, now runs incrementally and matches
// from-scratch recomputation (which processes splits strictly in window
// order) on every slide.
func TestDabaServesNonCommutativeFixedWindow(t *testing.T) {
	job := concatJob()
	rt, err := New(job, Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != BackendDaba {
		t.Fatalf("backend = %v, want daba", rt.Backend())
	}
	window := genSplits(0, 8, 3, 11)
	next := 8
	res, err := rt.Initial(window)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *RunResult) {
		t.Helper()
		want, err := mapreduce.RunScratch(job, window, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Output["seq"]; got != want["seq"] {
			t.Fatalf("window concatenation diverged:\n got %v\nwant %v", got, want["seq"])
		}
	}
	check(res)
	for i := 0; i < 10; i++ {
		k := 1 + i%2 // alternate 1- and 2-bucket slides
		add := genSplits(next, 2*k, 3, 11)
		next += 2 * k
		res, err := rt.Advance(2*k, add)
		if err != nil {
			t.Fatalf("slide %d: %v", i, err)
		}
		window = append(window[2*k:], add...)
		check(res)
	}
}

// TestDabaBeatsRotatingMergeCount pins both Fixed-mode backends on the
// same schedule and checks the headline asymptotics: DABA's foreground
// merges per slide are a small constant, strictly below the rotating
// tree's log-depth root path at a wide window.
func TestDabaBeatsRotatingMergeCount(t *testing.T) {
	job := wordCountJob()
	run := func(backend Backend) int64 {
		cfg := Config{Mode: Fixed, Backend: backend, BucketSplits: 1, WindowBuckets: 64, Memo: testMemoConfig()}
		rt, err := New(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(genSplits(0, 64, 4, 5)); err != nil {
			t.Fatal(err)
		}
		var merges int64
		for i := 0; i < 8; i++ {
			res, err := rt.Advance(1, genSplits(64+i, 1, 4, 5))
			if err != nil {
				t.Fatal(err)
			}
			merges += res.TreeStats.Merges
		}
		return merges
	}
	daba := run(BackendDaba)
	rotating := run(BackendRotating)
	if daba >= rotating {
		t.Fatalf("daba merges (%d) should be below rotating (%d) at window 64", daba, rotating)
	}
	// Worst case ≤ 6 combines per bucket slide per partition.
	if max := int64(8 * 6 * job.Partitions); daba > max {
		t.Fatalf("daba merges (%d) exceed the constant bound %d", daba, max)
	}
}

// TestDabaRootRebuiltInPlace: the DABA backend rebuilds each partition's
// window aggregate in the storage of the previous slide's (the reduce is
// its only reader), so results handed out earlier must not depend on it —
// every retained output still equals the copy taken when it was returned
// and the last equals recomputation from scratch — and a second query
// finds the first one's storage.
func TestDabaRootRebuiltInPlace(t *testing.T) {
	job := wordCountJob()
	const width = 8
	rt, err := New(job, Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: 1, WindowBuckets: width, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, width, 4, 11)
	res, err := rt.Initial(window)
	if err != nil {
		t.Fatal(err)
	}
	var kept, copies []mapreduce.Output
	merged := 0
	for i := 0; i < 3*width; i++ {
		add := genSplits(width+i, 1, 4, 11)
		window = append(window[1:], add...)
		if res, err = rt.Advance(1, add); err != nil {
			t.Fatalf("advance %d: %v", i+1, err)
		}
		kept, copies = append(kept, res.Output), append(copies, maps.Clone(res.Output))
		// A query that merges (some return the front aggregate as it is)
		// builds its root where the previous merging query built its own.
		for p, agg := range rt.aggs {
			before := agg.Stats().Merges
			first := agg.Roots()[0]
			if agg.Stats().Merges == before {
				continue
			}
			merged++
			if again := agg.Roots()[0]; !reflect.DeepEqual(again, first) || &again.P[0] != &first.P[0] {
				t.Fatalf("slide %d, partition %d: the second query did not rebuild the root in the first one's storage", i+1, p)
			}
		}
	}
	if merged == 0 {
		t.Fatal("no query merged")
	}
	if !reflect.DeepEqual(kept, copies) {
		t.Fatal("a later slide changed an output returned earlier")
	}
	want, err := mapreduce.RunScratch(job, window, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("last window: got %v, want %v", res.Output, want)
	}
}

// TestBackendLiveSwitch drives the SwitchHook across the legal Fixed-mode
// pair in both directions, checking outputs against scratch throughout,
// and that a checkpoint taken after a switch restores onto the switched
// backend under BackendAuto.
func TestBackendLiveSwitch(t *testing.T) {
	job := wordCountJob()
	var want Backend = BackendDaba
	hookCalls := 0
	cfg := Config{
		Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig(),
		Obs: metrics.NewSlideObs(),
		SwitchHook: func(cur Backend, contract metrics.HistogramSnapshot) Backend {
			hookCalls++
			return want
		},
	}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := genSplits(0, 8, 4, 7)
	next := 8
	if _, err := rt.Initial(window); err != nil {
		t.Fatal(err)
	}
	advance := func() {
		t.Helper()
		add := genSplits(next, 2, 4, 7)
		next += 2
		before := rt.Backend()
		res, err := rt.Advance(2, add)
		if err != nil {
			t.Fatal(err)
		}
		window = append(window[2:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		// SpaceBytes describes the structure the slide ran on; a switch at
		// the end of the slide rebuilds it, and the next slide — the first
		// on the rebuilt structure — is checked against the new one.
		if rt.Backend() == before {
			wantSpaceOracle(t, rt, job, res)
		}
	}
	advance()
	if rt.Backend() != BackendDaba || hookCalls == 0 {
		t.Fatalf("backend = %v after %d hook calls, want daba", rt.Backend(), hookCalls)
	}
	want = BackendRotating
	advance() // hook fires at the end: switch happens after this slide
	if rt.Backend() != BackendRotating {
		t.Fatalf("backend = %v, want rotating after switch", rt.Backend())
	}
	advance() // a full slide on the rotating tree

	// A checkpoint taken now records the switched backend; restore under
	// BackendAuto must follow it.
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	checkpointWindow := append([]mapreduce.Split{}, window...)
	restoreCfg := cfg
	restoreCfg.SwitchHook = nil
	restored, err := Restore(wordCountJob(), restoreCfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Backend() != BackendRotating {
		t.Fatalf("restored backend = %v, want rotating from checkpoint", restored.Backend())
	}

	want = BackendDaba
	advance() // switch back
	if rt.Backend() != BackendDaba {
		t.Fatalf("backend = %v, want daba after switch back", rt.Backend())
	}
	advance()

	// The restored runtime (no hook) stays rotating and agrees with the
	// scratch oracle when it resumes from the checkpointed window.
	restWindow := checkpointWindow
	add := genSplits(next, 2, 4, 7)
	res, err := restored.Advance(2, add)
	if err != nil {
		t.Fatal(err)
	}
	restWindow = append(restWindow[2:], add...)
	wantSameOutput(t, res.Output, scratch(t, job, restWindow))
	wantSpaceOracle(t, restored, job, res)
	if restored.Backend() != BackendRotating {
		t.Fatalf("restored runtime switched without a hook: %v", restored.Backend())
	}
}

// TestBackendLiveSwitchRefusesIllegalTarget: a non-commutative job may
// never be switched onto the rotating tree, whatever the hook says.
func TestBackendLiveSwitchRefusesIllegalTarget(t *testing.T) {
	job := concatJob()
	cfg := Config{
		Mode: Fixed, BucketSplits: 1, WindowBuckets: 4, Memo: testMemoConfig(),
		SwitchHook: func(Backend, metrics.HistogramSnapshot) Backend { return BackendRotating },
	}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(genSplits(0, 4, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Advance(1, genSplits(4+i, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Backend() != BackendDaba {
		t.Fatalf("non-commutative job switched to %v", rt.Backend())
	}
}

// TestCheckpointFixedRotatingPinned keeps rotating-tree checkpoint
// coverage now that plain Fixed mode resolves to DABA.
func TestCheckpointFixedRotatingPinned(t *testing.T) {
	cfg := Config{Mode: Fixed, Backend: BackendRotating, BucketSplits: 2, WindowBuckets: 4}
	checkpointRoundTrip(t, cfg, 8, []slide{{2, 2}}, []slide{{2, 2}, {4, 4}})
}

// TestRestoreBackendMismatch: an explicit override that contradicts the
// checkpointed backend is refused rather than silently reinterpreting
// the persisted buckets.
func TestRestoreBackendMismatch(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 2, WindowBuckets: 4, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
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
	bad := cfg
	bad.Backend = BackendRotating
	if _, err := Restore(wordCountJob(), bad, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("daba checkpoint restored under an explicit rotating override")
	}
}
