package sliderrt

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"slider/internal/core"
	"slider/internal/mapreduce"
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
// the clone a consumer took of every window's output (the map itself is the
// runtime's until its next run) still equals that window recomputed from
// scratch — and a second query finds the first one's storage.
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
	var kept, wants []mapreduce.Output
	merged := 0
	for i := 0; i < 3*width; i++ {
		add := genSplits(width+i, 1, 4, 11)
		window = append(window[1:], add...)
		if res, err = rt.Advance(1, add); err != nil {
			t.Fatalf("advance %d: %v", i+1, err)
		}
		kept, wants = append(kept, maps.Clone(res.Output)), append(wants, scratch(t, job, window))
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
	if !reflect.DeepEqual(kept, wants) {
		t.Fatal("a later slide changed an output cloned earlier")
	}
	wantSameOutput(t, res.Output, wants[len(wants)-1])
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

// matrixColumns are the option combinations of one (Mode, Backend) row of
// the resolution matrix, in the order backendMatrix lists their results.
var matrixColumns = []struct {
	name                  string
	split, noncomm, late2 bool
}{
	{"plain", false, false, false},
	{"late", false, false, true},
	{"noncomm", false, true, false},
	{"noncomm+late", false, true, true},
	{"split", true, false, false},
	{"split+late", true, false, true},
	{"split+noncomm", true, true, false},
	{"split+noncomm+late", true, true, true},
}

// renderBackendMatrix runs New over Mode × the eight Backend values ×
// SplitProcessing × Commutative × AllowedLateness ∈ {0, 2} and renders one
// line per (Mode, Backend): the resolved backend of each column, "-" for
// ErrBadBackend, "mode" for ErrBadMode (lateness outside Fixed mode).
func renderBackendMatrix(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, mode := range []Mode{Append, Fixed, Variable} {
		for _, backend := range append([]Backend{BackendAuto}, core.Kinds()...) {
			fmt.Fprintf(&sb, "%v %-18v", mode, backend)
			for _, col := range matrixColumns {
				job := wordCountJob()
				job.Commutative = !col.noncomm
				cfg := Config{Mode: mode, Backend: backend, SplitProcessing: col.split,
					BucketSplits: 1, WindowBuckets: 2, Memo: testMemoConfig()}
				if col.late2 {
					cfg.AllowedLateness = 2
				}
				rt, err := New(job, cfg)
				switch {
				case err == nil:
					fmt.Fprintf(&sb, " %v", rt.Backend())
				case errors.Is(err, ErrBadBackend):
					if !strings.Contains(err.Error(), "backend ") {
						t.Errorf("%v/%v/%s: error does not name the backend: %v", mode, backend, col.name, err)
					}
					sb.WriteString(" -")
				case errors.Is(err, ErrBadMode):
					sb.WriteString(" mode")
				default:
					t.Fatalf("%v/%v/%s: unexpected error %v", mode, backend, col.name, err)
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestBackendMatrix pins resolveBackend's result or error for every cell.
func TestBackendMatrix(t *testing.T) {
	got := renderBackendMatrix(t)
	if got != backendMatrix {
		t.Fatalf("resolution matrix moved (columns: %v):\n got:\n%s\nwant:\n%s", matrixColumns, got, backendMatrix)
	}
}

// backendMatrix is the whole matrix. Columns, left to right: plain, late,
// noncomm, noncomm+late, split, split+late, split+noncomm,
// split+noncomm+late.
const backendMatrix = `A auto               coalescing mode coalescing mode coalescing mode coalescing mode
A daba               - mode - mode - mode - mode
A rotating           - mode - mode - mode - mode
A coalescing         coalescing mode coalescing mode coalescing mode coalescing mode
A folding            - mode - mode - mode - mode
A randomized-folding - mode - mode - mode - mode
A strawman           strawman mode strawman mode - mode - mode
A fingertree         - mode - mode - mode - mode
F auto               daba fingertree daba fingertree rotating - - -
F daba               daba - daba - - - - -
F rotating           rotating - - - rotating - - -
F coalescing         - - - - - - - -
F folding            - - - - - - - -
F randomized-folding - - - - - - - -
F strawman           strawman - strawman - - - - -
F fingertree         fingertree fingertree fingertree fingertree - - - -
V auto               folding mode folding mode - mode - mode
V daba               - mode - mode - mode - mode
V rotating           - mode - mode - mode - mode
V coalescing         - mode - mode - mode - mode
V folding            folding mode folding mode - mode - mode
V randomized-folding randomized-folding mode randomized-folding mode - mode - mode
V strawman           strawman mode strawman mode - mode - mode
V fingertree         - mode - mode - mode - mode
`
