package sliderrt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"slider/internal/core"
	"slider/internal/israce"
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

// TestDabaBeatsRotatingMergeCount runs both Fixed-mode backends through the
// same schedule at widths 8 to 64, each over whole flip cycles with the
// upkeep after every slide, and checks the headline asymptotics of
// Two-Stacks Lite against the rotating tree's O(log w) root path:
//   - DABA merges a bucket at most twice per partition, into the back's
//     running sum and at its flip, at every width; before the answer only
//     the first, one merge per partition (the flip waits for the upkeep);
//   - the rotating tree's merges a slide grow with the width, and at the
//     widest DABA's are below them;
//   - there DABA allocates no more than the rotating tree, to 1 %, and both
//     stay under a pinned ceiling.
func TestDabaBeatsRotatingMergeCount(t *testing.T) {
	type cell struct{ fg, merges, allocs float64 } // per slide
	widths := []int{8, 16, 32, 64}
	job := wordCountJob()
	run := func(backend Backend, width int) cell {
		rt, err := New(job, Config{Mode: Fixed, Backend: backend, BucketSplits: 1, WindowBuckets: width, Parallelism: 1, Memo: testMemoConfig()})
		if err != nil {
			t.Fatal(err)
		}
		// One cycle warms the free lists and the output map; the measured
		// slides are whole cycles, so DABA's span holds its flips.
		slides := max(16, width)
		splits := wideSplits(0, 2*width+slides)
		if _, err := rt.Initial(splits[:width]); err != nil {
			t.Fatal(err)
		}
		var fg int64
		slide := func(i int) {
			res, err := rt.Advance(1, splits[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			fg += res.TreeStats.Merges
			if err := rt.Background(); err != nil {
				t.Fatal(err)
			}
		}
		for i := width; i < 2*width; i++ {
			slide(i)
		}
		fg = 0
		merges := rt.Stats().TreeStats.Merges
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2 * width; i < len(splits); i++ {
			slide(i)
		}
		runtime.ReadMemStats(&after)
		n := float64(slides)
		return cell{
			fg:     float64(fg) / n,
			merges: float64(rt.Stats().TreeStats.Merges-merges) / n,
			allocs: float64(after.Mallocs-before.Mallocs) / n,
		}
	}
	parts := float64(job.Partitions)
	var daba, rotating, rotatingFirst cell
	for i, w := range widths {
		daba, rotating = run(BackendDaba, w), run(BackendRotating, w)
		t.Logf("width %2d: daba %.2f merges/slide (%.2f before the answer), %.1f allocs/slide; rotating %.2f, %.1f",
			w, daba.merges, daba.fg, daba.allocs, rotating.merges, rotating.allocs)
		if daba.merges > 2*parts {
			t.Errorf("width %d: daba merges/slide %.2f exceed the constant bound %.0f", w, daba.merges, 2*parts)
		}
		if daba.fg > parts {
			t.Errorf("width %d: daba merges/slide before the answer %.2f exceed one a partition (%.0f)", w, daba.fg, parts)
		}
		if i == 0 {
			rotatingFirst = rotating
		}
	}
	wide := widths[len(widths)-1]
	if daba.merges >= rotating.merges {
		t.Errorf("width %d: daba merges/slide %.2f not below rotating %.2f", wide, daba.merges, rotating.merges)
	}
	if rotating.merges <= rotatingFirst.merges {
		t.Errorf("rotating merges/slide did not grow with the width: %.2f at %d, %.2f at %d",
			rotating.merges, wide, rotatingFirst.merges, widths[0])
	}
	// Allocations at the widest width. A merge-join allocates its output
	// slice and one scratch pair whatever it joins; DABA runs a third of the
	// rotating tree's merges and builds nearly all of their outputs in
	// storage it released (TestSlideReusesDeadStorage): 49.3–49.8 allocs a
	// slide measured against 82.1–85.3 at GOMAXPROCS 1 to 16. One ceiling
	// holds both, ~5 % over the rotating tree's. The runs are sequential
	// (Parallelism 1): with a goroutine per partition the count moves with
	// the core count (88 at 2, 96 at 8). Under -race a map task may find
	// its sync.Pool'ed scratch dropped and grow a new one, 33 allocations
	// on this split shape, at most once a slide.
	ceiling := 89.0
	if israce.Enabled {
		ceiling += 33
	}
	if daba.allocs > ceiling || rotating.allocs > ceiling {
		t.Errorf("width %d: allocs/slide daba %.1f, rotating %.1f: over the pinned ceiling %.0f", wide, daba.allocs, rotating.allocs, ceiling)
	}
	if daba.allocs > 1.01*rotating.allocs {
		t.Errorf("width %d: daba allocs/slide %.1f more than 1%% over rotating %.1f", wide, daba.allocs, rotating.allocs)
	}
}

// wideSplits produces n one-record splits of 40 words over a vocabulary of
// 1 500: a bucket holds a few dozen of a window's keys per partition, so the
// aggregates of a 64-bucket window come in every size between one bucket's
// keys and the whole vocabulary.
func wideSplits(id0, n int) []mapreduce.Split {
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		rng := rand.New(rand.NewSource(int64(id0 + i)))
		var sb strings.Builder
		for k := 0; k < 40; k++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(1500)) + " ")
		}
		splits[i] = mapreduce.Split{ID: "w" + strconv.Itoa(id0+i), Records: []mapreduce.Record{sb.String()}}
	}
	return splits
}

// TestSlideReusesDeadStorage: the structures that say when an aggregate dies
// (the daba kind, the folding tree) have their next merges built in what the
// dead ones left. Once a window has been through a cycle, the large majority
// of a slide's merges find their storage in the partition's free list — 94 %
// (daba: Two-Stacks Lite; 96 % under DABA Lite) and 99 % (folding) measured
// at the bound of mapreduce.FreeListBuffers; without the release hook it is
// none —, a list never holds more than the bound, and the outputs stay those
// of recomputation from scratch, which a slot rewritten while something
// still read it would break.
func TestSlideReusesDeadStorage(t *testing.T) {
	const width, warm, slides = 64, 64, 128
	for _, c := range []struct {
		name  string
		cfg   Config
		share float64
	}{
		{"daba", Config{Mode: Fixed, Backend: BackendDaba, BucketSplits: 1, WindowBuckets: width}, 0.93},
		{"folding", Config{Mode: Variable, Backend: BackendFolding}, 0.95},
	} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/par%d", c.name, par), func(t *testing.T) {
				job := wordCountJob()
				cfg := c.cfg
				cfg.Memo, cfg.Parallelism = testMemoConfig(), par
				rt, err := New(job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				window := wideSplits(0, width)
				res, err := rt.Initial(window)
				if err != nil {
					t.Fatal(err)
				}
				requests := func() (hits, misses int64) {
					for p := range rt.free {
						st := rt.free[p].Stats()
						if st.Buffers > mapreduce.FreeListBuffers {
							t.Fatalf("partition %d's free list holds %d slices, the bound is %d", p, st.Buffers, mapreduce.FreeListBuffers)
						}
						hits, misses = hits+st.Hits, misses+st.Misses
					}
					return hits, misses
				}
				var hits0, misses0 int64
				for i := 0; i < warm+slides; i++ {
					if i == warm {
						hits0, misses0 = requests()
					}
					// The folding window also breathes: every fourth slide
					// drops two splits, the next adds two.
					drop, add := 1, 1
					if cfg.Mode == Variable && i%4 == 2 {
						drop, add = 2, 0
					} else if cfg.Mode == Variable && i%4 == 3 {
						drop, add = 0, 2
					}
					in := wideSplits(width+2*i, add)
					window = append(window[drop:], in...)
					if res, err = rt.Advance(drop, in); err != nil {
						t.Fatalf("advance %d: %v", i+1, err)
					}
					if i%16 == 15 {
						wantSameOutput(t, res.Output, scratch(t, job, window))
					}
				}
				hits, misses := requests()
				hits, misses = hits-hits0, misses-misses0
				share := float64(hits) / float64(hits+misses)
				t.Logf("%d of %d merges built in recycled storage (%.1f %%)", hits, hits+misses, 100*share)
				if share < c.share {
					t.Fatalf("%.1f %% of the merges were built in recycled storage, want at least %.0f %%", 100*share, 100*c.share)
				}
			})
		}
	}
}

// TestEarlyRecycleIsCaught: the elements a run evicts are recycled once its
// upkeep has run, not when the structures report them. Recycled any earlier,
// the ownership oracle catches it at the first slide: on the daba kind because
// the reduce still reads what left the window (the changed keys come out of
// scribbled storage), on the split-processing rotating tree already because
// its victim stays in its leaf until the upkeep installs the new bucket over
// it. At the proper point the same slides pass.
func TestEarlyRecycleIsCaught(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		caught string // what the oracle reports first
	}{
		{"daba", Config{Mode: Fixed, Backend: BackendDaba}, "the changed keys hold one read from a released payload"},
		{"rotating/split", Config{Mode: Fixed, Backend: BackendRotating, SplitProcessing: true}, "a payload an aggregator holds holds a released payload"},
	} {
		for _, early := range []bool{false, true} {
			cfg := c.cfg
			cfg.BucketSplits, cfg.WindowBuckets, cfg.Memo = 1, deltaBuckets, testMemoConfig()
			rt, err := New(wordCountJob(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			own := NewOwnership()
			own.early = early
			own.Watch(rt)
			res, err := rt.Initial(sparseSplits(0, deltaBuckets))
			if err != nil {
				t.Fatal(err)
			}
			if err := own.Check(rt, res); err != nil {
				t.Fatalf("%s: the initial run evicts nothing, yet: %v", c.name, err)
			}
			for i := 0; i < 4; i++ {
				if res, err = rt.Advance(1, sparseSplits(deltaBuckets+i, 1)); err != nil {
					t.Fatal(err)
				}
				err = own.Check(rt, res)
				switch {
				case !early && err != nil:
					t.Fatalf("%s, slide %d: recycled after the upkeep: %v", c.name, i+1, err)
				case early && err == nil:
					t.Fatalf("%s, slide %d: an element recycled before the upkeep went unnoticed", c.name, i+1)
				case early && !strings.Contains(err.Error(), c.caught):
					t.Fatalf("%s: caught as %q, want %q", c.name, err, c.caught)
				}
				if early {
					break
				}
				if err := rt.Background(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestFreeListObservable: what the free lists hold is memory SpaceBytes
// leaves out, so the runtime shows it. RuntimeStats.FreeList sums the
// partitions' lists, the spares their structures keep for the next flip and
// the positions they keep for the reduce, and WindowStats.FreeListBytes publishes their bytes as of the last run's
// upkeep, which is when the bucket a slide evicted joins its list. On a window of two eight-split buckets every bucket after the
// first slide is folded in the storage of the bucket evicted before it.
func TestFreeListObservable(t *testing.T) {
	const bucket = 8
	rt, err := New(wordCountJob(), Config{Mode: Fixed, BucketSplits: bucket, WindowBuckets: 2, Memo: testMemoConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Initial(wideSplits(0, 2*bucket)); err != nil {
		t.Fatal(err)
	}
	var before mapreduce.FreeListStats
	for i := 0; i < 8; i++ {
		if _, err := rt.Advance(bucket, wideSplits(2*bucket+i*bucket, bucket)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Background(); err != nil {
			t.Fatal(err)
		}
		var want mapreduce.FreeListStats
		spares := 0
		for p := range rt.free {
			want = want.Add(rt.free[p].Stats())
			rt.aggs[p].(core.Spares[sized]).ForEachSpare(func(s sized) {
				want.Buffers++
				want.Entries += cap(s.P)
				spares++
			})
			want.Positions += rt.aggs[p].(core.Locating[sized]).PositionsCap()
		}
		got := rt.Stats().FreeList
		if got != want || got.Buffers < rt.parts+spares {
			t.Fatalf("slide %d: RuntimeStats.FreeList = %+v, the partitions' lists and %d spares sum to %+v, each list holding its evicted bucket", i+1, got, spares, want)
		}
		if ws := rt.WindowStats(); ws.FreeListBytes != got.Bytes() || ws.FreeListBytes == 0 {
			t.Fatalf("slide %d: WindowStats.FreeListBytes = %d, the lists hold %d", i+1, ws.FreeListBytes, got.Bytes())
		}
		if i > 0 && got.Hits-before.Hits < int64(rt.parts) {
			t.Fatalf("slide %d: %d merges found storage in the free lists, fewer than one bucket fold per partition (%d)", i+1, got.Hits-before.Hits, rt.parts)
		}
		before = got
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

// matrixWindows are the window shapes of the resolution matrix's rows: the
// three modes, and a Fixed window of period buckets (BucketSplits 0), F0.
var matrixWindows = []struct {
	label        string
	mode         Mode
	bucketSplits int
}{{"A", Append, 1}, {"F", Fixed, 1}, {"F0", Fixed, 0}, {"V", Variable, 1}}

// renderBackendMatrix runs New over the window shapes × the eight Backend
// values × SplitProcessing × Commutative × AllowedLateness ∈ {0, 2} and
// renders one line per (shape, Backend): the resolved backend of each
// column, "-" for ErrBadBackend, "mode" for ErrBadMode (lateness outside
// Fixed mode), "buckets" for ErrBadBuckets (lateness over period buckets).
func renderBackendMatrix(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, win := range matrixWindows {
		mode := win.mode
		for _, backend := range append([]Backend{BackendAuto}, core.Kinds()...) {
			fmt.Fprintf(&sb, "%s %-18v", win.label, backend)
			for _, col := range matrixColumns {
				job := wordCountJob()
				job.Commutative = !col.noncomm
				cfg := Config{Mode: mode, Backend: backend, SplitProcessing: col.split,
					BucketSplits: win.bucketSplits, WindowBuckets: 2, Memo: testMemoConfig()}
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
				case errors.Is(err, ErrBadBuckets):
					sb.WriteString(" buckets")
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

// backendMatrix is the whole matrix. Rows: matrixWindows × backends.
// Columns, left to right: plain, late, noncomm, noncomm+late, split,
// split+late, split+noncomm, split+noncomm+late.
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
F0 auto               daba buckets daba buckets rotating buckets - buckets
F0 daba               daba buckets daba buckets - buckets - buckets
F0 rotating           rotating buckets - buckets rotating buckets - buckets
F0 coalescing         - buckets - buckets - buckets - buckets
F0 folding            - buckets - buckets - buckets - buckets
F0 randomized-folding - buckets - buckets - buckets - buckets
F0 strawman           - buckets - buckets - buckets - buckets
F0 fingertree         - buckets - buckets - buckets - buckets
V auto               folding mode folding mode - mode - mode
V daba               - mode - mode - mode - mode
V rotating           - mode - mode - mode - mode
V coalescing         - mode - mode - mode - mode
V folding            folding mode folding mode - mode - mode
V randomized-folding randomized-folding mode randomized-folding mode - mode - mode
V strawman           strawman mode strawman mode - mode - mode
V fingertree         - mode - mode - mode - mode
`
