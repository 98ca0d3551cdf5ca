package sliderrt

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"slider/internal/apps"
	"slider/internal/dist"
	"slider/internal/israce"
	"slider/internal/mapreduce"
	"slider/internal/persist"
	"slider/internal/workload"
)

// TestRangeCut pins the cut of a bucket into map tasks: ranges(n) contiguous
// ranges of near-equal width, the wider first, none wider than rangeSplits.
func TestRangeCut(t *testing.T) {
	want := map[int][]int{
		0: nil, 1: {1}, 2: {2}, 4: {4}, 5: {3, 2}, 8: {4, 4}, 9: {3, 3, 3},
		11: {4, 4, 3}, 13: {4, 3, 3, 3}, 16: {4, 4, 4, 4},
	}
	for n, widths := range want {
		rt := &Runtime{adding: []int{n}}
		splits := genSplits(0, n, 1, 1)
		tasks, got := rt.cutRanges(splits)
		if n <= 1 {
			// Nothing to concatenate: the splits are the tasks.
			if got != nil || len(tasks) != n || n == 1 && tasks[0].ID != splits[0].ID {
				t.Errorf("bucket of %d: tasks %d, widths %v, want the splits themselves", n, len(tasks), got)
			}
			continue
		}
		if !slices.Equal(got, widths) {
			t.Errorf("bucket of %d cut into %v, want %v", n, got, widths)
		}
		at := 0
		for i, w := range got {
			var recs []mapreduce.Record
			for _, s := range splits[at : at+w] {
				recs = append(recs, s.Records...)
			}
			if tasks[i].ID != splits[at].ID || !slices.Equal(tasks[i].Records, recs) {
				t.Errorf("bucket of %d, range %d: %s with %d records, want %s with its splits' %d in order", n, i, tasks[i].ID, len(tasks[i].Records), splits[at].ID, len(recs))
			}
			at += w
		}
		rt.started = true
		rt.dropRanges()
	}
}

// salvageRunner is a MapRunner whose workers give up part way: it maps the
// tasks at even indices and reports the others missing, through the
// partial-result error dist's IncompleteError is. It notes what each task it
// was handed held while it runs.
type salvageRunner struct {
	calls   int
	records []int // records per task of the last call
}

type incomplete struct {
	results []mapreduce.MapResult
	done    []bool
}

func (e *incomplete) Error() string { return "workers gave up" }
func (e *incomplete) Completed() ([]mapreduce.MapResult, []bool) {
	return e.results, e.done
}

func (r *salvageRunner) RunMap(job *mapreduce.Job, splits []mapreduce.Split) ([]mapreduce.MapResult, error) {
	r.calls++
	r.records = r.records[:0]
	e := &incomplete{results: make([]mapreduce.MapResult, len(splits)), done: make([]bool, len(splits))}
	for i, s := range splits {
		r.records = append(r.records, len(s.Records))
		if i%2 == 1 {
			continue
		}
		res, err := mapreduce.RunMapTask(job, s)
		if err != nil {
			return nil, err
		}
		e.results[i], e.done[i] = res, true
	}
	return nil, e
}

// TestRangeSalvageRemapsMissingRanges: a range fails as a unit. When the
// runner hands back some ranges done and the rest missing, the local
// fallback maps exactly the missing ranges — from the runtime's
// concatenation, which must outlive the runner's call — and the window
// matches recomputation from scratch.
func TestRangeSalvageRemapsMissingRanges(t *testing.T) {
	var mapped atomic.Int64
	job := wordCountJob()
	inner := job.Map
	job.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error {
		mapped.Add(1)
		return inner(rec, emit)
	}
	runner := &salvageRunner{}
	cfg := periodsConfig(3)
	cfg.MapRunner = runner
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 4
	widths := []int{9, 0, 5}
	var window []mapreduce.Split
	id := 0
	for _, w := range widths {
		window = append(window, genSplits(id, w, lines, 7)...)
		id += w
	}
	res, err := rt.InitialBuckets(widths, window)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, window))
	// Ranges 3/3/3 of the first bucket and 3/2 of the third.
	if want := []int{3 * lines, 3 * lines, 3 * lines, 3 * lines, 2 * lines}; !slices.Equal(runner.records, want) {
		t.Fatalf("runner handed ranges of %v records, want %v", runner.records, want)
	}
	for _, w := range []int{13, 1, 4} {
		add := genSplits(id, w, lines, 7)
		id += w
		drop := widths[0]
		widths = append(widths[1:], w)
		before := mapped.Load()
		res, err := rt.Advance(drop, add)
		if err != nil {
			t.Fatalf("advance of %d: %v", w, err)
		}
		// Every record of the delta is mapped once: by the runner for the
		// ranges it completed, locally for the rest.
		if got, want := mapped.Load()-before, int64(w*lines); got != want {
			t.Fatalf("advance of %d splits mapped %d records, want %d", w, got, want)
		}
		window = append(window[drop:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		if c := res.Report.Counters; c.MapTasks != int64(ranges(w)) || c.MapRecords != int64(w*lines) {
			t.Fatalf("advance of %d splits: %d tasks over %d records, want %d over %d", w, c.MapTasks, c.MapRecords, ranges(w), w*lines)
		}
	}
	if got := rt.FaultStats().LocalFallbacks; got != int64(runner.calls) {
		t.Fatalf("%d local fallbacks for %d incomplete runs", got, runner.calls)
	}
}

// holdsNothing fails the test when the runtime's range storage holds a split
// or a record, anywhere in its capacity.
func holdsNothing(t *testing.T, rt *Runtime) {
	t.Helper()
	for _, r := range rt.recs[:cap(rt.recs)] {
		if r != nil {
			t.Fatalf("range storage holds record %v past the run", r)
		}
	}
	for _, s := range rt.tasks[:cap(rt.tasks)] {
		if s.ID != "" || s.Records != nil {
			t.Fatalf("range storage holds split %q past the run", s.ID)
		}
	}
}

// TestRangeStorageHoldsNothing: the runtime keeps no split and no record past
// a run, whatever it returns. The caller overwrites every record it handed
// over once the call is back — as stream does with the buffer it lends its
// splits — and the next slides still match recomputation; the storage the
// ranges were concatenated in is zeroed after a successful run and after a
// failed map phase alike. The initial run's storage, the size of the whole
// first window, is not kept for the slides.
func TestRangeStorageHoldsNothing(t *testing.T) {
	job := wordCountJob()
	cfg := Config{Mode: Fixed, BucketSplits: 6, WindowBuckets: 3, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 4
	// lend hands the runtime copies of the model's splits and clobbers them
	// once the call has returned.
	lend := func(model []mapreduce.Split, call func([]mapreduce.Split) (*RunResult, error)) (*RunResult, error) {
		lent := make([]mapreduce.Split, len(model))
		for i, s := range model {
			lent[i] = mapreduce.Split{ID: s.ID, Records: slices.Clone(s.Records)}
		}
		res, err := call(lent)
		for _, s := range lent {
			for j := range s.Records {
				s.Records[j] = "clobbered clobbered"
			}
		}
		return res, err
	}
	window := genSplits(0, 18, lines, 3)
	res, err := lend(window, rt.Initial)
	if err != nil {
		t.Fatal(err)
	}
	wantSameOutput(t, res.Output, scratch(t, job, window))
	if rt.recs != nil || rt.tasks != nil || rt.widths != nil {
		t.Fatalf("the initial run kept its range storage: %d records, %d tasks", cap(rt.recs), cap(rt.tasks))
	}
	next := 18
	for i := range 4 {
		add := genSplits(next, 6, lines, 3)
		next += 6
		res, err := lend(add, func(s []mapreduce.Split) (*RunResult, error) { return rt.Advance(6, s) })
		if err != nil {
			t.Fatal(err)
		}
		window = append(window[6:], add...)
		wantSameOutput(t, res.Output, scratch(t, job, window))
		holdsNothing(t, rt)
		if c := cap(rt.recs); c < 6*lines || c >= 18*lines {
			t.Fatalf("slide %d keeps range storage for %d records: want the delta's %d, not the window's %d", i, c, 6*lines, 18*lines)
		}
	}
	// A map phase that fails leaves the window as it was, and nothing behind.
	bad := genSplits(next, 6, lines, 3)
	bad[4].Records = append(slices.Clone(bad[4].Records), 42)
	if _, err := lend(bad, func(s []mapreduce.Split) (*RunResult, error) { return rt.Advance(6, s) }); err == nil {
		t.Fatal("a record the job cannot map did not fail the slide")
	}
	holdsNothing(t, rt)
	add := genSplits(next, 6, lines, 3)
	res, err = lend(add, func(s []mapreduce.Split) (*RunResult, error) { return rt.Advance(6, s) })
	if err != nil {
		t.Fatal(err)
	}
	window = append(window[6:], add...)
	wantSameOutput(t, res.Output, scratch(t, job, window))
	holdsNothing(t, rt)
}

// kmeansRangeRun drives K-Means over a window of four period buckets whose
// widths run 0, 1, …, 3·rangeSplits+1 — every cut the ranges know, empty
// buckets and buckets of one split included — and returns what must not
// depend on where or how concurrently the ranges are mapped: the outputs,
// every counter, the tree work and SpaceBytes of each run, and the state's
// fingerprint after each.
func kmeansRangeRun(t *testing.T, job *mapreduce.Job, par int, runner mapreduce.MapRunner) []string {
	t.Helper()
	points := workload.NewPoints(workload.PointsConfig{Seed: 9, PointsPerSplit: 12, Dim: 5})
	cfg := Config{Mode: Fixed, WindowBuckets: 4, Parallelism: par, MapRunner: runner, Memo: testMemoConfig()}
	rt, err := New(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var widths []int
	for w := 0; w <= 3*rangeSplits+1; w++ {
		widths = append(widths, w)
	}
	id := 0
	take := func(w int) []mapreduce.Split {
		s := points.Range(id, id+w)
		id += w
		return s
	}
	var log []string
	note := func(res *RunResult) {
		log = append(log, fmt.Sprintf("out=%v counters=%+v fg=%+v bg=%+v space=%d rebuilt=%v changed=%v fp=%#x",
			res.Output, res.Report.Counters, res.TreeStats, res.TreeStatsBackground, res.SpaceBytes, res.Rebuilt, res.Changed, rt.StateFingerprint()))
	}
	var initial []mapreduce.Split
	for _, w := range widths[:4] {
		initial = append(initial, take(w)...)
	}
	res, err := rt.InitialBuckets(widths[:4], initial)
	if err != nil {
		t.Fatal(err)
	}
	note(res)
	for i, w := range widths[4:] {
		res, err := rt.Advance(widths[i], take(w))
		if err != nil {
			t.Fatalf("bucket of %d: %v", w, err)
		}
		note(res)
	}
	if fb := rt.FaultStats().LocalFallbacks; fb != 0 {
		t.Fatalf("%d runs fell back to local execution", fb)
	}
	return log
}

// TestRangeCutIsDeterministic: the cut reads the bucket widths and nothing
// else, so K-Means — float sums, which a different grouping would round
// differently — ends every run on the same outputs, counters, tree work and
// state fingerprint at parallelism 1, 4 and 8, and with its ranges mapped
// in-process or by two workers over the wire.
func TestRangeCutIsDeterministic(t *testing.T) {
	newJob := func() *mapreduce.Job { return apps.KMeans(3, 6, 5, 4) }
	want := kmeansRangeRun(t, newJob(), 1, nil)
	for _, par := range []int{4, 8} {
		if got := kmeansRangeRun(t, newJob(), par, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d diverges from parallelism 1:\n%s", par, firstDiff(got, want))
		}
	}

	persist.RegisterType(&apps.CentroidAcc{})
	reg := &dist.Registry{}
	if err := reg.Register(newJob().Name, newJob); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := range 2 {
		w, err := dist.NewWorker(fmt.Sprintf("w%d", i), "127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, w.Addr())
	}
	pool, err := dist.NewPool(newJob().Name, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := kmeansRangeRun(t, newJob(), 4, pool); !reflect.DeepEqual(got, want) {
		t.Fatalf("ranges mapped by workers diverge from the in-process run:\n%s", firstDiff(got, want))
	}
}

// firstDiff describes the first run whose notes differ.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("run %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d runs, want %d", len(got), len(want))
}

// TestFoldReleaseFeedsTheNextMap: a bucket of two ranges is folded from two
// map outputs, whose entry slices the fold hands to the task stock, and the
// next slide's map tasks cut their payloads out of that storage. So a slide
// allocates at least the entry bytes its folds consumed less than the same
// slide whose folds drop what they consumed. Both loops start every measured
// slide after two collections and map sequentially, so that each grows the
// same map-task scratch (see internal/bench's measureSlideLoop); under -race
// the pool behind that scratch drops what it is handed at random.
func TestFoldReleaseFeedsTheNextMap(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const bucket, slides = 2 * rangeSplits, 16
	entry := int64(unsafe.Sizeof(mapreduce.Entry{}))
	text := workload.NewText(workload.TextConfig{Seed: 5, LinesPerSplit: 20, WordsPerLine: 12, Vocabulary: 4000, ZipfS: 1.1})
	measure := func(release bool) (bytes, consumed float64) {
		var freed atomic.Int64
		releaseTaskPayload = func(p mapreduce.Payload) {
			freed.Add(int64(len(p)) * entry)
			if release {
				mapreduce.ReleaseTaskPayload(p)
			}
		}
		defer func() { releaseTaskPayload = mapreduce.ReleaseTaskPayload }()
		rt, err := New(wordCountJob(), Config{Mode: Fixed, BucketSplits: bucket, WindowBuckets: 2, Parallelism: 1, Memo: testMemoConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Initial(text.Range(0, 2*bucket)); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := range slides + 2 {
			add := text.Range((2+i)*bucket, (3+i)*bucket)
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			freed0 := freed.Load()
			if _, err := rt.Advance(bucket, add); err != nil {
				t.Fatal(err)
			}
			if err := rt.Background(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i < 2 { // the warm-up fills the stock
				continue
			}
			total += after.TotalAlloc - before.TotalAlloc
			consumed += float64(freed.Load() - freed0)
		}
		return float64(total) / slides, consumed / slides
	}
	dropped, _ := measure(false)
	released, consumed := measure(true)
	t.Logf("a slide of two %d-split buckets: %.0f bytes with the folds' outputs released, %.0f dropped; the folds consumed %.0f bytes of entries", bucket, released, dropped, consumed)
	if consumed == 0 {
		t.Fatal("the folds of two ranges released nothing")
	}
	if released > dropped-consumed {
		t.Errorf("releasing saves %.0f bytes a slide, less than the %.0f the folds consumed", dropped-released, consumed)
	}
}
