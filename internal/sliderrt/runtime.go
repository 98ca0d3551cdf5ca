package sliderrt

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
)

// Payload aliases the contraction-phase payload type.
type Payload = mapreduce.Payload

// sized is the element the contraction trees hold: a payload with its
// byte size, computed once where the payload was created (map task,
// merge, checkpoint decode) and carried from then on. Everything a slide
// needs to know about sizes — SpaceBytes, task InputBytes, root-path
// state — is a sum over tree nodes, never a walk over their keys.
type sized = mapreduce.Sized

// RunResult is the outcome of one run (initial or incremental).
type RunResult struct {
	// Output is the job's final key→value output for the window. The map is
	// owned by the runtime, which keeps it and patches it on the next run:
	// it is valid until the runtime's next run, and a consumer that keeps a
	// window's output longer clones it (maps.Clone). It is the job's
	// product, not memoized state: SpaceBytes does not count it.
	Output mapreduce.Output
	// Changed lists the keys of Output this run rewrote or deleted — the
	// keys of the splits that left the window and of those that entered it,
	// a superset of the keys whose value differs from the previous run's (a
	// key whose dropped and added values cancel is listed). Rebuilt reports
	// instead that the run refilled the whole map — the initial run, the
	// first run after Restore or after a failed one, and any slide that
	// touches more than half of the window's entries — and leaves Changed
	// empty. Changed shares Output's lifetime.
	Changed []string
	Rebuilt bool
	// Report carries the foreground work and task list of the run.
	Report metrics.Report
	// Background carries the upkeep that ran since the previous result: the
	// work the previous run left for after its answer (Runtime.Background)
	// — split processing's pre-combine, the daba kind's flip —, its
	// tasks and the combiner calls its merges made. Empty when there was
	// none; the initial run's is always empty.
	Background metrics.Report
	// TreeStats is the contraction-tree work performed on the
	// foreground (critical) path of this run.
	TreeStats core.Stats
	// TreeStatsBackground is the contraction-tree work of the upkeep that
	// ran since the previous result, as Background.
	TreeStatsBackground core.Stats
	// SpaceBytes is the memoized state accounted resident when the result
	// is built — before the run's upkeep: the carried sizes of the payloads
	// the trees hold, plus the sizes of the memoization layer's entries
	// (cached map outputs, root-path state). The entries are accounted, not
	// stored — they hold no bytes.
	SpaceBytes int64
	// ReadTimeNs is the simulated time spent reading memoized state
	// during this run.
	ReadTimeNs int64
	// SlideID is the 1-based sequence number of this run (1 = initial),
	// the correlation key for span traces and tree snapshots.
	SlideID uint64
}

// Runtime drives one job over a sliding window. It is not safe for
// concurrent use; runs are sequential by design (each run's trees feed
// the next).
type Runtime struct {
	job     *mapreduce.Job
	cfg     Config
	backend Backend // resolved aggregation backend
	store   *memo.Store
	parts   int
	faults  *metrics.FaultRecorder
	// partKeys[p] is the memo key of partition p's root-path state and
	// partNodes[p] the machine holding it — constants of the runtime.
	partKeys  []string
	partNodes []int

	seq      uint64 // next split sequence number
	windowLo uint64 // sequence number of the oldest live split
	live     int    // live splits in the window
	runs     int64  // completed runs
	started  bool

	// combines[p] counts combiner invocations inside partition p's
	// merges; partitions update their own counter, so the contraction
	// phase can run partitions concurrently.
	combines []int64

	// aggs holds each partition's window aggregator — whichever structure
	// the backend resolved to, behind the one core.Aggregator contract.
	aggs []core.Aggregator[sized]
	// free[p] stocks the storage of the aggregates partition p's structure
	// released (core.Releaser), and of the elements that left its window, for
	// its next merges to be built in. What it holds is bounded and is not
	// memoized state: SpaceBytes leaves it out (RuntimeStats.FreeList has
	// it). handed is what the last run handed to the reduce: its roots, which
	// its upkeep ends the lifetime of, and its evicted elements, which go to
	// the free lists once the upkeep has run (recycle). own, when set,
	// receives the released payloads and the evicted elements instead, and
	// scans the roots (see Ownership).
	free   []mapreduce.FreeList
	own    *Ownership
	handed []partDelta

	// The upkeep a successful run leaves for after its answer (Background):
	// due until it has run; span is the run's slide span, which its
	// "background" span goes under. bg collects the upkeep's tasks and
	// combiner calls until the next result reports them, and sealed is the
	// tree work counted when the last result was built, so that the next
	// one reports whatever the trees did since as background.
	upkeepDue bool
	span      *metrics.Span
	bg        metrics.Recorder
	sealed    core.Stats
	// treeBytes[p] is the visitor that sums partition p's payload sizes.
	// The walk goes through the interface, where a closure built per call
	// escapes (two allocations per partition per slide), so each
	// partition's is built once.
	treeBytes []byteSum
	// spares counts the storage the structures hold back for merges not yet
	// due (core.Spares), through a visitor built once for the same reason.
	spares spareCount

	// Bucket ledger of a window whose elements are buckets (bucketed): splits
	// per live bucket in window order, oldest first — w each, of any number
	// for period buckets, narrower than w for an out-of-order window's late
	// ones — plus the in-order bucket clock (buckets ever appended at the
	// window edge; late inserts do not advance it). A drop is evicted in
	// whole buckets read off the ledger (evictElements). The clock drives the
	// effective watermark bucketSeq−AllowedLateness, and
	// places the daba kind's flips on restore (firstBucket).
	bucketSizes []int
	bucketSeq   uint64
	// adding is the widths of the buckets the current run forms from its
	// new splits, oldest first (bucketed windows; see formBuckets).
	adding []int
	// The map phase's ranges (cutRanges): the tasks of a run that forms
	// buckets, their widths in splits, and recs, the storage the records of a
	// range wider than one split are concatenated in. The phase empties all
	// three before it returns (dropRanges).
	tasks  []mapreduce.Split
	widths []int
	recs   []mapreduce.Record

	// broken is set when a slide failed after it had started moving the
	// window (see poison); every later slide is refused with it.
	broken error

	// out is the window's output as the last successful run left it, patched
	// by the next (see reduceAll); nil when there is none to patch — before
	// the initial run, after Restore, after a failed run. changed is the
	// storage of RunResult.Changed.
	out     mapreduce.Output
	changed []string

	// treeSnap is the immutable tree snapshot served to concurrent
	// readers (/debug/tree); snapReq asks the next slide's upkeep to
	// refresh it.
	treeSnap atomic.Pointer[TreeSnapshot]
	snapReq  atomic.Bool

	// gauges holds the concurrent-read-safe out-of-order window gauges
	// (see window_stats.go).
	gauges windowGauges

	// checkPositions: see CheckPositions.
	checkPositions bool
}

// New returns a runtime for the job under the given configuration.
func New(job *mapreduce.Job, cfg Config) (*Runtime, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	backend, err := cfg.resolveBackend(job)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		job:     job,
		cfg:     cfg,
		backend: backend,
		store:   memo.NewStore(cfg.Memo),
		parts:   job.NumPartitions(),
		faults:  &metrics.FaultRecorder{},
	}
	// The runtime counts its degradation events (local fallbacks, memo
	// recomputes) into its MapRunner's recorder when the runner has one (a
	// dist.Pool does), so the whole degradation ladder lands in one snapshot.
	if r, ok := cfg.MapRunner.(interface{ FaultRecorder() *metrics.FaultRecorder }); ok {
		rt.faults = r.FaultRecorder()
	}
	rt.treeBytes = make([]byteSum, rt.parts)
	rt.partKeys = make([]string, rt.parts)
	rt.partNodes = make([]int, rt.parts)
	rt.spares.add = func(s sized) {
		rt.spares.st.Buffers++
		rt.spares.st.Entries += cap(s.P)
	}
	for p := range rt.treeBytes {
		sum := &rt.treeBytes[p]
		sum.add = func(s sized) { sum.n += s.Bytes }
		rt.partKeys[p] = "part:" + strconv.Itoa(p)
		rt.partNodes[p] = rt.store.HomeNode(rt.partKeys[p])
	}
	if cfg.Obs != nil {
		rt.store.SetLatencyObservers(&cfg.Obs.MemoRead, &cfg.Obs.MemoWrite)
	}
	return rt, nil
}

// mergeFor returns a partition's merge function: it combines two payloads in
// window order — in storage taken from the partition's free list when that
// has a slice that fits, see MergeOrderedSizedInto —, sizes the result as it
// builds it, and counts combiner calls into counter. Both are the
// partition's own: contract runs partitions concurrently, and one
// partition's merges one at a time.
func (rt *Runtime) mergeFor(free *mapreduce.FreeList, counter *int64) core.MergeFunc[sized] {
	return func(a, b sized) sized {
		out, _ := rt.merge(free, counter, a, b, mapreduce.LocateNone, nil)
		return out
	}
}

// locatingMergeFor is mergeFor for a structure that records where its
// buckets' keys stand (core.Locating): the same merge, recording as well.
func (rt *Runtime) locatingMergeFor(free *mapreduce.FreeList, counter *int64) core.LocatingMerge[sized] {
	return func(a, b sized, flip bool, at []int32) (sized, []int32) {
		mode := mapreduce.LocateRightInResult
		if flip {
			mode = mapreduce.LocateLeftInRight
		}
		return rt.merge(free, counter, a, b, mode, at)
	}
}

// merge is the one two-way merge of mergeFor and locatingMergeFor.
func (rt *Runtime) merge(free *mapreduce.FreeList, counter *int64, a, b sized, mode mapreduce.Locate, at []int32) (sized, []int32) {
	dst := free.Get(max(len(a.P), len(b.P)), len(a.P)+len(b.P))
	out, c, at := mapreduce.MergeOrderedLocated(rt.job, dst, a, b, mode, at)
	*counter += c
	return out, at
}

// kmergeFor returns partition p's K-way merge function: it merges any
// number of payloads in a single pass in window order — in storage from p's
// free list, as mergeFor — and counts combiner calls into p's own counter.
func (rt *Runtime) kmergeFor(p int) core.KMergeFunc[sized] {
	free, counter := &rt.free[p], &rt.combines[p]
	return func(items []sized) sized {
		largest, total := 0, 0
		for _, it := range items {
			largest, total = max(largest, len(it.P)), total+len(it.P)
		}
		out, c := mapreduce.MergeOrderedKSizedInto(rt.job, free.Get(largest, total), items)
		*counter += c
		return out
	}
}

// foldPayloads merges payloads left to right into one using partition p's
// K-way merge — the fold-up of newly arrived splits into C′ for
// coalescing appends and rotating-bucket formation. These fold-ups are
// not memoized tree nodes, so they need not preserve binary fingerprints:
// they batch through MergeOrderedK, which builds one output payload — in
// the storage of an element that has left the window, once the window has
// slid (see recycle) — and issues one multi-argument Combine per key instead
// of len(ps)−1 intermediate payloads. A lone payload is handed through
// uncopied: payloads are immutable, and the memo entry of its map task holds
// no value, so the tree is its only holder.
//
// The payloads are map outputs (mapAdds) that nobody else holds, so the fold
// of two or more is where they die: their entry slices go to the task stock
// (mapreduce.ReleaseTaskPayload), which the next map outputs are decoded and
// cut into, or to the oracle when one watches. A lone one, the bucket
// itself, is never released.
func (rt *Runtime) foldPayloads(p int, ps []sized) sized {
	out, _ := core.ReduceOrderedK(rt.kmergeFor(p), ps)
	if len(ps) > 1 || rt.own.releasesLone() {
		for _, s := range ps {
			if rt.own != nil {
				rt.own.oracle.Release(s.P)
			} else {
				releaseTaskPayload(s.P)
			}
		}
	}
	return out
}

// releaseTaskPayload is where foldPayloads hands a consumed map output; a
// test that measures what the release saves swaps it.
var releaseTaskPayload = mapreduce.ReleaseTaskPayload

// mapAdds is a run's map phase: it runs map tasks for new splits with
// input locality, memoizes their outputs (charging the layer's write cost
// into each task), and returns the per-task results. A run that forms
// buckets (cut) maps each bucket in ranges of up to rangeSplits splits, one
// task and one result each (cutRanges); any other maps one task per split.
// A task is recorded once, at its measured cost, and its memo entry spans
// its splits' sequence numbers: a range never straddles a bucket, and
// buckets leave the window whole, so GC finds every entry whole in or out.
func (rt *Runtime) mapAdds(so *slideObs, splits []mapreduce.Split, rec *metrics.Recorder, cut bool) ([]mapreduce.MapResult, error) {
	ph := so.phase("map")
	base := rt.seq
	runner := rt.cfg.MapRunner
	if runner == nil {
		runner = mapreduce.Executor{Parallelism: rt.cfg.Parallelism}
	}
	tasks, widths := splits, []int(nil)
	if cut {
		tasks, widths = rt.cutRanges(splits)
		defer rt.dropRanges()
	}
	if ph.span != nil {
		ph.span.Event("map: tasks=%d splits=%d", len(tasks), len(splits))
	}
	results, err := runner.RunMap(rt.job, tasks)
	if err != nil {
		results, err = rt.salvageMap(tasks, err)
		if err != nil {
			return nil, err
		}
	}
	var counters metrics.Counters
	id := base
	for i, r := range results {
		n := uint64(1)
		if widths != nil {
			n = uint64(widths[i])
		}
		// The entry is the task's accounted size, placement and interval —
		// what the cost model and GC use. The payloads live on in the
		// contraction trees and nothing reads them back from here, so no
		// value is stored.
		bytes := r.Bytes()
		writeNs := rt.store.Put("map:"+r.SplitID, nil, bytes, id, id+n-1)
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseMap,
			Cost:          r.Cost + time.Duration(writeNs),
			InputBytes:    bytes,
			PreferredNode: int(id % uint64(rt.cfg.Memo.Nodes)),
		})
		counters.MapTasks++
		counters.MapRecords += r.Records
		counters.WriteTime += writeNs
		id += n
	}
	rec.Add(counters)
	rt.seq += uint64(len(splits))
	rt.live += len(splits)
	ph.end()
	return results, nil
}

// rangeSplits is the most splits one map task takes of a bucket (cutRanges).
// It is read from the table in DESIGN.md §9 (eighteenth revision): a wider
// range combines more of a bucket's repeated keys in its task, and leaves
// fewer payloads for the bucket fold to merge, but at 8 the eight-split
// bucket of a window shipped to two workers is one task, and one worker
// idles.
const rangeSplits = 4

// ranges returns how many ranges a bucket of n splits is mapped in.
func ranges(n int) int { return (n + rangeSplits - 1) / rangeSplits }

// cutRanges cuts the run's buckets (adding) into the map phase's tasks: a
// bucket of n splits into ranges(n) contiguous ranges of near-equal width,
// the wider first, and returns them with their widths. The cut reads the
// bucket widths and nothing else — not the parallelism, not the runner — so
// every counter and every payload is the same wherever the tasks run. A
// range is a Split: a one-split range is the split itself, a wider one is
// named for its first split and holds its splits' records in split order,
// copied into recs, so its task combines what the splits share and sorts
// once. A window of one-split buckets copies nothing: its splits are the
// tasks, and widths is nil.
func (rt *Runtime) cutRanges(splits []mapreduce.Split) ([]mapreduce.Split, []int) {
	if !slices.ContainsFunc(rt.adding, func(n int) bool { return n > 1 }) {
		return splits, nil
	}
	// Grown once: a range's records must not move when the next one's are
	// appended.
	copies := 0
	for _, s := range splits {
		copies += len(s.Records)
	}
	recs := slices.Grow(rt.recs[:0], copies)
	tasks, widths := rt.tasks[:0], rt.widths[:0]
	for _, n := range rt.adding {
		m := ranges(n)
		for j := range m {
			w := n / m
			if j < n%m {
				w++
			}
			r := splits[:w]
			splits = splits[w:]
			widths = append(widths, w)
			if w == 1 {
				tasks = append(tasks, r[0])
				continue
			}
			start := len(recs)
			for _, s := range r {
				recs = append(recs, s.Records...)
			}
			tasks = append(tasks, mapreduce.Split{ID: r[0].ID, Records: recs[start:len(recs):len(recs)]})
		}
	}
	rt.tasks, rt.widths, rt.recs = tasks, widths, recs
	return tasks, widths
}

// dropRanges empties the map phase's ranges once every task has run — the
// local re-runs of salvageMap included — so that the runtime keeps no split
// and no record past the call (Initial's contract). The initial run's are
// the first window's size: they are let go rather than kept for the slides.
func (rt *Runtime) dropRanges() {
	clear(rt.tasks)
	clear(rt.recs)
	if !rt.started {
		rt.tasks, rt.widths, rt.recs = nil, nil, nil
		return
	}
	rt.tasks, rt.widths, rt.recs = rt.tasks[:0], rt.widths[:0], rt.recs[:0]
}

// partialResult is the carrier interface a failing MapRunner may
// implement (dist's IncompleteError does) to hand back the splits that
// did complete before it gave up. Declared here so sliderrt stays
// independent of the dist package.
type partialResult interface {
	Completed() ([]mapreduce.MapResult, []bool)
}

// salvageMap is the local-fallback rung of the degradation ladder: when
// the remote MapRunner cannot finish a batch — all workers dead or the
// retry budget exhausted, signalled by an error carrying partial results
// — the missing splits are re-executed in-process instead of failing the
// slide. Map tasks are deterministic and side-effect-free, so mixing
// remote and local results is safe; splits the pool did complete are
// kept as-is, never recomputed or double-counted. Errors that carry no
// partial results (bad job, map-function failure) are not retryable and
// pass through.
func (rt *Runtime) salvageMap(splits []mapreduce.Split, runErr error) ([]mapreduce.MapResult, error) {
	var pr partialResult
	if !errors.As(runErr, &pr) {
		return nil, runErr
	}
	rt.faults.LocalFallbacks.Add(1)
	results := make([]mapreduce.MapResult, len(splits))
	missing := make([]mapreduce.Split, 0, len(splits))
	missingIdx := make([]int, 0, len(splits))
	got, done := pr.Completed()
	for i := range splits {
		if i < len(done) && done[i] {
			results[i] = got[i]
		} else {
			missing = append(missing, splits[i])
			missingIdx = append(missingIdx, i)
		}
	}
	local := mapreduce.Executor{Parallelism: rt.cfg.Parallelism}
	fallback, err := local.RunMap(rt.job, missing)
	if err != nil {
		return nil, err
	}
	for k, i := range missingIdx {
		results[i] = fallback[k]
	}
	return results, nil
}

// Initial performs the initial run over the first window (§3: all input
// data items are new; the contraction trees are built from scratch). A
// Fixed window's splits form its WindowBuckets buckets of w splits each
// (InitialBuckets); a window of period buckets (BucketSplits 0) starts with
// InitialBuckets instead, which learns their widths.
//
// The runtime reads the splits only while the call runs — its MapRunner
// returns them by the same rule — and keeps no split and no Records slice.
// So the splits are the caller's again once Initial returns, whatever it
// returns, and their storage may be reused (stream lends each split a slice
// of its buffer on that rule).
func (rt *Runtime) Initial(splits []mapreduce.Split) (*RunResult, error) {
	var sizes []int
	if rt.cfg.Mode == Fixed && rt.cfg.BucketSplits > 0 {
		sizes = make([]int, rt.cfg.WindowBuckets)
		for i := range sizes {
			sizes[i] = rt.cfg.BucketSplits
		}
	}
	return rt.InitialBuckets(sizes, splits)
}

// InitialBuckets is Initial told how many of the splits each of a Fixed
// window's WindowBuckets buckets holds, oldest first: w each, or any number
// — none included — for a window of period buckets. Append and Variable
// windows keep no buckets and take nil. The splits are the caller's again
// once it returns, as with Initial.
func (rt *Runtime) InitialBuckets(sizes []int, splits []mapreduce.Split) (*RunResult, error) {
	if rt.started {
		return nil, ErrReinitialize
	}
	if err := rt.checkInitial(sizes, len(splits)); err != nil {
		return nil, err
	}
	rt.adding = append(rt.adding[:0], sizes...)
	return rt.run(initialRun, 0, splits, func(p int, payloads []sized) (partDelta, error) {
		return partDelta{}, rt.aggs[p].Init(rt.elements(p, payloads))
	}, func() {
		rt.installAggregators()
		if rt.bucketed() {
			rt.bucketSizes = slices.Clone(sizes)
			rt.bucketSeq = uint64(len(sizes))
		}
	})
}

// checkInitial holds a first window's bucket widths to the mode: a Fixed
// window's WindowBuckets buckets of w splits each — or of any width, for
// period buckets — that hold the splits; no buckets in the other modes. A
// first window holds a split.
func (rt *Runtime) checkInitial(sizes []int, splits int) error {
	w := rt.cfg.BucketSplits
	switch {
	case rt.cfg.Mode != Fixed && sizes != nil:
		return fmt.Errorf("%w: %v windows keep no buckets", ErrBadAdvance, rt.cfg.Mode)
	case rt.cfg.Mode == Fixed && len(sizes) != rt.cfg.WindowBuckets:
		return fmt.Errorf("%w: Fixed initial window needs %d buckets, got %d", ErrBadAdvance, rt.cfg.WindowBuckets, len(sizes))
	}
	sum := 0
	for _, sz := range sizes {
		if sz < 0 || w > 0 && sz != w {
			return fmt.Errorf("%w: a bucket of %d splits in a window of buckets of %d", ErrBadAdvance, sz, w)
		}
		sum += sz
	}
	switch {
	case sizes != nil && sum != splits:
		return fmt.Errorf("%w: Fixed initial window needs %d splits, got %d", ErrBadAdvance, sum, splits)
	case splits == 0:
		return fmt.Errorf("%w: initial window is empty", ErrBadAdvance)
	}
	return nil
}

// Advance performs an incremental run: drop oldest splits, add new ones.
//
//   - Append mode: drop must be 0.
//   - Fixed mode: drop must equal len(add), both a positive multiple of
//     the bucket width w. With period buckets (BucketSplits 0) add is one
//     bucket of any number of splits, none included, and drop is the
//     number of splits of the oldest bucket, which leaves.
//   - Variable mode: any combination.
//
// As with Initial, the splits are the caller's again once Advance returns,
// whatever it returns.
func (rt *Runtime) Advance(drop int, add []mapreduce.Split) (*RunResult, error) {
	if !rt.started {
		return nil, ErrNotInitial
	}
	if rt.broken != nil {
		return nil, rt.broken
	}
	if err := rt.checkAdvance(drop, len(add)); err != nil {
		return nil, err
	}
	evict, err := rt.evictElements(drop)
	if err != nil {
		return nil, err
	}
	rt.addBuckets(len(add))
	return rt.run(advanceRun, drop, add, func(p int, payloads []sized) (partDelta, error) {
		added := rt.elements(p, payloads)
		evicted, err := rt.aggs[p].Slide(evict, added)
		return partDelta{evicted: evicted, added: added}, err
	}, func() {
		rt.windowLo += uint64(drop)
		rt.live -= drop
		if rt.bucketed() {
			rt.bucketSizes = append(append(rt.bucketSizes[:0], rt.bucketSizes[evict:]...), rt.adding...)
			rt.bucketSeq += uint64(len(rt.adding))
		}
	})
}

// addBuckets sets adding to the buckets a slide forms from n new splits:
// one of all of them for period buckets, n/w of w otherwise, none when the
// window's elements are not buckets.
func (rt *Runtime) addBuckets(n int) {
	rt.adding = rt.adding[:0]
	switch {
	case !rt.bucketed():
	case rt.periods():
		rt.adding = append(rt.adding, n)
	default:
		for range n / rt.cfg.BucketSplits {
			rt.adding = append(rt.adding, rt.cfg.BucketSplits)
		}
	}
}

// AdvanceLate lands late-arriving splits in the window without sliding
// it: the records form one new bucket inserted `lateness` buckets
// behind the newest live bucket (lateness 0 appends at the window's
// newest edge, lateness len(buckets) at its oldest), and only the
// affected root path of each partition's finger tree is re-contracted —
// O(log w) combines, not a rebuild. Requires the finger-tree backend
// (Config.AllowedLateness routes selection there); arrivals behind the
// effective watermark bucketSeq−AllowedLateness — later than
// AllowedLateness buckets — are refused with ErrTooLate, and the window
// is left untouched.
func (rt *Runtime) AdvanceLate(lateness int, late []mapreduce.Split) (*RunResult, error) {
	if !rt.started {
		return nil, ErrNotInitial
	}
	if rt.broken != nil {
		return nil, rt.broken
	}
	if !rt.outOfOrder() {
		return nil, fmt.Errorf("%w: late arrivals require the finger-tree backend (set Config.AllowedLateness)", ErrBadBackend)
	}
	if len(late) == 0 {
		return nil, fmt.Errorf("%w: late advance of zero splits", ErrBadAdvance)
	}
	if lateness < 0 || lateness > len(rt.bucketSizes) {
		return nil, fmt.Errorf("%w: lateness=%d with %d live buckets", ErrBadAdvance, lateness, len(rt.bucketSizes))
	}
	if lateness > rt.cfg.AllowedLateness {
		rt.gauges.lateRejects.Add(1)
		return nil, fmt.Errorf("%w: lateness %d exceeds AllowedLateness %d", ErrTooLate, lateness, rt.cfg.AllowedLateness)
	}
	pos := len(rt.bucketSizes) - lateness
	return rt.run(lateRun, lateness, late, func(p int, payloads []sized) (partDelta, error) {
		bucket := rt.foldPayloads(p, payloads)
		return partDelta{added: []sized{bucket}}, rt.aggs[p].(core.OutOfOrder[sized]).InsertAt(pos, bucket)
	}, func() {
		// The late bucket joins the window's bucket ledger at its position;
		// the in-order bucket clock does not advance, so the watermark holds.
		rt.bucketSizes = append(rt.bucketSizes, 0)
		copy(rt.bucketSizes[pos+1:], rt.bucketSizes[pos:])
		rt.bucketSizes[pos] = len(late)
		rt.gauges.lateAccepts.Add(1)
	})
}

// runKind is what the run skeleton knows about a kind of run besides its
// two hooks.
type runKind struct {
	label   string // the slide span's label
	event   string // format of the span's opening event over (arg, len(splits)); "" for none
	gc      bool   // splits may have left the window: collect their memo entries after the run
	buckets bool   // the run forms the buckets of adding (formBuckets) when the window's elements are buckets
}

var (
	initialRun = runKind{label: "initial", buckets: true}
	advanceRun = runKind{label: "advance", event: "slide: drop=%d add=%d", gc: true, buckets: true}
	lateRun    = runKind{label: "late", event: "late: lateness=%d add=%d"}
)

// run is the one skeleton under Initial, Advance and AdvanceLate — the
// paper's Algorithm 1: run the previous run's upkeep if nobody has, map the
// new splits, push them through every partition's aggregator, reduce the
// roots, collect what fell out of the window — and leave this run's upkeep
// for after its answer (Background). The caller has validated the request;
// what differs between the kinds of run is kind and two hooks.
//
// moved does the window's bookkeeping — split cursors, the out-of-order
// bucket ledger, for the initial run the aggregators themselves. It runs
// once the map phase has succeeded: a failure up to there leaves the window
// untouched, contraction reads the cursors it sets (putPartState memoizes
// over [windowLo, seq)), and from there on a failure poisons a started
// window, so a half-moved one is never used again. apply then updates
// partition p's aggregator from the run's per-task payloads (one per split,
// or one per range of a bucket, see mapAdds), concurrently
// across partitions, and returns the elements that left and entered the
// partition's window (none for the initial run, which reduces everything).
//
// The retained output is taken out of the runtime for the run's duration and
// put back by the run that succeeds: whatever way a run fails, the next one
// finds none and reduces in full.
func (rt *Runtime) run(kind runKind, arg int, splits []mapreduce.Split, apply applyFunc, moved func()) (*RunResult, error) {
	if err := rt.Background(); err != nil {
		return nil, err
	}
	out := rt.out
	rt.out = nil
	rec := metrics.NewRecorder()
	rt.store.ResetReadStats()
	so := rt.beginSlide(kind.label)
	defer so.abort()
	if kind.event != "" {
		so.span.Event(kind.event, arg, len(splits))
	}

	results, err := rt.mapAdds(&so, splits, rec, kind.buckets && rt.bucketed())
	if err != nil {
		return nil, err
	}
	moved()
	statsBefore := rt.treeStats()
	parts, err := rt.contract(&so, rec, results, apply)
	if err != nil {
		return nil, rt.poison(err)
	}
	if rt.own.recyclesEarly() {
		rt.recycle(parts)
	}
	out, rebuilt := rt.reduceAll(&so, rec, parts, out)
	if kind.gc {
		rt.store.GC(rt.windowLo)
		if rt.cfg.GCPolicy != nil {
			rt.store.GCFunc(rt.cfg.GCPolicy)
		}
	}
	rt.started = true
	rt.out = out
	res := rt.finish(rebuilt, rec, statsBefore)
	rt.upkeepDue, rt.span, rt.handed = true, so.span, parts
	so.finish(res)
	return res, nil
}

// Background runs the upkeep the last run left for after its answer: on
// every partition, the work its structure does only for the next slide —
// split processing's install and pre-combine, the daba kind's flip, which
// no query needs. It runs under a "background" span of the run's slide, and
// what it did is reported by the next run's result (RunResult.Background,
// TreeStatsBackground). Then the elements the run evicted go to their
// partitions' free lists — nothing reads them once the upkeep has run: a
// split-processing victim stays in its leaf until then — and it publishes
// the run's tree snapshot, when one was requested, of the state the upkeep
// left, and the window gauges. A caller that answers first
// calls it once the answer is out; one that does not leaves it to the next
// Initial, Advance, AdvanceLate, Checkpoint or StateFingerprint, which run it
// first. It does nothing when there is nothing to do. A failure names the
// partition (the partitions after it have not run) and makes the window
// unusable, as a failed slide does.
func (rt *Runtime) Background() error {
	if !rt.upkeepDue {
		return nil
	}
	rt.upkeepDue = false
	span := rt.span.Child("background")
	defer span.End()
	rt.span = nil
	var combines int64
	for p, agg := range rt.aggs {
		start := time.Now()
		ran, err := agg.Background()
		if err != nil {
			return rt.poison(fmt.Errorf("sliderrt: background step of partition %d: %w", p, err))
		}
		if ran {
			rt.bg.RecordTask(metrics.Task{
				Phase:         metrics.PhaseContraction,
				Cost:          time.Since(start),
				PreferredNode: rt.partNodes[p],
			})
		}
		combines += rt.combines[p]
		rt.combines[p] = 0
	}
	rt.bg.Add(metrics.Counters{CombineCalls: combines})
	if rt.own != nil {
		rt.own.scanHanded(rt.handed)
	}
	if !rt.own.recyclesEarly() {
		rt.recycle(rt.handed)
	}
	rt.handed = nil
	rt.publishTreeSnapshot()
	rt.publishWindowGauges()
	return nil
}

// recycle hands the elements a run evicted to their partitions' free lists,
// or to the oracle when one watches. The runtime built them — a bucket fold
// or a map task, whose payloads nobody else holds — and no structure releases
// an element (core.Releaser), so this is the one place they die.
func (rt *Runtime) recycle(parts []partDelta) {
	for p, part := range parts {
		for _, e := range part.evicted {
			if rt.own != nil {
				rt.own.oracle.Release(e.P)
			} else {
				rt.free[p].Put(e.P)
			}
		}
	}
}

// poison marks a started window unusable: a slide failed in its contraction
// or background phase, so some partitions' aggregators have moved and others
// have not, and nothing computed from them can be trusted again. A failed
// initial run has no window to lose: it hands the error through and may be
// retried.
func (rt *Runtime) poison(err error) error {
	if !rt.started {
		return err
	}
	rt.broken = fmt.Errorf("sliderrt: window unusable after a failed slide: %w", err)
	return rt.broken
}

// outOfOrder reports whether the window's aggregators can take elements
// mid-window (core.OutOfOrder), so that its buckets vary in width.
func (rt *Runtime) outOfOrder() bool {
	if len(rt.aggs) == 0 {
		return false
	}
	_, ok := rt.aggs[0].(core.OutOfOrder[sized])
	return ok
}

// periods reports whether the window is one of period buckets: a Fixed
// window whose bucket is whatever one run adds (BucketSplits 0).
func (rt *Runtime) periods() bool { return rt.cfg.Mode == Fixed && rt.cfg.BucketSplits == 0 }

// bucketed reports whether the aggregators' elements are buckets (the
// Fixed-mode structures), which the bucket ledger describes, rather than
// splits (the strawman).
func (rt *Runtime) bucketed() bool {
	return rt.cfg.Mode == Fixed && rt.backend != BackendStrawman
}

// elements turns partition p's per-task payloads into what its
// aggregator's leaves hold — the one place the window mode shows: one
// pre-folded C′ per run for append-only windows, the run's buckets for
// fixed-width ones (formBuckets, from the ranges the buckets were mapped
// in), the splits themselves otherwise (and always for the strawman, which
// memoizes per split).
func (rt *Runtime) elements(p int, payloads []sized) []sized {
	switch {
	case rt.bucketed():
		return rt.formBuckets(p, payloads)
	case rt.backend == BackendCoalescing:
		return []sized{rt.foldPayloads(p, payloads)}
	}
	return payloads
}

// evictElements converts a drop in splits into aggregator elements: the
// splits themselves, or the oldest buckets of the ledger.
func (rt *Runtime) evictElements(drop int) (int, error) {
	switch {
	case !rt.bucketed():
		return drop, nil
	case rt.periods():
		// One bucket leaves a window of period buckets: the oldest.
		if drop != rt.bucketSizes[0] {
			return 0, fmt.Errorf("%w: drop=%d, the oldest bucket holds %d splits", ErrBadAdvance, drop, rt.bucketSizes[0])
		}
		return 1, nil
	}
	return rt.evictBucketCount(drop)
}

// evictBucketCount maps a drop expressed in splits onto the bucket
// ledger: the number of whole oldest buckets whose sizes sum to exactly
// drop. A drop that cuts a bucket in half is ErrBadAdvance — buckets
// are the eviction unit.
func (rt *Runtime) evictBucketCount(drop int) (int, error) {
	n, sum := 0, 0
	for _, sz := range rt.bucketSizes {
		if sum >= drop {
			break
		}
		sum += sz
		n++
	}
	if sum != drop {
		return 0, fmt.Errorf("%w: drop=%d does not align with whole window buckets", ErrBadAdvance, drop)
	}
	return n, nil
}

// applyFunc is the hook of a kind of run that updates one partition's
// aggregator, see run. It leaves the result's roots to contract.
type applyFunc func(p int, payloads []sized) (partDelta, error)

// partDelta is what the contraction phase hands the reduce for one
// partition: the roots of the window as it now stands, and the elements that
// left and entered it since the retained output was written — theirs are the
// only keys whose value can have changed —, with where their keys stand in
// the roots when the structure recorded it (core.Locating). evicted and at
// are the aggregator's own storage, valid until its next slide.
type partDelta struct {
	roots, evicted, added []sized
	at                    mapreduce.Located
}

// CheckPositions makes every later run hold each position its structures
// recorded (core.Locating) to the key it was recorded for, before the reduce
// reads it, and fail — poisoning the window, as any failed contraction does —
// at the first that does not hold. It is the simulation harness's hook: the
// reduce trusts a position without comparing keys, so a wrong one would read
// another key's value silently. It walks every moved entry; nothing else sets
// it.
func (rt *Runtime) CheckPositions() { rt.checkPositions = true }

// checkLocated holds a partition's recorded positions to its roots, see
// mapreduce.Located: every evicted key where its position in the first root
// says, every added key where its position in the last root says.
func checkLocated(part partDelta) error {
	check := func(what string, moved []sized, at []int32, root sized) error {
		if at == nil {
			return nil
		}
		if len(moved) != 1 {
			return fmt.Errorf("positions recorded for %d %s payloads", len(moved), what)
		}
		if len(at) != len(moved[0].P) {
			return fmt.Errorf("%d positions recorded for %d %s entries", len(at), len(moved[0].P), what)
		}
		p := root.P
		for i, e := range moved[0].P {
			var ok bool
			if k := int(at[i]); k >= 0 {
				ok = k < len(p) && p[k].Key == e.Key
			} else {
				k = -k - 1 // the insertion point: between the keys either side
				ok = k <= len(p) && (k == 0 || p[k-1].Key < e.Key) && (k == len(p) || e.Key < p[k].Key)
			}
			if !ok {
				return fmt.Errorf("%s key %q recorded at %d of a root of %d entries, which does not hold it there", what, e.Key, at[i], len(p))
			}
		}
		return nil
	}
	if len(part.roots) == 0 {
		if part.at.Evicted != nil || part.at.Added != nil {
			return fmt.Errorf("positions recorded with no root")
		}
		return nil
	}
	if err := check("evicted", part.evicted, part.at.Evicted, part.roots[0]); err != nil {
		return err
	}
	return check("added", part.added, part.at.Added, part.roots[len(part.roots)-1])
}

// contract is a run's contraction phase, the same for every kind of run:
// apply updates partition p's aggregator from the run's new per-task
// payloads, and the phase reads back what the reduce will consume, charges
// the memoization layer and records the task.
func (rt *Runtime) contract(so *slideObs, rec *metrics.Recorder, results []mapreduce.MapResult, apply applyFunc) ([]partDelta, error) {
	ph := so.phase("contract")
	parts := make([]partDelta, rt.parts)
	if err := mapreduce.ForEach(rt.cfg.Parallelism, rt.parts, func(p int) error {
		start := time.Now()
		ps := partitionSpan(ph.span, p)
		treeBefore := rt.aggs[p].Stats()
		part, err := apply(p, rt.partPayloads(results, p))
		if err != nil {
			return err
		}
		roots := rt.aggs[p].Roots()
		part.roots = roots
		if l, ok := rt.aggs[p].(core.Locating[sized]); ok {
			part.at.Evicted, part.at.Added = l.Located()
			if rt.checkPositions {
				if err := checkLocated(part); err != nil {
					return fmt.Errorf("sliderrt: partition %d: %w", p, err)
				}
			}
		}
		parts[p] = part
		elapsed := time.Since(start)
		var writeNs int64
		if !rt.started {
			// The initial run materializes every tree node into the
			// memoization layer — the paper's Figure 13 overhead — and
			// registers the root-path entry every later slide reads back.
			writeNs = rt.store.ChargeWrite(rt.partitionTreeBytes(p))
		} else {
			// Read last run's memoized root-path state, then rewrite the
			// recomputed nodes: one new root for append-only windows,
			// roughly twice the root payload for a log-depth path. An
			// unreadable entry — every replica down, or evicted — makes
			// chargeStateRead degrade to recomputation instead of failing
			// the slide.
			rt.chargeStateRead(p, roots)
		}
		writeNs += rt.putPartState(p, roots)
		rt.recordContraction(rec, p, elapsed+time.Duration(writeNs), roots)
		rt.endPartitionSpan(ps, p, treeBefore)
		return nil
	}); err != nil {
		return nil, err
	}
	ph.end()
	return parts, nil
}

// statsDelta returns after − before.
func statsDelta(before, after core.Stats) core.Stats {
	return core.Stats{
		Merges:          after.Merges - before.Merges,
		NodesRecomputed: after.NodesRecomputed - before.NodesRecomputed,
		NodesReused:     after.NodesReused - before.NodesReused,
	}
}

// reduceAll is a run's reduce phase: the final Reduce per partition, timed
// as reduce tasks. Partitions are key-disjoint, so every partition reduces
// straight into the one output map — out, the previous run's, when there is
// one. The only keys whose value can differ from the previous window's are
// those of the elements that left and entered, so the run patches them
// (mapreduce.ReduceDelta) and leaves the rest of the map alone: an untouched
// key keeps the value an earlier run reduced from an equally valid grouping
// of the same values (the same bits for an exactly associative combiner).
// When patching would not pay — the touched elements hold more than half as
// many entries as the roots (DESIGN.md §9 has the measurement), or there is
// no previous output — the map is emptied and every key reduced, as the
// initial run does; rebuilt reports that. The choice reads payload lengths
// and nothing else, so it is the same at any parallelism.
func (rt *Runtime) reduceAll(so *slideObs, rec *metrics.Recorder, parts []partDelta, out mapreduce.Output) (_ mapreduce.Output, rebuilt bool) {
	ph := so.phase("reduce")
	// keys is what a full pass walks, distinct what it yields at least: a
	// partition's roots may share keys (the daba kind's halves do).
	keys, distinct, touched := 0, 0, 0
	for _, part := range parts {
		largest := 0
		for _, r := range part.roots {
			keys += len(r.P)
			largest = max(largest, len(r.P))
		}
		distinct += largest
		for _, e := range part.evicted {
			touched += len(e.P)
		}
		for _, e := range part.added {
			touched += len(e.P)
		}
	}
	// Strings of the last run's list may be cut from payloads now gone.
	clear(rt.changed)
	rt.changed = rt.changed[:0]
	switch {
	case out == nil:
		out, rebuilt = make(mapreduce.Output, distinct), true
	case 2*touched > keys:
		clear(out)
		rebuilt = true
	}
	var lookups, seeks int64
	for p, part := range parts {
		start := time.Now()
		var d mapreduce.DeltaCounts
		if rebuilt {
			d.Calls = mapreduce.ReduceInto(rt.job, part.roots, out)
		} else {
			rt.changed, d = mapreduce.ReduceDelta(rt.job, part.evicted, part.added, part.at, part.roots, out, rt.changed)
		}
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseReduce,
			Cost:          time.Since(start),
			InputBytes:    sumBytes(part.roots),
			PreferredNode: rt.partNodes[p],
		})
		rec.Add(metrics.Counters{ReduceCalls: d.Calls, RootLookups: d.Lookups, RootSeeks: d.Seeks})
		lookups, seeks = lookups+d.Lookups, seeks+d.Seeks
	}
	if ph.span != nil {
		ph.span.Event("reduce: root lookups=%d sought=%d", lookups, seeks)
	}
	ph.end()
	return out, rebuilt
}

// sumBytes adds up the carried sizes of a list of payloads.
func sumBytes(ps []sized) int64 {
	var bytes int64
	for _, s := range ps {
		bytes += s.Bytes
	}
	return bytes
}

// recordContraction records one contraction task, transferring the
// partition's merge counter into the recorder.
func (rt *Runtime) recordContraction(rec *metrics.Recorder, p int, cost time.Duration, roots []sized) {
	rec.RecordTask(metrics.Task{
		Phase:         metrics.PhaseContraction,
		Cost:          cost,
		InputBytes:    sumBytes(roots),
		PreferredNode: rt.partNodes[p],
	})
	rec.Add(metrics.Counters{CombineCalls: rt.combines[p]})
	rt.combines[p] = 0
}

// rootPathBytes estimates the memoized root-path state a partition's
// update reads and rewrites: one root payload for append-only windows —
// root ∪ C′ is the next root, so several roots add up —, roughly twice the
// root payload for a log-depth path. A sliding window's several roots are
// the daba kind's halves, which overlap in every key both hold and whose merge
// is stored nowhere: the largest stands for the root (DESIGN.md §9).
func (rt *Runtime) rootPathBytes(roots []sized) int64 {
	if rt.cfg.Mode == Append {
		return sumBytes(roots)
	}
	var largest int64
	for _, r := range roots {
		largest = max(largest, r.Bytes)
	}
	return 2 * largest
}

// putPartState memoizes partition p's root-path state under its memo key,
// placed on the partition's home node with the configured replicas:
// an entry of the root-path estimate's size over the window's interval,
// with no value — the state itself is the partition's tree, and a restart
// restores it from a checkpoint. Every subsequent slide reads the entry
// back through chargeStateRead, so node failures and GC evictions exercise
// the recompute path. Returns the simulated write time.
func (rt *Runtime) putPartState(p int, roots []sized) int64 {
	bytes := rt.rootPathBytes(roots)
	if bytes == 0 {
		return 0
	}
	return rt.store.Put(rt.partKeys[p], nil, bytes, rt.windowLo, rt.seq)
}

// chargeStateRead reads partition p's memoized root-path state through
// the shim I/O layer (Table 2's read-time accounting). When the entry is
// unreadable — its home node and every replica failed
// (memo.ErrUnavailable), or it was garbage-collected (memo.ErrNotFound)
// — the update degrades to recomputation: the contraction trees hold the
// state in memory, so the slide still succeeds; the re-materialization
// is charged to the cost model and the event counted.
func (rt *Runtime) chargeStateRead(p int, roots []sized) {
	bytes := rt.rootPathBytes(roots)
	if bytes == 0 {
		return
	}
	if _, err := rt.store.Get(rt.partKeys[p], rt.partNodes[p]); err != nil {
		rt.faults.MemoRecomputes.Add(1)
		rt.store.ChargeWrite(bytes)
	}
}

// checkAdvance validates the slide shape against the mode.
func (rt *Runtime) checkAdvance(drop, add int) error {
	switch rt.cfg.Mode {
	case Append:
		if drop != 0 {
			return fmt.Errorf("%w: append-only windows cannot drop (drop=%d)", ErrBadAdvance, drop)
		}
		if add == 0 {
			return fmt.Errorf("%w: append of zero splits", ErrBadAdvance)
		}
	case Fixed:
		// A drop is held to whole oldest buckets of the ledger when they are
		// evicted (evictElements); the width w validates what is added.
		w := rt.cfg.BucketSplits
		switch {
		case rt.backend == BackendStrawman:
			if drop != add {
				return fmt.Errorf("%w: fixed-width windows need drop == add (got %d, %d)", ErrBadAdvance, drop, add)
			}
		case w == 0:
			// Any add is one period's bucket.
		case add%w != 0:
			return fmt.Errorf("%w: adds arrive in whole buckets of w (w=%d, got add=%d)", ErrBadAdvance, w, add)
		case rt.outOfOrder():
			// The out-of-order window may drift: bulk evictions and bulk
			// insertions need not balance.
			if drop == 0 && add == 0 {
				return fmt.Errorf("%w: empty advance", ErrBadAdvance)
			}
		case drop != add || add == 0:
			return fmt.Errorf("%w: fixed-width slides need drop == add > 0 (got drop=%d add=%d)", ErrBadAdvance, drop, add)
		}
	case Variable:
		if drop < 0 || drop > rt.live {
			return fmt.Errorf("%w: drop=%d with %d live splits", ErrBadAdvance, drop, rt.live)
		}
	}
	return nil
}

// formBuckets folds partition p's per-range payloads into the run's
// buckets, one per entry of adding in order, each from its ranges(n) ranges
// (cutRanges) — a bucket of one range is that range's payload, one of no
// splits the empty payload.
func (rt *Runtime) formBuckets(p int, payloads []sized) []sized {
	buckets := make([]sized, 0, len(rt.adding))
	for _, n := range rt.adding {
		m := ranges(n)
		buckets = append(buckets, rt.foldPayloads(p, payloads[:m]))
		payloads = payloads[m:]
	}
	return buckets
}

// installAggregators instantiates one aggregator of the resolved backend per
// partition, each wired to its own combine counter and its own free list,
// in place of whatever the runtime had (Initial, Restore). A recycle the
// replaced window left pending is dropped with it.
func (rt *Runtime) installAggregators() {
	opts := core.Options{
		Width:         rt.cfg.WindowBuckets,
		Split:         rt.cfg.SplitProcessing,
		RebuildFactor: rt.cfg.RebuildFactor,
	}
	rt.combines = make([]int64, rt.parts)
	rt.free = make([]mapreduce.FreeList, rt.parts)
	rt.aggs = make([]core.Aggregator[sized], rt.parts)
	rt.handed = nil
	for p := range rt.aggs {
		opts.Seed = rt.cfg.Seed + uint64(p) + 1
		list := &rt.free[p]
		rt.aggs[p] = core.NewAggregator(rt.backend, rt.mergeFor(list, &rt.combines[p]), opts)
		// A structure that can say where its buckets' keys stand in its roots
		// does, and the reduce reads them there instead of seeking them.
		if l, ok := rt.aggs[p].(core.Locating[sized]); ok {
			l.LocateWith(rt.locatingMergeFor(list, &rt.combines[p]), func(s sized) int { return len(s.P) })
		}
		// A structure that knows when an aggregate it merged dies says so, and
		// the partition's next merge is built in what the dead one left.
		if r, ok := rt.aggs[p].(core.Releaser[sized]); ok {
			r.OnRelease(func(s sized) {
				if rt.own != nil {
					rt.own.oracle.Release(s.P)
				} else {
					list.Put(s.P)
				}
			})
		}
	}
}

// partitionTreeBytes sums the carried sizes of the payloads partition
// p's tree materializes: one addition per node.
func (rt *Runtime) partitionTreeBytes(p int) int64 {
	sum := &rt.treeBytes[p]
	sum.n = 0
	rt.aggs[p].ForEachPayload(sum.add)
	return sum.n
}

// byteSum accumulates carried payload sizes through its add visitor.
type byteSum struct {
	n   int64
	add func(sized)
}

// spareCount accumulates held-back storage through its add visitor.
type spareCount struct {
	st  mapreduce.FreeListStats
	add func(sized)
}

// ForEachPayload calls fn for every payload the contraction trees hold,
// partition by partition. It exists for diagnostics and for the test
// oracle that re-measures SpaceBytes from scratch with
// mapreduce.PayloadBytes; the runtime itself never walks payload keys to
// size them. It visits what the trees hold now — before the last run's
// upkeep, if that has not run. Payloads are the trees' own: they must not be
// mutated, nor kept beyond the next Background or run, which may rebuild
// them in place.
func (rt *Runtime) ForEachPayload(fn func(Payload)) {
	for _, agg := range rt.aggs {
		agg.ForEachPayload(func(s sized) { fn(s.P) })
	}
}

// treeStats sums the work counters across all partitions' trees.
func (rt *Runtime) treeStats() core.Stats {
	var total core.Stats
	for _, agg := range rt.aggs {
		s := agg.Stats()
		total.Merges += s.Merges
		total.NodesRecomputed += s.NodesRecomputed
		total.NodesReused += s.NodesReused
	}
	return total
}

// spaceBytes sums all memoized state: tree payloads plus the accounted
// sizes of the memo entries. Tree payloads carry their sizes from where
// they were created (see sized), so this is one addition per tree node. It
// used to re-walk every key of every payload with mapreduce.PayloadBytes —
// arithmetic over entries, no allocation, and still half of a wide-window
// slide (DESIGN.md §9).
func (rt *Runtime) spaceBytes() int64 {
	total := rt.store.Stats().Bytes
	for p := 0; p < rt.parts; p++ {
		total += rt.partitionTreeBytes(p)
	}
	return total
}

// finish assembles the RunResult around the retained output: the tree work
// since before was the run's foreground, whatever the trees did between the
// last result and before — the upkeep — its background.
func (rt *Runtime) finish(rebuilt bool, rec *metrics.Recorder, before core.Stats) *RunResult {
	fg := rt.treeStats()
	rt.runs++
	rt.publishWindowGauges()
	res := &RunResult{
		Output:              rt.out,
		Changed:             rt.changed,
		Rebuilt:             rebuilt,
		Report:              rec.Snapshot(),
		Background:          rt.bg.Snapshot(),
		TreeStats:           statsDelta(before, fg),
		TreeStatsBackground: statsDelta(rt.sealed, before),
		SpaceBytes:          rt.spaceBytes(),
		ReadTimeNs:          rt.store.Stats().ReadTimeNs,
	}
	rt.bg.Reset()
	rt.sealed = fg
	return res
}

// partPayloads extracts partition p's payload from each map result, with
// the size the map task measured.
func (rt *Runtime) partPayloads(results []mapreduce.MapResult, p int) []sized {
	out := make([]sized, len(results))
	for i := range results {
		out[i] = results[i].PartSized(p)
	}
	return out
}

// Store exposes the memoization layer (for fault injection in tests and
// the Table 2 experiment).
func (rt *Runtime) Store() *memo.Store { return rt.store }

// MapRunner returns the configured map-task runner, or nil when map
// tasks run in-process. The obs server type-asserts it for cluster
// metrics federation (a dist.Pool implements ClusterStats).
func (rt *Runtime) MapRunner() mapreduce.MapRunner { return rt.cfg.MapRunner }

// FaultStats snapshots the degradation event counters (the MapRunner's
// too, see FaultRecorder).
func (rt *Runtime) FaultStats() metrics.FaultStats { return rt.faults.Snapshot() }

// Live returns the number of splits currently in the window.
func (rt *Runtime) Live() int { return rt.live }

// WindowLo returns the sequence number of the oldest live split.
func (rt *Runtime) WindowLo() uint64 { return rt.windowLo }

// RuntimeStats summarizes a runtime's cumulative activity across runs.
type RuntimeStats struct {
	// Runs is the number of completed runs (initial + incremental).
	Runs int64
	// LiveSplits is the current window length in splits.
	LiveSplits int
	// WindowLo is the sequence number of the oldest live split.
	WindowLo uint64
	// TreeStats is the cumulative contraction-tree work.
	TreeStats core.Stats
	// Memo is the memoization layer's snapshot.
	Memo memo.Stats
	// FreeList sums the partitions' free lists: the dead storage they hold
	// for the next merges — memory SpaceBytes leaves out — and how many
	// merges found storage there and how many did not, since the aggregators
	// were installed. Buffers and Entries include the storage the structures
	// hold back for merges not yet due (the daba kind's spares), Positions
	// what they keep of where their buckets' keys stand (core.Locating).
	// The stock the bucket folds release map outputs to, which the next
	// ones are cut and decoded into (mapreduce.TakeTaskPayload), is the
	// process's, not a partition's: neither this nor SpaceBytes counts it.
	FreeList mapreduce.FreeListStats
}

// Stats returns a snapshot of the runtime's cumulative activity.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Runs:       rt.runs,
		LiveSplits: rt.live,
		WindowLo:   rt.windowLo,
		TreeStats:  rt.treeStats(),
		Memo:       rt.store.Stats(),
		FreeList:   rt.freeListStats(),
	}
}

// freeListStats sums the partitions' free-list bookkeeping. The storage a
// structure holds back from its list for a merge not yet due (core.Spares)
// counts as held: it is dead storage that SpaceBytes leaves out as well.
func (rt *Runtime) freeListStats() mapreduce.FreeListStats {
	rt.spares.st = mapreduce.FreeListStats{}
	for p := range rt.free {
		if s, ok := rt.aggs[p].(core.Spares[sized]); ok {
			s.ForEachSpare(rt.spares.add)
		}
		if l, ok := rt.aggs[p].(core.Locating[sized]); ok {
			rt.spares.st.Positions += l.PositionsCap()
		}
		rt.spares.st = rt.spares.st.Add(rt.free[p].Stats())
	}
	return rt.spares.st
}
