package sliderrt

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/metrics"
	"slider/internal/persist"
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
	// Output is the job's final key→value output for the window.
	Output mapreduce.Output
	// Report carries the foreground work and task list of the run.
	Report metrics.Report
	// Background carries the background pre-processing work of split
	// mode (empty when split processing is disabled).
	Background metrics.Report
	// TreeStats is the contraction-tree work performed on the
	// foreground (critical) path of this run.
	TreeStats core.Stats
	// TreeStatsBackground is the contraction-tree work performed by the
	// background pre-processing step (split mode only).
	TreeStatsBackground core.Stats
	// SpaceBytes is the memoized state resident after the run
	// (tree payloads plus cached map outputs).
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
	backend Backend // resolved aggregation backend (may live-switch)
	store   *memo.Store
	parts   int
	faults  *metrics.FaultRecorder

	seq      uint64 // next split sequence number
	windowLo uint64 // sequence number of the oldest live split
	live     int    // live splits in the window
	runs     int64  // completed runs
	started  bool

	// combines[p] counts combiner invocations inside partition p's
	// merges; partitions update their own counter, so the contraction
	// phase can run partitions concurrently.
	combines []int64

	coal   []*core.CoalescingTree[sized]
	rot    []*core.RotatingTree[sized]
	daba   []*core.DabaLite[sized]
	fold   []*core.FoldingTree[sized]
	rnd    []*core.RandomizedFoldingTree[sized]
	straw  []*core.StrawmanTree[sized]
	finger []*core.FingerTree[sized]
	leaves [][]core.Item[sized] // strawman window leaves per partition

	// Out-of-order (finger-tree) bucket ledger: splits per live bucket in
	// window order, oldest first — late buckets may be narrower than w —
	// plus the in-order bucket clock (buckets ever appended at the window
	// edge; late inserts do not advance it). The clock drives the
	// effective watermark max(cfg.Watermark, bucketSeq−AllowedLateness).
	bucketSizes []int
	bucketSeq   uint64
	oooEvict    int // buckets the in-flight Advance evicts (partition goroutines read only)

	// Fixed+split: per-partition buckets awaiting background install.
	pendingBuckets []sized
	hasPending     bool

	// treeSnap is the immutable tree snapshot served to concurrent
	// readers (/debug/tree); snapReq asks the next slide to refresh it.
	treeSnap atomic.Pointer[TreeSnapshot]
	snapReq  atomic.Bool

	// gauges holds the concurrent-read-safe out-of-order window gauges
	// (see window_stats.go).
	gauges windowGauges
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
		faults:  cfg.Faults,
	}
	if cfg.Obs != nil {
		rt.store.SetLatencyObservers(&cfg.Obs.MemoRead, &cfg.Obs.MemoWrite)
	}
	return rt, nil
}

// mergeFor returns partition p's merge function: it combines two payloads
// in window order, sizes the result as it builds it, and counts combiner
// calls into p's own counter. The counter updates are atomic because the
// parallel contraction engine may run several of one partition's merges
// concurrently; MergeOrderedSized is pure and alias-free, so the merges
// themselves are safe.
func (rt *Runtime) mergeFor(p int) core.MergeFunc[sized] {
	counter := &rt.combines[p]
	return func(a, b sized) sized {
		out, c := mapreduce.MergeOrderedSized(rt.job, a, b)
		atomic.AddInt64(counter, c)
		return out
	}
}

// kmergeFor returns partition p's K-way merge function: it merges any
// number of payloads in a single pass in window order and counts combiner
// calls into p's own counter (atomically — ReduceOrderedK may run several
// of one partition's leaf batches concurrently).
func (rt *Runtime) kmergeFor(p int) core.KMergeFunc[sized] {
	counter := &rt.combines[p]
	return func(items []sized) sized {
		out, c := mapreduce.MergeOrderedKSized(rt.job, items)
		atomic.AddInt64(counter, c)
		return out
	}
}

// foldPayloads merges payloads left to right into one using partition p's
// K-way merge — the fold-up of newly arrived splits into C′ for
// coalescing appends and rotating-bucket formation. These fold-ups are
// not memoized tree nodes, so they need not preserve binary fingerprints:
// they batch through MergeOrderedK, which allocates one output map and
// issues one multi-argument Combine per key instead of len(ps)−1
// intermediate maps. Batch boundaries are fixed (see kMergeLeafWidth), so
// outputs and combine counts are identical at any worker count.
func (rt *Runtime) foldPayloads(p int, ps []sized) sized {
	if len(ps) == 0 {
		return sized{P: mapreduce.EmptyPayload()}
	}
	out, _ := core.ReduceOrderedK(rt.treeParallelism(), rt.kmergeFor(p), ps)
	return out
}

// partNode returns the machine holding partition p's memoized state.
func (rt *Runtime) partNode(p int) int {
	return rt.store.HomeNode("part:" + strconv.Itoa(p))
}

// mapAdds runs map tasks for new splits with input locality, memoizes
// their outputs (charging the layer's write cost into each task), and
// returns the per-split results.
func (rt *Runtime) mapAdds(splits []mapreduce.Split, rec *metrics.Recorder) ([]mapreduce.MapResult, error) {
	base := rt.seq
	runner := rt.cfg.MapRunner
	if runner == nil {
		runner = mapreduce.Executor{Parallelism: rt.parallelism()}
	}
	results, err := runner.RunMap(rt.job, splits)
	if err != nil {
		results, err = rt.salvageMap(splits, err)
		if err != nil {
			return nil, err
		}
	}
	var counters metrics.Counters
	for i, r := range results {
		id := base + uint64(i)
		// Memoized map outputs live as flat bytes, not as live Go maps: one
		// payload-set blob per split keeps the memo layer's resident state
		// off the GC scan path. The entry's accounted size stays r.Bytes
		// (the cost-model estimate), independent of the encoding.
		var stored any = r.Parts
		if blob, err := persist.EncodePayloadSet(r.Parts); err == nil {
			stored = blob
		}
		writeNs := rt.store.Put("map:"+r.SplitID, stored, r.Bytes, id, id)
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseMap,
			Cost:          r.Cost + time.Duration(writeNs),
			InputBytes:    r.Bytes,
			PreferredNode: int(id % uint64(rt.cfg.Memo.Nodes)),
		})
		counters.MapTasks++
		counters.MapRecords += r.Records
		counters.WriteTime += writeNs
	}
	rec.Add(counters)
	rt.seq += uint64(len(splits))
	rt.live += len(splits)
	return results, nil
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
	if rt.cfg.DisableLocalFallback || !errors.As(runErr, &pr) {
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
	local := mapreduce.Executor{Parallelism: rt.parallelism()}
	fallback, err := local.RunMap(rt.job, missing)
	if err != nil {
		return nil, err
	}
	for k, i := range missingIdx {
		results[i] = fallback[k]
	}
	return results, nil
}

func (rt *Runtime) parallelism() int {
	if rt.cfg.Parallelism > 0 {
		return rt.cfg.Parallelism
	}
	return 0
}

// treeParallelism splits the Parallelism budget between the two levels
// of contraction concurrency: forEachPartition runs up to min(par,
// partitions) partition workers, and each partition's tree gets the
// remaining budget for its intra-tree (level-by-level) combines, so the
// total worker count stays bounded by the configured knob. With more
// partitions than budget the trees run sequentially, exactly as before.
func (rt *Runtime) treeParallelism() int {
	par := rt.cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	partWorkers := rt.parts
	if partWorkers > par {
		return 1
	}
	return par / partWorkers
}

// Initial performs the initial run over the first window (§3: all input
// data items are new; the contraction trees are built from scratch).
func (rt *Runtime) Initial(splits []mapreduce.Split) (*RunResult, error) {
	if rt.started {
		return nil, ErrReinitialize
	}
	if rt.cfg.Mode == Fixed {
		want := rt.cfg.BucketSplits * rt.cfg.WindowBuckets
		if len(splits) != want {
			return nil, fmt.Errorf("%w: Fixed initial window needs %d splits, got %d", ErrBadAdvance, want, len(splits))
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("%w: initial window is empty", ErrBadAdvance)
	}
	rec := metrics.NewRecorder()
	bg := metrics.NewRecorder()
	rt.store.ResetReadStats()
	so := rt.beginSlide("initial")
	defer so.abort()

	baseSeq := rt.seq
	mapPh := so.phase("map")
	results, err := rt.mapAdds(splits, rec)
	if err != nil {
		return nil, err
	}
	mapPh.end()
	rt.allocTrees()
	statsBefore := rt.treeStats()

	contractPh := so.phase("contract")
	roots := make([][]sized, rt.parts)
	if err := rt.forEachPartition(func(p int) error {
		start := time.Now()
		ps := partitionSpan(contractPh.span, p)
		treeBefore := rt.partitionTreeStats(p)
		payloads := rt.partPayloads(results, p)
		switch rt.backend {
		case BackendStrawman:
			rt.leaves[p] = makeItems(baseSeq, payloads)
			rt.straw[p].Build(rt.leaves[p])
			if root, ok := rt.straw[p].Root(); ok {
				roots[p] = []sized{root}
			}
		case BackendCoalescing:
			c1 := rt.foldPayloads(p, payloads)
			root := rt.coal[p].Append(c1)
			roots[p] = []sized{root}
		case BackendDaba:
			buckets := rt.formBuckets(p, payloads)
			if err := rt.daba[p].Init(buckets); err != nil {
				return err
			}
			if root, ok := rt.daba[p].Root(); ok {
				roots[p] = []sized{root}
			}
		case BackendFingerTree:
			buckets := rt.formBuckets(p, payloads)
			if err := rt.finger[p].Init(buckets); err != nil {
				return err
			}
			if root, ok := rt.finger[p].Root(); ok {
				roots[p] = []sized{root}
			}
		case BackendRotating:
			buckets := rt.formBuckets(p, payloads)
			if err := rt.rot[p].Init(buckets); err != nil {
				return err
			}
			if root, ok := rt.rot[p].Root(); ok {
				roots[p] = []sized{root}
			}
		case BackendRandomizedFolding:
			rt.rnd[p].Init(makeItems(baseSeq, payloads))
			if root, ok := rt.rnd[p].Root(); ok {
				roots[p] = []sized{root}
			}
		default:
			rt.fold[p].Init(payloads)
			if root, ok := rt.fold[p].Root(); ok {
				roots[p] = []sized{root}
			}
		}
		// The initial run materializes every tree node into the
		// memoization layer — the paper's Figure 13 overhead — and
		// registers the partition's root-path entry that every later
		// slide reads back (chargeStateRead).
		writeNs := rt.store.ChargeWrite(rt.partitionTreeBytes(p))
		writeNs += rt.putPartState(p, roots[p])
		rt.recordContraction(rec, p, time.Since(start)+time.Duration(writeNs), roots[p])
		rt.endPartitionSpan(ps, p, treeBefore)
		return nil
	}); err != nil {
		return nil, err
	}
	contractPh.end()

	reducePh := so.phase("reduce")
	out := rt.reduceAll(rec, roots)
	reducePh.end()
	statsFg := rt.treeStats()
	rt.recordTreeCounters(rec, statsDelta(statsBefore, statsFg))

	// Split processing: pave the way for the first incremental run.
	if rt.cfg.SplitProcessing && rt.cfg.Mode == Fixed && rt.cfg.Engine == SelfAdjusting {
		bgSpan := so.span.Child("background")
		for p := 0; p < rt.parts; p++ {
			start := time.Now()
			if err := rt.rot[p].PrepareBackground(); err != nil {
				return nil, err
			}
			bg.RecordTask(metrics.Task{
				Phase:         metrics.PhaseContraction,
				Cost:          time.Since(start),
				PreferredNode: rt.partNode(p),
			})
		}
		bgSpan.End()
	}

	if rt.backend == BackendFingerTree {
		rt.bucketSizes = make([]int, rt.cfg.WindowBuckets)
		for i := range rt.bucketSizes {
			rt.bucketSizes[i] = rt.cfg.BucketSplits
		}
		rt.bucketSeq = uint64(rt.cfg.WindowBuckets)
	}
	rt.started = true
	res := rt.finish(out, rec, bg, statsBefore)
	res.TreeStats = statsDelta(statsBefore, statsFg)
	res.TreeStatsBackground = statsDelta(statsFg, rt.treeStats())
	so.finish(res)
	return res, nil
}

// Advance performs an incremental run: drop oldest splits, add new ones.
//
//   - Append mode: drop must be 0.
//   - Fixed mode: drop must equal len(add), both a positive multiple of
//     the bucket width w.
//   - Variable mode: any combination.
func (rt *Runtime) Advance(drop int, add []mapreduce.Split) (*RunResult, error) {
	if !rt.started {
		return nil, ErrNotInitial
	}
	if err := rt.checkAdvance(drop, len(add)); err != nil {
		return nil, err
	}
	if rt.backend == BackendFingerTree {
		// drop must consume whole oldest buckets of the ledger (late
		// buckets may be narrower than w, so the count is not drop/w).
		k, err := rt.evictBucketCount(drop)
		if err != nil {
			return nil, err
		}
		rt.oooEvict = k
	}
	rec := metrics.NewRecorder()
	bg := metrics.NewRecorder()
	rt.store.ResetReadStats()
	statsBefore := rt.treeStats()
	so := rt.beginSlide("advance")
	defer so.abort()
	so.span.Event("slide: drop=%d add=%d", drop, len(add))

	baseSeq := rt.seq
	mapPh := so.phase("map")
	results, err := rt.mapAdds(add, rec)
	if err != nil {
		return nil, err
	}
	mapPh.end()
	rt.windowLo += uint64(drop)
	rt.live -= drop

	rt.pendingBuckets = make([]sized, rt.parts)
	// A single-bucket slide in Fixed+split mode takes the pre-combined
	// foreground path; the decision is uniform across partitions and
	// made here so partition goroutines only read it.
	rt.hasPending = rt.cfg.Mode == Fixed && rt.cfg.Engine == SelfAdjusting &&
		rt.cfg.SplitProcessing && len(add) == rt.cfg.BucketSplits
	contractPh := so.phase("contract")
	roots := make([][]sized, rt.parts)
	if err := rt.forEachPartition(func(p int) error {
		start := time.Now()
		ps := partitionSpan(contractPh.span, p)
		treeBefore := rt.partitionTreeStats(p)
		payloads := rt.partPayloads(results, p)
		var err error
		roots[p], err = rt.advancePartition(p, drop, baseSeq, payloads)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		// Read last run's memoized root-path state, then rewrite the
		// recomputed nodes: one new root for append-only windows, roughly
		// twice the root payload for a log-depth path. An unreadable
		// entry — every replica down, or evicted — makes chargeStateRead
		// degrade to recomputation instead of failing the slide.
		rt.chargeStateRead(p, roots[p])
		writeNs := rt.putPartState(p, roots[p])
		rt.recordContraction(rec, p, elapsed+time.Duration(writeNs), roots[p])
		rt.endPartitionSpan(ps, p, treeBefore)
		return nil
	}); err != nil {
		return nil, err
	}
	contractPh.end()
	if rt.backend == BackendFingerTree {
		w := rt.cfg.BucketSplits
		rt.bucketSizes = append(rt.bucketSizes[:0], rt.bucketSizes[rt.oooEvict:]...)
		for i := 0; i < len(add)/w; i++ {
			rt.bucketSizes = append(rt.bucketSizes, w)
		}
		rt.bucketSeq += uint64(len(add) / w)
	}

	reducePh := so.phase("reduce")
	out := rt.reduceAll(rec, roots)
	reducePh.end()
	statsFg := rt.treeStats()
	rt.recordTreeCounters(rec, statsDelta(statsBefore, statsFg))
	bgSpan := so.span.Child("background")
	rt.runBackground(bg)
	bgSpan.End()
	rt.store.GC(rt.windowLo)
	if rt.cfg.GCPolicy != nil {
		rt.store.GCFunc(rt.cfg.GCPolicy)
	}
	res := rt.finish(out, rec, bg, statsBefore)
	res.TreeStatsBackground = statsDelta(statsFg, rt.treeStats())
	res.TreeStats = statsDelta(statsBefore, statsFg)
	so.finish(res)
	// After the slide's stats deltas are sealed: a backend switch here
	// resets tree counters, and the next Advance reads a fresh baseline.
	rt.maybeSwitchBackend()
	return res, nil
}

// AdvanceLate lands late-arriving splits in the window without sliding
// it: the records form one new bucket inserted `lateness` buckets
// behind the newest live bucket (lateness 0 appends at the window's
// newest edge, lateness len(buckets) at its oldest), and only the
// affected root path of each partition's finger tree is re-contracted —
// O(log w) combines, not a rebuild. Requires the finger-tree backend
// (Config.AllowedLateness routes selection there); arrivals behind the
// effective watermark — later than AllowedLateness buckets, or destined
// below Config.Watermark on the bucket-sequence clock — are refused
// with ErrTooLate, and the window is left untouched.
func (rt *Runtime) AdvanceLate(lateness int, late []mapreduce.Split) (*RunResult, error) {
	if !rt.started {
		return nil, ErrNotInitial
	}
	if rt.backend != BackendFingerTree {
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
	// Saturating: a lateness deeper than the in-order clock (possible when
	// late buckets outnumber in-order ones) targets sequence 0, it must
	// not wrap around and sail past the watermark.
	target := uint64(0)
	if uint64(lateness) <= rt.bucketSeq {
		target = rt.bucketSeq - uint64(lateness)
	}
	if target < rt.cfg.Watermark {
		rt.gauges.lateRejects.Add(1)
		return nil, fmt.Errorf("%w: bucket sequence %d is below watermark %d", ErrTooLate, target, rt.cfg.Watermark)
	}
	rec := metrics.NewRecorder()
	bg := metrics.NewRecorder()
	rt.store.ResetReadStats()
	statsBefore := rt.treeStats()
	so := rt.beginSlide("late")
	defer so.abort()
	so.span.Event("late: lateness=%d add=%d", lateness, len(late))

	mapPh := so.phase("map")
	results, err := rt.mapAdds(late, rec)
	if err != nil {
		return nil, err
	}
	mapPh.end()

	pos := len(rt.bucketSizes) - lateness
	contractPh := so.phase("contract")
	roots := make([][]sized, rt.parts)
	if err := rt.forEachPartition(func(p int) error {
		start := time.Now()
		ps := partitionSpan(contractPh.span, p)
		treeBefore := rt.partitionTreeStats(p)
		payloads := rt.partPayloads(results, p)
		bucket := rt.foldPayloads(p, payloads)
		if err := rt.finger[p].InsertAt(pos, bucket); err != nil {
			return err
		}
		if root, ok := rt.finger[p].Root(); ok {
			roots[p] = []sized{root}
		}
		elapsed := time.Since(start)
		rt.chargeStateRead(p, roots[p])
		writeNs := rt.putPartState(p, roots[p])
		rt.recordContraction(rec, p, elapsed+time.Duration(writeNs), roots[p])
		rt.endPartitionSpan(ps, p, treeBefore)
		return nil
	}); err != nil {
		return nil, err
	}
	contractPh.end()
	// The late bucket joins the window's bucket ledger at its position;
	// the in-order bucket clock does not advance, so the watermark holds.
	rt.bucketSizes = append(rt.bucketSizes, 0)
	copy(rt.bucketSizes[pos+1:], rt.bucketSizes[pos:])
	rt.bucketSizes[pos] = len(late)

	reducePh := so.phase("reduce")
	out := rt.reduceAll(rec, roots)
	reducePh.end()
	statsFg := rt.treeStats()
	rt.recordTreeCounters(rec, statsDelta(statsBefore, statsFg))
	rt.gauges.lateAccepts.Add(1)
	res := rt.finish(out, rec, bg, statsBefore)
	res.TreeStats = statsDelta(statsBefore, statsFg)
	so.finish(res)
	return res, nil
}

// evictBucketCount maps a drop expressed in splits onto the bucket
// ledger: the number of whole oldest buckets whose sizes sum to exactly
// drop. A drop that cuts a bucket in half is ErrBadAdvance — buckets
// are the finger tree's eviction unit.
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

// recordTreeCounters transfers a run's contraction-tree node work into
// the recorder's counters (previously only available via TreeStats).
func (rt *Runtime) recordTreeCounters(rec *metrics.Recorder, d core.Stats) {
	rec.Add(metrics.Counters{
		NodesComputed: d.NodesRecomputed,
		NodesReused:   d.NodesReused,
	})
}

// statsDelta returns after − before.
func statsDelta(before, after core.Stats) core.Stats {
	return core.Stats{
		Merges:          after.Merges - before.Merges,
		NodesRecomputed: after.NodesRecomputed - before.NodesRecomputed,
		NodesReused:     after.NodesReused - before.NodesReused,
	}
}

// advancePartition updates one partition's tree and returns the payloads
// the final reduce consumes.
func (rt *Runtime) advancePartition(p, drop int, baseSeq uint64, payloads []sized) ([]sized, error) {
	if rt.backend == BackendStrawman {
		rt.leaves[p] = append(rt.leaves[p][:0], rt.leaves[p][drop:]...)
		rt.leaves[p] = append(rt.leaves[p], makeItems(baseSeq, payloads)...)
		rt.straw[p].Build(rt.leaves[p])
		if root, ok := rt.straw[p].Root(); ok {
			return []sized{root}, nil
		}
		return nil, nil
	}
	switch rt.cfg.Mode {
	case Append:
		cNew := rt.foldPayloads(p, payloads)
		if rt.cfg.SplitProcessing {
			return rt.coal[p].AppendSplit(cNew), nil
		}
		return []sized{rt.coal[p].Append(cNew)}, nil
	case Fixed:
		buckets := rt.formBuckets(p, payloads)
		if rt.backend == BackendFingerTree {
			// Bulk path: one split for the K evicted buckets, one
			// build+join for the K new ones — O(K + log w) combines
			// instead of K root-path slides.
			if err := rt.finger[p].BulkEvict(rt.oooEvict); err != nil {
				return nil, err
			}
			if err := rt.finger[p].BulkInsert(buckets); err != nil {
				return nil, err
			}
			if root, ok := rt.finger[p].Root(); ok {
				return []sized{root}, nil
			}
			return nil, nil
		}
		if rt.backend == BackendDaba {
			// O(1) in-order fast path: each bucket slide costs a bounded
			// constant number of combines, independent of WindowBuckets.
			for _, b := range buckets {
				if err := rt.daba[p].Slide(b); err != nil {
					return nil, err
				}
			}
			if root, ok := rt.daba[p].Root(); ok {
				return []sized{root}, nil
			}
			return nil, nil
		}
		if rt.hasPending {
			fg, err := rt.rot[p].RotateForeground(buckets[0])
			if err != nil {
				return nil, err
			}
			rt.pendingBuckets[p] = buckets[0]
			return []sized{fg}, nil
		}
		for _, b := range buckets {
			if err := rt.rot[p].Rotate(b); err != nil {
				return nil, err
			}
		}
		if rt.cfg.SplitProcessing {
			// Multi-bucket slides fall back to in-place rotation;
			// re-prepare so the next single-bucket slide stays fast.
			if err := rt.rot[p].PrepareBackground(); err != nil {
				return nil, err
			}
		}
		if root, ok := rt.rot[p].Root(); ok {
			return []sized{root}, nil
		}
		return nil, nil
	default: // Variable
		if rt.backend == BackendRandomizedFolding {
			if err := rt.rnd[p].Slide(drop, makeItems(baseSeq, payloads)); err != nil {
				return nil, err
			}
			if root, ok := rt.rnd[p].Root(); ok {
				return []sized{root}, nil
			}
			return nil, nil
		}
		if err := rt.fold[p].Slide(drop, payloads); err != nil {
			return nil, err
		}
		if root, ok := rt.fold[p].Root(); ok {
			return []sized{root}, nil
		}
		return nil, nil
	}
}

// runBackground performs the deferred background pre-processing of split
// mode, recording its cost separately (Figure 11).
func (rt *Runtime) runBackground(bg *metrics.Recorder) {
	if !rt.cfg.SplitProcessing || rt.cfg.Engine == Strawman {
		return
	}
	switch rt.cfg.Mode {
	case Append:
		for p := 0; p < rt.parts; p++ {
			start := time.Now()
			rt.coal[p].Background()
			bg.RecordTask(metrics.Task{
				Phase:         metrics.PhaseContraction,
				Cost:          time.Since(start),
				PreferredNode: rt.partNode(p),
			})
		}
	case Fixed:
		if !rt.hasPending {
			return
		}
		for p := 0; p < rt.parts; p++ {
			start := time.Now()
			// Background installs the bucket and pre-combines for the
			// next slide.
			if err := rt.rot[p].Background(rt.pendingBuckets[p]); err != nil {
				return
			}
			bg.RecordTask(metrics.Task{
				Phase:         metrics.PhaseContraction,
				Cost:          time.Since(start),
				PreferredNode: rt.partNode(p),
			})
		}
		rt.pendingBuckets = nil
		rt.hasPending = false
	}
}

// reduceAll applies the final Reduce per partition, timed as reduce
// tasks. Partitions are key-disjoint, so every partition reduces straight
// into the one output map, presized to the roots' total key count.
func (rt *Runtime) reduceAll(rec *metrics.Recorder, roots [][]sized) mapreduce.Output {
	keys := 0
	for _, rs := range roots {
		for _, r := range rs {
			keys += len(r.P)
		}
	}
	out := make(mapreduce.Output, keys)
	for p := 0; p < rt.parts; p++ {
		start := time.Now()
		calls := mapreduce.ReduceInto(rt.job, unsized(roots[p]), out)
		rec.RecordTask(metrics.Task{
			Phase:         metrics.PhaseReduce,
			Cost:          time.Since(start),
			InputBytes:    sumBytes(roots[p]),
			PreferredNode: rt.partNode(p),
		})
		rec.Add(metrics.Counters{ReduceCalls: calls})
	}
	return out
}

// sumBytes adds up the carried sizes of a list of payloads.
func sumBytes(ps []sized) int64 {
	var bytes int64
	for _, s := range ps {
		bytes += s.Bytes
	}
	return bytes
}

// unsized strips the carried sizes, for the codec and fingerprint
// functions that take bare payloads.
func unsized(ps []sized) []Payload {
	out := make([]Payload, len(ps))
	for i, s := range ps {
		out[i] = s.P
	}
	return out
}

// recordContraction records one contraction task, transferring the
// partition's merge counter into the recorder.
func (rt *Runtime) recordContraction(rec *metrics.Recorder, p int, cost time.Duration, roots []sized) {
	rec.RecordTask(metrics.Task{
		Phase:         metrics.PhaseContraction,
		Cost:          cost,
		InputBytes:    sumBytes(roots),
		PreferredNode: rt.partNode(p),
	})
	rec.Add(metrics.Counters{CombineCalls: atomic.SwapInt64(&rt.combines[p], 0)})
}

// rootPathBytes estimates the memoized root-path state a partition's
// update reads and rewrites: one root payload for append-only windows,
// roughly twice the root payload for a log-depth path.
func (rt *Runtime) rootPathBytes(roots []sized) int64 {
	bytes := sumBytes(roots)
	if rt.cfg.Mode != Append {
		bytes *= 2
	}
	return bytes
}

// putPartState memoizes partition p's root-path state under its "part:"
// key, placed on the partition's home node with the configured replicas.
// Every subsequent slide reads the entry back through chargeStateRead,
// so node failures and GC evictions exercise the recompute path. Returns
// the simulated write time.
func (rt *Runtime) putPartState(p int, roots []sized) int64 {
	bytes := rt.rootPathBytes(roots)
	if bytes == 0 {
		return 0
	}
	// The root-path state is stored as one flat payload-set blob — real
	// bytes a failover could restore from — rather than a placeholder; the
	// accounted size stays the root-path estimate the cost model charges.
	var stored any
	if blob, err := persist.EncodePayloadSet(unsized(roots)); err == nil {
		stored = blob
	}
	return rt.store.Put("part:"+strconv.Itoa(p), stored, bytes, rt.windowLo, rt.seq)
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
	if _, err := rt.store.Get("part:"+strconv.Itoa(p), rt.partNode(p)); err != nil {
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
		w := rt.cfg.BucketSplits
		if rt.cfg.Engine == Strawman {
			if drop != add {
				return fmt.Errorf("%w: fixed-width windows need drop == add (got %d, %d)", ErrBadAdvance, drop, add)
			}
			return nil
		}
		if rt.backend == BackendFingerTree {
			// The out-of-order window may drift: bulk evictions and bulk
			// insertions need not balance. Adds still arrive in whole
			// buckets of w; drops must consume whole oldest buckets of the
			// ledger, which Advance checks against the bucket sizes.
			if drop == 0 && add == 0 {
				return fmt.Errorf("%w: empty advance", ErrBadAdvance)
			}
			if add%w != 0 {
				return fmt.Errorf("%w: finger-tree adds arrive in whole buckets of w (w=%d, got add=%d)", ErrBadAdvance, w, add)
			}
			return nil
		}
		if drop != add || add == 0 || add%w != 0 {
			return fmt.Errorf("%w: fixed-width slides need drop == add == k×w (w=%d, got drop=%d add=%d)", ErrBadAdvance, w, drop, add)
		}
	case Variable:
		if drop < 0 || drop > rt.live {
			return fmt.Errorf("%w: drop=%d with %d live splits", ErrBadAdvance, drop, rt.live)
		}
	}
	return nil
}

// formBuckets groups partition p's per-split payloads into buckets of w
// splits each.
func (rt *Runtime) formBuckets(p int, payloads []sized) []sized {
	w := rt.cfg.BucketSplits
	buckets := make([]sized, 0, (len(payloads)+w-1)/w)
	for i := 0; i < len(payloads); i += w {
		end := i + w
		if end > len(payloads) {
			end = len(payloads)
		}
		buckets = append(buckets, rt.foldPayloads(p, payloads[i:end]))
	}
	return buckets
}

// forEachPartition runs fn(p) for every partition, concurrently up to the
// configured parallelism, and returns the first error. Each partition
// touches only its own tree, counter, and result slots.
func (rt *Runtime) forEachPartition(fn func(p int) error) error {
	par := rt.cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > rt.parts {
		par = rt.parts
	}
	if par <= 1 {
		for p := 0; p < rt.parts; p++ {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, rt.parts)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for p := 0; p < rt.parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[p] = fn(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allocTrees instantiates the per-partition trees for the configuration,
// each wired to its share of the parallelism budget so partition-level
// and intra-tree concurrency compose. Coalescing trees have no internal
// levels (their fold-up of new splits is parallelized in foldPayloads).
func (rt *Runtime) allocTrees() {
	n := rt.parts
	treePar := rt.treeParallelism()
	rt.combines = make([]int64, n)
	// Drop any previous backend's structures: allocTrees also re-homes
	// the runtime on a live backend switch.
	rt.coal, rt.rot, rt.daba, rt.fold, rt.rnd = nil, nil, nil, nil, nil
	rt.straw, rt.finger, rt.leaves = nil, nil, nil
	switch rt.backend {
	case BackendStrawman:
		rt.straw = make([]*core.StrawmanTree[sized], n)
		rt.leaves = make([][]core.Item[sized], n)
		for p := range rt.straw {
			rt.straw[p] = core.NewStrawman(rt.mergeFor(p))
			rt.straw[p].SetParallelism(treePar)
		}
	case BackendCoalescing:
		rt.coal = make([]*core.CoalescingTree[sized], n)
		for p := range rt.coal {
			rt.coal[p] = core.NewCoalescing(rt.mergeFor(p))
		}
	case BackendDaba:
		rt.daba = make([]*core.DabaLite[sized], n)
		for p := range rt.daba {
			rt.daba[p] = core.NewDaba(rt.mergeFor(p), rt.cfg.WindowBuckets)
		}
	case BackendFingerTree:
		rt.finger = make([]*core.FingerTree[sized], n)
		for p := range rt.finger {
			rt.finger[p] = core.NewFingerTree(rt.mergeFor(p))
		}
	case BackendRotating:
		rt.rot = make([]*core.RotatingTree[sized], n)
		for p := range rt.rot {
			rt.rot[p] = core.NewRotating(rt.mergeFor(p), rt.cfg.WindowBuckets)
			rt.rot[p].SetParallelism(treePar)
		}
	case BackendRandomizedFolding:
		rt.rnd = make([]*core.RandomizedFoldingTree[sized], n)
		for p := range rt.rnd {
			rt.rnd[p] = core.NewRandomizedFolding(rt.mergeFor(p), rt.cfg.Seed+uint64(p)+1)
			rt.rnd[p].SetParallelism(treePar)
		}
	default: // BackendFolding
		rt.fold = make([]*core.FoldingTree[sized], n)
		factor := rt.cfg.RebuildFactor
		for p := range rt.fold {
			opts := []core.FoldingOption[sized]{core.WithParallelism[sized](treePar)}
			if factor < 0 {
				opts = append(opts, core.WithRebuildFactor[sized](0))
			} else if factor > 0 {
				opts = append(opts, core.WithRebuildFactor[sized](factor))
			}
			rt.fold[p] = core.NewFolding(rt.mergeFor(p), opts...)
		}
	}
}

// forEachPartitionPayload calls fn for every payload partition p's tree
// materializes: leaves, buckets and memoized internal nodes.
func (rt *Runtime) forEachPartitionPayload(p int, fn func(sized)) {
	switch {
	case rt.straw != nil:
		rt.straw[p].ForEachPayload(fn)
	case rt.coal != nil:
		rt.coal[p].ForEachPayload(fn)
	case rt.rot != nil:
		rt.rot[p].ForEachPayload(fn)
	case rt.daba != nil:
		rt.daba[p].ForEachPayload(fn)
	case rt.finger != nil:
		rt.finger[p].ForEachPayload(fn)
	case rt.rnd != nil:
		rt.rnd[p].ForEachPayload(fn)
	case rt.fold != nil:
		rt.fold[p].ForEachPayload(fn)
	}
}

// partitionTreeBytes sums the carried sizes of the payloads partition
// p's tree materializes: one addition per node.
func (rt *Runtime) partitionTreeBytes(p int) int64 {
	var total int64
	rt.forEachPartitionPayload(p, func(s sized) { total += s.Bytes })
	return total
}

// ForEachPayload calls fn for every payload the contraction trees hold,
// partition by partition. It exists for diagnostics and for the test
// oracle that re-measures SpaceBytes from scratch with
// mapreduce.PayloadBytes; the runtime itself never walks payload keys to
// size them. Payloads are shared with the trees and must not be mutated.
func (rt *Runtime) ForEachPayload(fn func(Payload)) {
	for p := 0; p < rt.parts; p++ {
		rt.forEachPartitionPayload(p, func(s sized) { fn(s.P) })
	}
}

// treeStats sums the work counters across all partitions' trees.
func (rt *Runtime) treeStats() core.Stats {
	var total core.Stats
	addStats := func(s core.Stats) {
		total.Merges += s.Merges
		total.NodesRecomputed += s.NodesRecomputed
		total.NodesReused += s.NodesReused
	}
	for _, t := range rt.coal {
		addStats(t.Stats())
	}
	for _, t := range rt.rot {
		addStats(t.Stats())
	}
	for _, t := range rt.daba {
		addStats(t.Stats())
	}
	for _, t := range rt.finger {
		addStats(t.Stats())
	}
	for _, t := range rt.fold {
		addStats(t.Stats())
	}
	for _, t := range rt.rnd {
		addStats(t.Stats())
	}
	for _, t := range rt.straw {
		addStats(t.Stats())
	}
	return total
}

// spaceBytes sums all memoized state: tree payloads plus cached map
// outputs. Tree payloads carry their sizes from where they were created
// (see sized), so this is one addition per tree node. It used to re-walk
// every key of every payload with mapreduce.PayloadBytes — arithmetic
// over entries, no allocation, and still half of a wide-window slide
// (DESIGN.md §9).
func (rt *Runtime) spaceBytes() int64 {
	total := rt.store.Stats().Bytes
	for p := 0; p < rt.parts; p++ {
		total += rt.partitionTreeBytes(p)
	}
	return total
}

// finish assembles the RunResult. Callers overwrite TreeStats /
// TreeStatsBackground with precise foreground/background deltas.
func (rt *Runtime) finish(out mapreduce.Output, rec, bg *metrics.Recorder, before core.Stats) *RunResult {
	rt.runs++
	rt.publishWindowGauges()
	return &RunResult{
		Output:     out,
		Report:     rec.Snapshot(),
		Background: bg.Snapshot(),
		TreeStats:  statsDelta(before, rt.treeStats()),
		SpaceBytes: rt.spaceBytes(),
		ReadTimeNs: rt.store.Stats().ReadTimeNs,
	}
}

// partPayloads extracts partition p's payload from each map result, with
// the size the map task measured.
func (rt *Runtime) partPayloads(results []mapreduce.MapResult, p int) []sized {
	out := make([]sized, len(results))
	for i := range results {
		out[i] = results[i].PartSized(rt.job, p)
	}
	return out
}

// makeItems pairs payloads with their split sequence IDs.
func makeItems(base uint64, payloads []sized) []core.Item[sized] {
	items := make([]core.Item[sized], len(payloads))
	for i, p := range payloads {
		items[i] = core.Item[sized]{ID: base + uint64(i), Payload: p}
	}
	return items
}

// Store exposes the memoization layer (for fault injection in tests and
// the Table 2 experiment).
func (rt *Runtime) Store() *memo.Store { return rt.store }

// MapRunner returns the configured map-task runner, or nil when map
// tasks run in-process. The obs server type-asserts it for cluster
// metrics federation (a dist.Pool implements ClusterStats).
func (rt *Runtime) MapRunner() mapreduce.MapRunner { return rt.cfg.MapRunner }

// FaultStats snapshots the degradation event counters (shared with the
// dist pool when Config.Faults is).
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
}

// Stats returns a snapshot of the runtime's cumulative activity.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Runs:       rt.runs,
		LiveSplits: rt.live,
		WindowLo:   rt.windowLo,
		TreeStats:  rt.treeStats(),
		Memo:       rt.store.Stats(),
	}
}
