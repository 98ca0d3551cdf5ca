package mapreduce

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"slider/internal/metrics"
)

// MapResult is the measured output of one map task: one payload per reduce
// partition, plus the task's real cost.
type MapResult struct {
	// SplitID is the identity of the split the task processed.
	SplitID string
	// Parts holds one payload per reduce partition.
	Parts []Payload
	// Cost is the measured active time of the task.
	Cost time.Duration
	// PartBytes holds PayloadBytes of each entry of Parts, measured where
	// the payload was built (a map task's cut) or decoded
	// (persist.DecodeMapResult) and never taken from a sender, so the
	// runtime's contraction trees take the sizes over instead of walking
	// the payloads again. A MapRunner that leaves it nil has its payloads
	// measured on arrival (see PartSized).
	PartBytes []int64
	// Records is the number of input records processed.
	Records int64
}

// MapRunner abstracts where map tasks execute: in-process (Executor) or
// on remote workers (internal/dist.Pool). Implementations return results
// in split order.
//
// A result's sizes are its own payloads' (PartBytes): a runner that gets
// payloads from elsewhere measures them as it decodes them, or leaves
// PartBytes nil.
//
// A split is one map task's input, which need not be one split of the
// stream: sliderrt maps a Fixed window's bucket in ranges of its splits, each
// range one Split holding the range's records in order, named for its first
// split. A runner maps it as it maps any split.
//
// The splits are the caller's again once RunMap returns, whatever it
// returns: an implementation reads them only during the call — nothing it
// started may read a split afterwards (dist's hedged senders stop at the
// call's end) — and keeps no split and no Records slice, so the caller may
// reuse their storage. The results are the caller's too: an implementation
// keeps no reference to their payloads, whose storage sliderrt recycles once
// the window is done with them (a bucket fold hands the map outputs it
// merged to the task stock, see ReleaseTaskPayload).
type MapRunner interface {
	// RunMap executes the job's map function over every split.
	RunMap(job *Job, splits []Split) ([]MapResult, error)
}

// Executor runs map tasks in parallel and measures their costs.
type Executor struct {
	// Parallelism bounds concurrent map tasks; 0 means GOMAXPROCS.
	Parallelism int
}

var _ MapRunner = Executor{}

// RunMap implements MapRunner.
func (e Executor) RunMap(job *Job, splits []Split) ([]MapResult, error) {
	return e.RunMapTasks(job, splits, nil)
}

// Bytes is the result's size across partitions: the sum of PartBytes.
func (r *MapResult) Bytes() int64 {
	var n int64
	for _, b := range r.PartBytes {
		n += b
	}
	return n
}

// PartSized returns partition p's payload with its size: the one the map
// task measured when it built the payload, or — for results of a
// MapRunner that does not fill PartBytes — one walk on arrival.
func (r *MapResult) PartSized(p int) Sized {
	if len(r.PartBytes) == len(r.Parts) {
		return Sized{P: r.Parts[p], Bytes: r.PartBytes[p]}
	}
	return Size(r.Parts[p])
}

// ForEach runs fn(i) for every i in [0, n) with at most par running at once
// (par ≤ 0 means GOMAXPROCS), waits for all of them, and returns the error
// of the lowest failing index. One item or one worker runs inline on the
// caller's goroutine and stops at the first error. It is the one
// bounded-parallel loop of the Push → sink path: map tasks, scratch reduces
// and the runtime's per-partition contraction all go through it. fn(i) must
// touch only what belongs to index i.
func ForEach(par, n int, fn func(i int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if n <= 1 || par == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMapTasks executes the map phase over the given splits in parallel,
// recording one task per split into rec (when rec is non-nil). Results are
// returned in split order.
func (e Executor) RunMapTasks(job *Job, splits []Split, rec *metrics.Recorder) ([]MapResult, error) {
	results := make([]MapResult, len(splits))
	if err := ForEach(e.Parallelism, len(splits), func(i int) (err error) {
		results[i], err = RunMapTask(job, splits[i])
		return err
	}); err != nil {
		return nil, err
	}
	if rec != nil {
		for _, r := range results {
			rec.RecordTask(metrics.Task{
				Phase:         metrics.PhaseMap,
				Cost:          r.Cost,
				InputBytes:    r.Bytes(),
				PreferredNode: -1,
			})
		}
		var c metrics.Counters
		c.MapTasks = int64(len(results))
		for _, r := range results {
			c.MapRecords += r.Records
		}
		rec.Add(c)
	}
	return results, nil
}

// ReducePayload reduces every key of the root payload(s) (see
// Job.Reduce) and returns the final output. Multiple payloads for the same
// key are reduced together, in window order (the "union" reduction of
// §4.2's foreground step).
func ReducePayload(job *Job, roots []Payload) (Output, int64) {
	sized := make([]Sized, len(roots))
	total := 0
	for i, p := range roots {
		sized[i].P = p
		total += len(p)
	}
	out := make(Output, total)
	return out, ReduceInto(job, sized, out)
}

// ReduceInto is ReducePayload writing into a caller-owned output, so the
// per-partition reduces of one run fill a single map (partitions are
// key-disjoint); it takes the roots as the trees hold them and ignores
// their sizes. It returns the number of keys reduced: one Reduce call each
// (see Job.Reduce).
//
// A lone non-empty root — every slide outside split processing — is
// already the key-ordered stream: its entries are walked as they lie, each
// value handed to the reducer through one reused one-element slice. Two —
// the daba kind's halves when a slide refills the output — are walked with
// two cursors (reduceTwo). More roots are joined into that stream (joinK).
// Each way a key's values reach the reducer together, in window order, keys
// reach it in ascending order, and the slice it receives is only valid for
// the duration of the call (see Job.Reduce).
func ReduceInto(job *Job, roots []Sized, out Output) int64 {
	reduce := job.reducer()
	var left, right Payload
	nonEmpty := 0
	for _, r := range roots {
		if len(r.P) > 0 {
			if nonEmpty == 0 {
				left = r.P
			}
			right = r.P
			nonEmpty++
		}
	}
	switch nonEmpty {
	case 0:
		return 0
	case 1:
		one := make([]Value, 1)
		for _, e := range right {
			one[0] = e.Value
			out[e.Key] = reduce(e.Key, one)
		}
		return int64(len(right))
	case 2:
		return reduceTwo(reduce, left, right, out)
	}
	var calls int64
	joinK(roots, func(key string, vals []Value) {
		out[key] = reduce(key, vals)
		calls++
	})
	return calls
}

// reduceTwo is ReduceInto over two non-empty roots, left before right in
// window order: what joinK gives over them, without its heap. A key both
// hold hands reduce the left value then the right one, under the right
// root's key string, as joinK's rightmost holder; the values pass through
// one reused two-element slice.
func reduceTwo(reduce func(string, []Value) Value, left, right Payload, out Output) int64 {
	pair := make([]Value, 2)
	i, j := 0, 0
	var calls int64
	for i < len(left) && j < len(right) {
		l, r := &left[i], &right[j]
		switch c := strings.Compare(l.Key, r.Key); {
		case c < 0:
			pair[0] = l.Value
			out[l.Key] = reduce(l.Key, pair[:1])
			i++
		case c > 0:
			pair[0] = r.Value
			out[r.Key] = reduce(r.Key, pair[:1])
			j++
		default:
			pair[0], pair[1] = l.Value, r.Value
			out[r.Key] = reduce(r.Key, pair)
			i, j = i+1, j+1
		}
		calls++
	}
	for _, rest := range [2]Payload{left[i:], right[j:]} {
		for _, e := range rest {
			pair[0] = e.Value
			out[e.Key] = reduce(e.Key, pair[:1])
		}
		calls += int64(len(rest))
	}
	return calls
}

// Located says where the entries of a slide's moved payloads stand in the
// roots, as the structure that built the roots recorded it with its merges
// (the daba kind, see core.Locating): Evicted[i] is the index in the first
// root of the key of the evicted payload's entry i, or −(insertion point)−1
// where that root lacks it; Added[i] the index in the last root of the added
// payload's entry i. A slide of one evicted and one added payload may carry
// them, each or both; a nil side is sought.
type Located struct {
	Evicted, Added []int32
}

// DeltaCounts is what a delta reduce did: its Reduce calls, its root lookups
// — one per touched key and non-empty root — and how many of those sought the
// key (the rest read a position the roots' structure recorded, see Located).
type DeltaCounts struct {
	Calls, Lookups, Seeks int64
}

// ReduceDelta is ReduceInto for an output that already holds the previous
// window's result: instead of reducing every key of the roots it re-reduces
// the keys of the payloads that left the window (evicted) and of those that
// entered it (added) — the only keys whose value can differ between two
// consecutive windows — and leaves every other entry of out as it is. Each
// of those keys, in ascending order (the values that moved are not read), is
// looked up in every root: read by index where at records its position (a
// slide of at most one evicted and one added payload, which two cursors walk),
// sought otherwise with one forward-only cursor per root (seek), which a
// position read moves past its entry. A key the roots still hold is reduced
// again over its values in root (window) order, a key they no longer hold is
// deleted. An assignment refreshes the entry's key string to the roots' (the
// rightmost holder's, as in joinK), so out never keeps a string cut from a
// payload that has left the window.
//
// It appends every key it rewrote or deleted to changed — a superset of the
// true difference, a key whose removed and added values cancel is listed; a
// deleted key carries the departed payload's string — and returns the list
// with what it did. It allocates its scratch and nothing per key.
func ReduceDelta(job *Job, evicted, added []Sized, at Located, roots []Sized, out Output, changed []string) ([]string, DeltaCounts) {
	// The cursors stay out of d: the values d hands to Reduce escape, and
	// with them whatever else d points to.
	var few [4]int
	next := few[:0]
	for range roots {
		next = append(next, 0)
	}
	d := deltaReduce{reduce: job.reducer(), roots: roots, out: out, changed: changed, vals: make([]Value, 0, len(roots))}
	if len(evicted) > 1 || len(added) > 1 {
		var buf [16]Sized // one slide's elements of one partition
		moved := append(append(buf[:0], evicted...), added...)
		joinK(moved, func(key string, _ []Value) { d.touch(next, key, unlocated, unlocated) })
		return d.changed, d.counts
	}
	var e, a Payload
	if len(evicted) == 1 {
		e = evicted[0].P
	}
	if len(added) == 1 {
		a = added[0].P
	}
	ea, aa := at.Evicted, at.Added
	i, j := 0, 0
	for i < len(e) || j < len(a) {
		var c int
		switch {
		case j == len(a):
			c = -1
		case i == len(e):
			c = 1
		default:
			c = strings.Compare(e[i].Key, a[j].Key)
		}
		front, back := unlocated, unlocated
		var key string
		if c <= 0 {
			key = e[i].Key
			if ea != nil {
				front = ea[i]
			}
			i++
		}
		if c >= 0 {
			key = a[j].Key
			if aa != nil {
				back = aa[j]
			}
			j++
		}
		d.touch(next, key, front, back)
	}
	return d.changed, d.counts
}

// unlocated marks a key whose position in a root is not recorded: no
// recorded position, −(insertion point)−1 included, comes near it.
const unlocated int32 = math.MinInt32

// deltaReduce is one ReduceDelta's state.
type deltaReduce struct {
	reduce  func(string, []Value) Value
	roots   []Sized
	out     Output
	changed []string
	vals    []Value
	counts  DeltaCounts
}

// touch re-reduces one touched key over the roots. next is, per root, the
// index of the first entry no lookup has passed yet; front and back are the
// key's recorded positions in the first and the last root, or unlocated.
func (d *deltaReduce) touch(next []int, key string, front, back int32) {
	d.vals = d.vals[:0]
	last := len(d.roots) - 1
	for i, r := range d.roots {
		p := r.P
		if len(p) == 0 {
			continue
		}
		d.counts.Lookups++
		pos := unlocated
		switch {
		case i == 0 && front != unlocated:
			pos = front
		case i == last && back != unlocated:
			pos = back
		}
		var k int
		var found bool
		switch {
		case pos >= 0:
			k, found = int(pos), true
		case pos != unlocated:
			k = int(-pos - 1)
		default:
			d.counts.Seeks++
			k = len(p) - len(seek(p[next[i]:], key))
			found = k < len(p) && p[k].Key == key
		}
		if found {
			key = p[k].Key
			d.vals = append(d.vals, p[k].Value)
			k++
		}
		next[i] = k
	}
	if len(d.vals) == 0 {
		delete(d.out, key)
	} else {
		d.out[key] = d.reduce(key, d.vals)
		d.counts.Calls++
	}
	d.changed = append(d.changed, key)
}

// seek returns the suffix of p that starts at its first entry with a key
// ≥ key, by galloping from the front: doubling steps until one overshoots,
// then a binary search inside that step. A run of lookups in ascending key
// order therefore costs O(log gap) each and O(len(p)) at most in total.
func seek(p Payload, key string) Payload {
	if len(p) == 0 || p[0].Key >= key {
		return p
	}
	lo, step := 0, 1 // p[lo].Key < key
	for lo+step < len(p) && p[lo+step].Key < key {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(p)) // hi == len(p) or p[hi].Key ≥ key
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); p[mid].Key < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return p[hi:]
}

// RunScratch executes the whole job non-incrementally: map over every
// split, then one reduce task per partition that — like vanilla Hadoop —
// groups the (map-side combined) values per key and reduces each group
// once (see Job.Reduce). This is the "recompute from scratch" baseline of §7.2.
func RunScratch(job *Job, splits []Split, par int, rec *metrics.Recorder) (Output, error) {
	results, err := Executor{Parallelism: par}.RunMapTasks(job, splits, rec)
	if err != nil {
		return nil, err
	}
	out := make(Output)
	var mu sync.Mutex
	return out, ForEach(max(1, par), job.NumPartitions(), func(p int) error {
		start := time.Now()
		roots := make([]Sized, len(results))
		var bytes int64
		keys := 0
		for i := range results {
			roots[i] = results[i].PartSized(p)
			bytes += roots[i].Bytes
			keys += len(roots[i].P)
		}
		partOut := make(Output, keys)
		reduceCalls := ReduceInto(job, roots, partOut)
		cost := time.Since(start)
		mu.Lock()
		for k, v := range partOut {
			out[k] = v
		}
		mu.Unlock()
		if rec != nil {
			rec.RecordTask(metrics.Task{
				Phase:         metrics.PhaseReduce,
				Cost:          cost,
				InputBytes:    bytes,
				PreferredNode: -1,
			})
			rec.Add(metrics.Counters{ReduceCalls: reduceCalls})
		}
		return nil
	})
}
