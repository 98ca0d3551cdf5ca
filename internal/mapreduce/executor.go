package mapreduce

import (
	"runtime"
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
	// Bytes estimates the total output size across partitions.
	Bytes int64
	// PartBytes holds PayloadBytes of each entry of Parts (they sum to
	// Bytes), so the runtime's contraction trees take the sizes over
	// instead of walking the payloads again. A MapRunner that leaves it
	// nil has its payloads measured on arrival (see PartSized).
	PartBytes []int64
	// Records is the number of input records processed.
	Records int64
}

// MapRunner abstracts where map tasks execute: in-process (Executor) or
// on remote workers (internal/dist.Pool). Implementations return results
// in split order.
//
// The splits are the caller's again once RunMap returns, whatever it
// returns: an implementation reads them only during the call — nothing it
// started may read a split afterwards (dist's hedged senders stop at the
// call's end) — and keeps no split and no Records slice, so the caller may
// reuse their storage.
type MapRunner interface {
	// RunMap executes the job's map function over every split.
	RunMap(job *Job, splits []Split) ([]MapResult, error)
}

// Executor runs map tasks in parallel and measures their costs.
type Executor struct {
	// Parallelism bounds concurrent map tasks; 0 means GOMAXPROCS.
	Parallelism int
	// NodeOf, when set, supplies the input-locality node of each split
	// (by index), recorded as the map task's preferred node.
	NodeOf func(splitIndex int) int
}

var _ MapRunner = Executor{}

// RunMap implements MapRunner.
func (e Executor) RunMap(job *Job, splits []Split) ([]MapResult, error) {
	return e.RunMapTasks(job, splits, nil)
}

// PartSized returns partition p's payload with its size: the one the map
// task measured when it built the payload, or — for results of a
// MapRunner that does not fill PartBytes — one walk on arrival.
func (r *MapResult) PartSized(job *Job, p int) Sized {
	if len(r.PartBytes) == len(r.Parts) {
		return Sized{P: r.Parts[p], Bytes: r.PartBytes[p]}
	}
	return Size(job, r.Parts[p])
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
		for i, r := range results {
			node := -1
			if e.NodeOf != nil {
				node = e.NodeOf(i)
			}
			rec.RecordTask(metrics.Task{
				Phase:         metrics.PhaseMap,
				Cost:          r.Cost,
				InputBytes:    r.Bytes,
				PreferredNode: node,
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

// ReducePayload applies the job's Reduce to every key of the root
// payload(s) and returns the final output. Multiple payloads for the same
// key are passed to Reduce together, in window order (the "union"
// reduction of §4.2's foreground step).
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
// their sizes. It returns the number of Reduce calls.
//
// A lone non-empty root — every slide outside split processing — is
// already the key-ordered stream: its entries are walked as they lie, each
// value handed to Reduce through one reused one-element slice. Several
// roots are joined into that stream (joinK) and hand each key's values
// over together, in window order. Either way keys reach Reduce in
// ascending order, and the slice it receives is only valid for the
// duration of the call (see Job.Reduce).
func ReduceInto(job *Job, roots []Sized, out Output) int64 {
	var lone Payload
	nonEmpty := 0
	for _, r := range roots {
		if len(r.P) > 0 {
			lone = r.P
			nonEmpty++
		}
	}
	switch nonEmpty {
	case 0:
		return 0
	case 1:
		one := make([]Value, 1)
		for _, e := range lone {
			one[0] = e.Value
			out[e.Key] = job.Reduce(e.Key, one)
		}
		return int64(len(lone))
	}
	var calls int64
	joinK(roots, func(key string, vals []Value) {
		out[key] = job.Reduce(key, vals)
		calls++
	})
	return calls
}

// ReduceDelta is ReduceInto for an output that already holds the previous
// window's result: instead of reducing every key of the roots it re-reduces
// the keys of the payloads that left the window (evicted) and of those that
// entered it (added) — the only keys whose value can differ between two
// consecutive windows — and leaves every other entry of out as it is. Each
// of those keys, in ascending order (joinK; the values that moved are not
// read), is looked up in the roots with one forward-only cursor per root
// (seek): a key the roots still hold is reduced again over its values in
// root (window) order, a key they no longer hold is deleted. An assignment
// refreshes the entry's key string to the roots' (the rightmost holder's, as
// in joinK), so out never keeps a string cut from a payload that has left
// the window.
//
// It appends every key it rewrote or deleted to changed — a superset of the
// true difference, a key whose removed and added values cancel is listed; a
// deleted key carries the departed payload's string — and returns the list
// with the number of Reduce calls. It allocates its scratch and nothing per
// key.
func ReduceDelta(job *Job, evicted, added, roots []Sized, out Output, changed []string) ([]string, int64) {
	var buf [16]Sized // one slide's elements of one partition, typically two
	moved := append(append(buf[:0], evicted...), added...)
	var few [4]Payload
	rest := few[:0] // per non-empty root, the entries no lookup has passed yet
	for _, r := range roots {
		if len(r.P) > 0 {
			rest = append(rest, r.P)
		}
	}
	vals := make([]Value, 0, len(rest))
	var calls int64
	joinK(moved, func(key string, _ []Value) {
		vals = vals[:0]
		for i, r := range rest {
			if r = seek(r, key); len(r) > 0 && r[0].Key == key {
				key = r[0].Key
				vals = append(vals, r[0].Value)
			}
			rest[i] = r
		}
		if len(vals) == 0 {
			delete(out, key)
		} else {
			out[key] = job.Reduce(key, vals)
			calls++
		}
		changed = append(changed, key)
	})
	return changed, calls
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
// groups the (map-side combined) values per key and applies Reduce once
// to each group. This is the "recompute from scratch" baseline of §7.2.
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
			roots[i] = results[i].PartSized(job, p)
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
