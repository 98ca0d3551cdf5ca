// Package sim is a seeded, fully deterministic simulation harness for the
// contraction-tree family and the sliderrt runtime (FoundationDB-style
// simulation testing; see DESIGN.md §10).
//
// A Trace is a randomized but reproducible window schedule — appends,
// variable-width slides, wild width fluctuation, checkpoint/restore
// cycles, memo fail/recover events, and GC pressure. Run drives the trace
// through one aggregator (tree layer) or through runtimes at
// Config.Parallelism 1/4/8 (runtime layer) and checks, after every step:
//
//   - the incremental root equals a from-scratch recomputation oracle,
//   - nothing reachable is storage the structure released (the ownership
//     oracle: a released payload is scribbled over, never recycled),
//   - at the runtime layer, outputs, fingerprints, checkpoint bytes and
//     work counters are identical across parallelism levels and whether or
//     not a run's upkeep ran before the next entry point asked for it,
//   - delta-proportional work bounds hold (merge count ≤ c·(delta + log
//     window) with a generous constant),
//   - restored state matches a freshly restored copy (fingerprint and
//     Stats parity).
//
// Failures replay from a single seed (ReplayLine) and shrink to a minimal
// reproducer printed as a copy-pasteable Go test (Shrink, FormatRepro).
package sim

import (
	"fmt"
	"slices"
	"sort"

	"slider/internal/core"
)

// Layer selects which implementation stack a run drives.
type Layer int

// Harness layers.
const (
	// LayerTree drives the core contraction tree directly.
	LayerTree Layer = iota
	// LayerRuntime drives the full sliderrt runtime (map tasks, memo
	// store, checkpoint codec) under the equivalent configuration.
	LayerRuntime
)

// String returns the Go identifier of the layer (used by FormatRepro).
func (l Layer) String() string {
	if l == LayerRuntime {
		return "LayerRuntime"
	}
	return "LayerTree"
}

// Options tunes a run.
type Options struct {
	// Layer selects the tree layer (default) or the full runtime.
	Layer Layer
	// Pars are the Config.Parallelism levels the runtime layer runs in
	// lockstep and compares; defaults to 1, 4, 8. A tree is single-threaded
	// and the tree layer ignores them.
	Pars []int
	// Buggify enables fault-injection points in the trees under test
	// (the harness's own acceptance tests only).
	Buggify core.Buggify
	// NoBounds disables the delta-proportional work-bound checks.
	NoBounds bool
	// Ownership replaces the runtime layer's recycling of released payload
	// storage by the ownership oracle: what a structure releases is
	// scribbled over instead, after every run nothing the runtime holds or
	// has delivered may carry the scribble, and when a run's upkeep runs,
	// neither may the roots the run handed to the reduce. (The tree layer
	// recycles nothing and always runs under the oracle.)
	Ownership bool
	// DistFaults runs the runtime layer's map phase on a real dist
	// worker cluster and lets the trace's worker ops (crash, restart,
	// delay, drop, corrupt — see GenerateChaos) inject faults into it.
	// The oracle checks are unchanged: every slide must still match the
	// from-scratch result, whatever the fault timing.
	DistFaults bool
	// LongKeys draws the runtime layer's splits from a vocabulary of keys
	// whose 8-byte prefixes do not order them on their own (genLongKeySplit)
	// in place of genSplit's, so that a trace's seed keeps the splits and the
	// replay lines it had.
	LongKeys bool
}

func (o Options) pars() []int {
	if len(o.Pars) > 0 {
		return o.Pars
	}
	return []int{1, 4, 8}
}

// CheckError reports a failed check: which step of which trace, which
// check, and a replay recipe. Step −1 is the initial run.
type CheckError struct {
	Trace Trace
	Step  int
	Check string
	Msg   string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("sim: %s check failed at step %d of %s: %s\n%s",
		e.Check, e.Step, e.Trace, e.Msg, ReplayLine(e.Trace))
}

// Run executes the trace under the options and returns nil when every
// check passes, or a *CheckError naming the first failure.
func Run(tr Trace, opt Options) error {
	if opt.Layer == LayerRuntime {
		return runRuntime(tr, opt)
	}
	return runTree(tr, opt)
}

// runTree drives the trace through one tree driver.
func runTree(tr Trace, opt Options) error {
	d := newTreeDriver(tr.Kind, tr.Initial, opt.Buggify)
	fail := func(step int, check, format string, args ...any) *CheckError {
		return &CheckError{Trace: tr, Step: step, Check: check, Msg: fmt.Sprintf(format, args...)}
	}

	var window []uint64
	var nextID uint64
	takeIDs := func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = nextID
			nextID++
		}
		return ids
	}

	initIDs := takeIDs(tr.Initial)
	if err := d.init(initIDs); err != nil {
		return fail(-1, "init", "%v", err)
	}
	window = initIDs
	if err := checkStep(tr, -1, d, window); err != nil {
		return err
	}

	prevStats := d.stats()
	// slid sums the slides' merges, upkeep included, and the buckets they
	// pushed, for the trace-wide bound.
	var slid struct {
		merges int64
		pushed int
	}
	// bulkBound holds one out-of-order operation over k buckets to the
	// no-log-factor budget.
	bulkBound := func(step int, what string, k int) error {
		merges := d.stats().Merges - prevStats.Merges
		if limit := bulkMergeBound(k, len(window)); !opt.NoBounds && merges > limit {
			return fail(step, "bulk-bound", "%s k=%d window=%d performed %d merges, bound %d",
				what, k, len(window), merges, limit)
		}
		return nil
	}
	for step, op := range tr.Ops {
		switch op.Kind {
		case OpSlide:
			drop, add := clampSlide(tr.Kind, op, len(window))
			ids := takeIDs(add)
			if err := d.slide(drop, ids); err != nil {
				return fail(step, "slide", "drop=%d add=%d: %v", drop, add, err)
			}
			// What a slide reports as evicted — the runtime re-reduces
			// those elements' keys — is exactly the model's oldest drop
			// leaves, in window order, for the reordering kinds too.
			if !slices.Equal(d.evicted, pay(window[:drop])) {
				return fail(step, "evicted", "drop=%d: slide reports %v evicted, the window's oldest are %v",
					drop, d.evicted, window[:drop])
			}
			window = append(window[drop:], ids...)
			if err := checkStep(tr, step, d, window); err != nil {
				return err
			}
			if !opt.NoBounds {
				cur := d.stats()
				merges := cur.Merges - prevStats.Merges
				if limit := mergeBound(tr.Kind, drop, add, len(window)); merges > limit {
					return fail(step, "work-bound",
						"slide drop=%d add=%d window=%d performed %d merges, bound %d",
						drop, add, len(window), merges, limit)
				}
				slid.merges += merges
				slid.pushed += add
				if limit := dabaTraceBound(slid.pushed, tr.Initial); tr.Kind.daba() && slid.merges > limit {
					return fail(step, "trace-bound", "%d slides' merges for %d buckets pushed, bound %d",
						slid.merges, slid.pushed, limit)
				}
			}
		case OpCheckpoint:
			snap := d.agg.Snapshot()
			if err := d.restore(snap); err != nil {
				return fail(step, "restore", "in-place: %v", err)
			}
			fresh := newTreeDriver(tr.Kind, tr.Initial, opt.Buggify)
			if err := fresh.restore(snap); err != nil {
				return fail(step, "restore", "fresh: %v", err)
			}
			// A restored tree must be indistinguishable from a tree
			// freshly restored from the same checkpoint: same
			// structure, same work counters.
			if got, want := d.fingerprint(), fresh.fingerprint(); got != want {
				return fail(step, "restore-fingerprint",
					"in-place restore fingerprint %#x != fresh restore %#x", got, want)
			}
			if got, want := d.stats(), fresh.stats(); got != want {
				return fail(step, "restore-stats",
					"in-place restore stats %+v != fresh restore %+v", got, want)
			}
			if err := checkStep(tr, step, d, window); err != nil {
				return err
			}
		case OpLateAppend:
			if !tr.Kind.outOfOrder() {
				break
			}
			late := clampLateness(op.Pos, len(window))
			pos := len(window) - late
			id := takeIDs(1)[0]
			if err := d.lateInsert(pos, id); err != nil {
				return fail(step, "late-append", "pos=%d (lateness %d): %v", pos, late, err)
			}
			nw := make([]uint64, 0, len(window)+1)
			nw = append(nw, window[:pos]...)
			nw = append(nw, id)
			nw = append(nw, window[pos:]...)
			window = nw
			if err := checkStep(tr, step, d, window); err != nil {
				return err
			}
			if err := bulkBound(step, "late append", 1); err != nil {
				return err
			}
		case OpBulkEvict:
			if !tr.Kind.outOfOrder() {
				break
			}
			k := clampBulkEvict(op.Drop, len(window))
			if k == 0 {
				break
			}
			if err := d.bulkEvict(k); err != nil {
				return fail(step, "bulk-evict", "k=%d: %v", k, err)
			}
			window = window[k:]
			if err := checkStep(tr, step, d, window); err != nil {
				return err
			}
			if err := bulkBound(step, "bulk evict", k); err != nil {
				return err
			}
		case OpBulkInsert:
			if !tr.Kind.outOfOrder() {
				break
			}
			k := clampBulkInsert(op.Add, len(window))
			if k == 0 {
				break
			}
			ids := takeIDs(k)
			if err := d.bulkInsert(ids); err != nil {
				return fail(step, "bulk-insert", "k=%d: %v", k, err)
			}
			window = append(window, ids...)
			if err := checkStep(tr, step, d, window); err != nil {
				return err
			}
			if err := bulkBound(step, "bulk insert", k); err != nil {
				return err
			}
		case OpFailNode, OpRecoverNode, OpGCPressure,
			OpWorkerCrash, OpWorkerRestart, OpWorkerDelay, OpWorkerDrop, OpWorkerCorrupt:
			// Memo- and dist-layer events; nothing to do at the tree layer.
		}
		prevStats = d.stats()
	}
	return nil
}

// clampSlide normalizes a slide against the current model window so that
// shrunken traces (whose preceding ops were removed) stay legal.
func clampSlide(kind Kind, op Op, live int) (drop, add int) {
	drop, add = op.Drop, op.Add
	switch {
	case kind.fixedWidth():
		if drop > live {
			drop = live
		}
		add = drop // fixed-width: drop == add always
	case kind.appendOnly():
		drop = 0
		if add < 1 {
			add = 1
		}
	default:
		if drop > live {
			drop = live
		}
		if drop < 0 {
			drop = 0
		}
		if add < 0 {
			add = 0
		}
		if drop == 0 && add == 0 {
			add = 1
		}
	}
	return drop, add
}

// clampLateness normalizes a late-append's lateness against the live
// window (shrunken traces may have lost the ops that grew it) and the
// simLateness watermark budget the runtime layer enforces.
func clampLateness(pos, live int) int {
	if pos < 0 {
		pos = 0
	}
	if pos > live {
		pos = live
	}
	if pos > simLateness {
		pos = simLateness
	}
	return pos
}

// clampBulkEvict keeps a bulk eviction inside the live window, always
// leaving at least one bucket; 0 means skip the op.
func clampBulkEvict(k, live int) int {
	if k > live-1 {
		k = live - 1
	}
	if k < 1 {
		return 0
	}
	return k
}

// clampBulkInsert caps a bulk insertion at the window cap; 0 means skip.
func clampBulkInsert(k, live int) int {
	if k < 1 {
		k = 1
	}
	if live+k > maxWindow {
		k = maxWindow - live
	}
	if k < 1 {
		return 0
	}
	return k
}

// checkStep verifies that the driver exposes no released storage and its
// root against the from-scratch oracle.
func checkStep(tr Trace, step int, d *treeDriver, window []uint64) error {
	if err := d.ownership(); err != nil {
		return &CheckError{Trace: tr, Step: step, Check: "ownership", Msg: err.Error()}
	}
	return checkOracle(tr, step, d, window)
}

// oracleRoot recomputes the window's combined payload from scratch — an
// independent left fold over singleton leaf payloads, sharing no code
// with the incremental trees.
func oracleRoot(window []uint64) pay {
	if len(window) == 0 {
		return nil
	}
	acc := pay{window[0]}
	for _, id := range window[1:] {
		acc = pmerge(acc, pay{id})
	}
	return acc
}

// checkOracle compares the driver's root against the from-scratch oracle.
// Rotating trees reorder bucket age relative to tree position (their
// merge must be commutative), so their root is compared as a multiset;
// every other tree must reproduce the window sequence exactly.
func checkOracle(tr Trace, step int, d *treeDriver, window []uint64) error {
	want := oracleRoot(window)
	got, ok := d.root()
	if len(window) == 0 {
		if ok {
			return &CheckError{Trace: tr, Step: step, Check: "oracle",
				Msg: fmt.Sprintf("window is empty but root is %v", got)}
		}
		return nil
	}
	if !ok {
		return &CheckError{Trace: tr, Step: step, Check: "oracle",
			Msg: fmt.Sprintf("window has %d items but tree reports no root", len(window))}
	}
	g, w := got, want
	if tr.Kind.reorders() {
		g = append(pay(nil), got...)
		w = append(pay(nil), want...)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	if len(g) != len(w) {
		return &CheckError{Trace: tr, Step: step, Check: "oracle",
			Msg: fmt.Sprintf("root has %d items, from-scratch oracle has %d", len(g), len(w))}
	}
	for i := range g {
		if g[i] != w[i] {
			return &CheckError{Trace: tr, Step: step, Check: "oracle",
				Msg: fmt.Sprintf("root diverges from from-scratch oracle at position %d: got %d, want %d", i, g[i], w[i])}
		}
	}
	return nil
}

// mergeBound returns the maximum merges one slide may perform: the
// paper's delta-proportional work claim, c·(delta + log window) with a
// generous constant. The strawman baseline is exempt (its work is
// Θ(window) by design — that is what Figure 8 measures).
func mergeBound(kind Kind, drop, add, liveAfter int) int64 {
	delta := int64(drop + add)
	h := int64(ceilLog2(liveAfter+2) + 2)
	switch kind {
	case Coalescing, CoalescingSplit:
		// One append (plus at most one pending fold) per slide.
		return 8
	case Rotating, RotatingSplit:
		// One root path per rotated bucket, plus split pre-processing.
		return 8 * (delta + 1) * h
	case Daba, Periods:
		// Two-Stacks Lite: one merge per pushed bucket, plus at most one
		// flip of at most n−2 merges per n buckets (the window of n is
		// liveAfter) — its upkeep, which the bound includes. The query takes
		// the two halves unmerged. No log factor; amortized, the trace-wide
		// dabaTraceBound holds it to two merges a bucket.
		n := int64(liveAfter)
		flips := (int64(add) + n - 1) / n
		return int64(add) + flips*max(n-2, 0)
	case FingerTree:
		// A slide is one bulk evict plus one bulk insert; the budget is
		// the looser one of delta single O(log w) slides. (The explicit
		// bulk ops get the tighter no-log-factor bulkMergeBound instead.)
		return 8*(delta+1)*h + 32
	case Randomized:
		// Expected O(log) per changed path; generous constant for the
		// probabilistic grouping.
		return 8*(delta+1)*h + 32
	case Folding:
		bound := 8*(delta+1)*h + 16
		if 2*drop >= liveAfter+drop-add {
			// Drastic shrink: the §3.2 fallback may rebuild from
			// scratch, costing O(live).
			bound += int64(2 * (liveAfter + 1))
		}
		return bound
	default: // Strawman
		return 1 << 62
	}
}

// dabaTraceBound is the daba kind's amortized budget over a whole trace, per
// tree: every bucket a slide pushed is merged at most twice — into the back's
// running sum and at its flip — plus a window's worth of slack. (Init and a
// restore build their front outside it.)
func dabaTraceBound(pushed, width int) int64 {
	return int64(2*pushed + width)
}

// bulkMergeBound is the budget for one out-of-order bulk operation over
// K buckets: c·(K + log w) combines with NO K·log w cross term — K may
// not pick up a log factor, which is the whole point of the FiBA bulk
// algorithms (one split for a bulk evict, one O(K) build plus one join
// for a bulk insert, one root path for a late append).
func bulkMergeBound(k, liveAfter int) int64 {
	return int64(8*k + 32*ceilLog2(liveAfter+2) + 64)
}

// ceilLog2 mirrors core's helper (kept local; core does not export it).
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	h := 0
	for size := 1; size < n; size <<= 1 {
		h++
	}
	return h
}
