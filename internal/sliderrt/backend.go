package sliderrt

import (
	"fmt"

	"slider/internal/core"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
)

// Backend names the aggregation structure behind a runtime's reduce
// phase. The window mode picks the family (§3–§4); the backend picks
// the concrete structure inside it. BackendAuto — the default — lets
// the selection layer resolve the cheapest legal structure for the
// query: combiner properties (from the job declaration, property-tested
// by mapreduce.CheckJob) plus window pattern.
//
// The selection matrix:
//
//	Mode      SplitProcessing  Commutative  → backend
//	Fixed     no               any          → BackendDaba (O(1)/slide)
//	Fixed + AllowedLateness>0: any          → BackendFingerTree
//	                                          (O(K + log w) bulk/late ops)
//	Fixed     yes              yes          → BackendRotating (O(log N))
//	Fixed     yes              no           → error
//	Append    —                any          → BackendCoalescing
//	Variable  —                any          → BackendFolding
//	                                          (BackendRandomizedFolding
//	                                          with Config.Randomized)
//	Engine Strawman              any        → BackendStrawman
//
// An explicit Backend overrides the auto pick but is still validated
// against the mode and the combiner: a non-commutative combiner can
// never be routed to the rotating tree (its circular buckets re-order
// window age relative to tree position), and the DABA backend — strictly
// in-order — never requires commutativity but cannot serve split
// processing or variable-width windows. Out-of-order jobs (a positive
// Config.AllowedLateness) require the finger tree: it is the only
// backend whose window is a searchable structure a late record can land
// in the middle of, so any other explicit backend is ErrBadBackend.
//
// Every concrete backend is a core.Kind under the runtime's name for it —
// the declaration below is the whole mapping, and the value is what
// checkpoints persist (see core.Kind).
type Backend int

// Backends.
const (
	// BackendAuto resolves to the cheapest legal backend for the query.
	BackendAuto Backend = 0
	// BackendDaba is the DABA Lite worst-case O(1) in-order aggregator
	// (fixed-width windows; associative combiner suffices).
	BackendDaba = Backend(core.KindDaba)
	// BackendRotating is the rotating contraction tree of §4.1
	// (fixed-width windows; requires a commutative combiner; the only
	// backend supporting split processing in Fixed mode).
	BackendRotating = Backend(core.KindRotating)
	// BackendCoalescing is the append-only coalescing tree of §4.2.
	BackendCoalescing = Backend(core.KindCoalescing)
	// BackendFolding is the folding tree of §3.1 (variable windows).
	BackendFolding = Backend(core.KindFolding)
	// BackendRandomizedFolding is the randomized folding tree of §3.2.
	BackendRandomizedFolding = Backend(core.KindRandomizedFolding)
	// BackendStrawman is the memoization-only baseline of §2.
	BackendStrawman = Backend(core.KindStrawman)
	// BackendFingerTree is the FiBA-style finger-tree aggregator for
	// out-of-order fixed-width windows: late records land at their true
	// window position (InsertAt) and K-bucket evictions/insertions cost
	// O(K + log w) combines (BulkEvict/BulkInsert). The only backend
	// serving jobs with Config.AllowedLateness > 0; also legal as an
	// explicit choice for in-order Fixed jobs.
	BackendFingerTree = Backend(core.KindFingerTree)
)

// String names the backend as it appears in flags and logs.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDaba:
		return "daba"
	case BackendRotating:
		return "rotating"
	case BackendCoalescing:
		return "coalescing"
	case BackendFolding:
		return "folding"
	case BackendRandomizedFolding:
		return "randomized-folding"
	case BackendStrawman:
		return "strawman"
	case BackendFingerTree:
		return "fingertree"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name as printed by String (the daemons'
// -backend flag).
func ParseBackend(s string) (Backend, error) {
	for _, b := range []Backend{BackendAuto, BackendDaba, BackendRotating,
		BackendCoalescing, BackendFolding, BackendRandomizedFolding, BackendStrawman,
		BackendFingerTree} {
		if s == b.String() {
			return b, nil
		}
	}
	return 0, fmt.Errorf("sliderrt: unknown backend %q", s)
}

// resolveBackend maps the configuration and the job's declared combiner
// properties to a concrete backend, validating an explicit override
// against both. It normalizes Config.Randomized when the randomized
// backend is chosen explicitly, so downstream consumers (checkpoints)
// see a consistent flag.
func (c *Config) resolveBackend(job *mapreduce.Job) (Backend, error) {
	if c.Engine == Strawman {
		switch c.Backend {
		case BackendAuto, BackendStrawman:
			return BackendStrawman, nil
		}
		return 0, fmt.Errorf("%w: engine Strawman cannot run backend %v", ErrBadBackend, c.Backend)
	}
	switch c.Mode {
	case Append:
		switch c.Backend {
		case BackendAuto, BackendCoalescing:
			return BackendCoalescing, nil
		}
		return 0, fmt.Errorf("%w: Append mode requires the coalescing backend, not %v", ErrBadBackend, c.Backend)
	case Variable:
		switch c.Backend {
		case BackendAuto:
			if c.Randomized {
				return BackendRandomizedFolding, nil
			}
			return BackendFolding, nil
		case BackendFolding:
			if c.Randomized {
				return 0, fmt.Errorf("%w: Config.Randomized conflicts with explicit backend %v", ErrBadBackend, c.Backend)
			}
			return BackendFolding, nil
		case BackendRandomizedFolding:
			c.Randomized = true
			return BackendRandomizedFolding, nil
		}
		return 0, fmt.Errorf("%w: Variable mode requires a folding backend, not %v", ErrBadBackend, c.Backend)
	case Fixed:
		if c.AllowedLateness > 0 {
			// Out-of-order job: late records must land mid-window, which
			// only the finger tree's searchable structure supports.
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; out-of-order windows use the finger tree", ErrBadBackend)
			}
			switch c.Backend {
			case BackendAuto, BackendFingerTree:
				return BackendFingerTree, nil
			}
			return 0, fmt.Errorf("%w: out-of-order windows (AllowedLateness=%d) require the finger-tree backend, not %v", ErrBadBackend, c.AllowedLateness, c.Backend)
		}
		switch c.Backend {
		case BackendAuto:
			if c.SplitProcessing {
				// Split processing pre-combines a bucket's tree siblings —
				// a rotating-tree feature.
				if !job.Commutative {
					return 0, fmt.Errorf("%w: job %q: split processing needs the rotating tree, which requires a commutative combiner", ErrBadBackend, job.Name)
				}
				return BackendRotating, nil
			}
			// Fixed-width, in-order, no split processing: the O(1) fast
			// path. In-order aggregation never re-orders buckets, so a
			// non-commutative (merely associative) combiner is fine.
			return BackendDaba, nil
		case BackendDaba:
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; the DABA backend does not support it", ErrBadBackend)
			}
			return BackendDaba, nil
		case BackendRotating:
			if !job.Commutative {
				return 0, fmt.Errorf("%w: job %q: rotating trees require a commutative combiner", ErrBadBackend, job.Name)
			}
			return BackendRotating, nil
		case BackendFingerTree:
			// Legal for in-order fixed windows too: order-preserving, so an
			// associative combiner suffices; split processing stays a
			// rotating-tree feature.
			if c.SplitProcessing {
				return 0, fmt.Errorf("%w: split processing is a rotating-tree feature; the finger-tree backend does not support it", ErrBadBackend)
			}
			return BackendFingerTree, nil
		}
		return 0, fmt.Errorf("%w: Fixed mode requires the daba, rotating, or fingertree backend, not %v", ErrBadBackend, c.Backend)
	}
	return 0, ErrBadMode
}

// Backend reports the resolved — possibly live-switched — backend.
func (rt *Runtime) Backend() Backend { return rt.backend }

// maybeSwitchBackend consults the live-switch hook at the end of a
// completed slide. The hook sees the current backend and a snapshot of
// the contract-phase latency histogram (PR 5's obs layer) and returns
// the backend it wants; the runtime follows it only across the legal
// Fixed-mode pair (daba ↔ rotating, subject to the same property gates
// as resolveBackend). Running after the slide's stats deltas are taken
// keeps per-run TreeStats exact: the next slide reads a fresh baseline.
// A refused or failed switch leaves the runtime on its current backend
// and is noted on the slide's span.
func (rt *Runtime) maybeSwitchBackend(span *metrics.Span) {
	hook := rt.cfg.SwitchHook
	if hook == nil || !rt.bucketed() {
		return
	}
	var contract metrics.HistogramSnapshot
	if o := rt.cfg.Obs; o != nil {
		contract = o.Contract.Snapshot()
	}
	want := hook(rt.backend, contract)
	switchable := func(b Backend) bool { return b == BackendDaba || b == BackendRotating }
	if want == rt.backend || !switchable(want) || !switchable(rt.backend) {
		return
	}
	c2 := rt.cfg
	c2.Backend = want
	if _, err := c2.resolveBackend(rt.job); err != nil {
		return // illegal target (non-commutative combiner, split mode): stay put
	}
	if err := rt.switchBackend(want); err != nil {
		span.Event("backend switch %v → %v abandoned: %v", rt.backend, want, err)
	}
}

// switchBackend re-homes every partition's window onto the target
// backend: the target aggregators are built aside and restored from the
// current ones' snapshots (each adapter converts to the order it keeps),
// and replace them only once every partition restored — a failure leaves
// the window exactly as it was. Work counters restart with the rebuild,
// as on a checkpoint restore.
func (rt *Runtime) switchBackend(want Backend) error {
	aggs, combines := rt.newAggregators(want)
	for p, agg := range aggs {
		if err := agg.Restore(rt.aggs[p].Snapshot()); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	rt.backend, rt.aggs, rt.combines = want, aggs, combines
	rt.snapReq.Store(true)
	return nil
}
