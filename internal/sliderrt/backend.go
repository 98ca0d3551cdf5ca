package sliderrt

import (
	"fmt"

	"slider/internal/core"
	"slider/internal/mapreduce"
)

// Backend names the aggregation structure behind a runtime's reduce
// phase: it is core.Kind — one vocabulary for the structure, from the
// -backend flag through checkpoints to /debug/tree — and Config.Backend is
// the one selector of it. The window mode picks the family (§3–§4); the
// backend picks the concrete structure inside it. BackendAuto — the
// default — lets the selection layer resolve the cheapest legal structure
// for the query: combiner properties (from the job declaration,
// property-tested by mapreduce.CheckJob) plus window pattern.
//
// What BackendAuto resolves to:
//
//	Mode      AllowedLateness  SplitProcessing  → backend
//	Append    —                any              → BackendCoalescing
//	Variable  —                no               → BackendFolding
//	Fixed     > 0              no               → BackendFingerTree
//	                                              (O(K + log w) bulk/late ops)
//	Fixed     0                yes              → BackendRotating (O(log N))
//	Fixed     0                no               → BackendDaba (O(1)/slide)
//
// What any backend, picked or explicit, must satisfy — every violation is
// ErrBadBackend at New:
//
//	the mode it serves     coalescing: Append; daba, rotating, fingertree:
//	                       Fixed; folding, randomized-folding: Variable;
//	                       strawman: every mode (it memoizes per split)
//	AllowedLateness > 0    fingertree only — the one structure whose window
//	                       a late record can land in the middle of
//	SplitProcessing        coalescing and rotating only — the two trees
//	                       with a background step
//	rotating               a commutative combiner (its circular buckets
//	                       re-order window age relative to tree position)
//
// DABA and the finger tree are order-preserving, so an associative
// combiner suffices for them.
type Backend = core.Kind

// Backends.
const (
	// BackendAuto resolves to the cheapest legal backend for the query.
	BackendAuto Backend = 0
	// BackendDaba is the DABA Lite worst-case O(1) in-order aggregator
	// (fixed-width windows; associative combiner suffices).
	BackendDaba = core.KindDaba
	// BackendRotating is the rotating contraction tree of §4.1
	// (fixed-width windows; requires a commutative combiner; the only
	// backend supporting split processing in Fixed mode).
	BackendRotating = core.KindRotating
	// BackendCoalescing is the append-only coalescing tree of §4.2.
	BackendCoalescing = core.KindCoalescing
	// BackendFolding is the folding tree of §3.1 (variable windows).
	BackendFolding = core.KindFolding
	// BackendRandomizedFolding is the randomized folding tree of §3.2.
	BackendRandomizedFolding = core.KindRandomizedFolding
	// BackendStrawman is the memoization-only baseline of §2 (compared in
	// Figure 8): a memoized balanced binary tree over the splits.
	BackendStrawman = core.KindStrawman
	// BackendFingerTree is the FiBA-style finger-tree aggregator for
	// out-of-order fixed-width windows: late records land at their true
	// window position (InsertAt) and K-bucket evictions/insertions cost
	// O(K + log w) combines (BulkEvict/BulkInsert). The only backend
	// serving jobs with Config.AllowedLateness > 0; also legal as an
	// explicit choice for in-order Fixed jobs.
	BackendFingerTree = core.KindFingerTree
)

// servedMode is the window mode a structure serves; zero for the strawman,
// which serves all of them, and for a value that names no structure.
func servedMode(b Backend) Mode {
	switch b {
	case BackendCoalescing:
		return Append
	case BackendDaba, BackendRotating, BackendFingerTree:
		return Fixed
	case BackendFolding, BackendRandomizedFolding:
		return Variable
	}
	return 0
}

// resolveBackend maps the configuration and the job's declared combiner
// properties to a concrete backend — the matrix on the Backend type.
func (c *Config) resolveBackend(job *mapreduce.Job) (Backend, error) {
	b := c.Backend
	if b == BackendAuto {
		switch {
		case c.Mode == Append:
			b = BackendCoalescing
		case c.Mode == Variable:
			b = BackendFolding
		case c.AllowedLateness > 0:
			b = BackendFingerTree
		case c.SplitProcessing:
			b = BackendRotating
		default:
			// Fixed-width, in-order, no split processing: the O(1) path.
			b = BackendDaba
		}
	}
	bad := func(format string, args ...any) (Backend, error) {
		return 0, fmt.Errorf("%w: backend %v %s", ErrBadBackend, b, fmt.Sprintf(format, args...))
	}
	switch {
	case servedMode(b) != c.Mode && b != BackendStrawman:
		return bad("does not serve mode %v", c.Mode)
	case c.AllowedLateness > 0 && b != BackendFingerTree:
		return bad("cannot take late records: AllowedLateness=%d needs backend %v", c.AllowedLateness, BackendFingerTree)
	case c.SplitProcessing && b != BackendCoalescing && b != BackendRotating:
		return bad("has no background step: SplitProcessing needs backend %v or %v", BackendCoalescing, BackendRotating)
	case b == BackendRotating && !job.Commutative:
		return bad("needs a commutative combiner, which job %q does not declare", job.Name)
	}
	return b, nil
}

// Backend reports the resolved backend.
func (rt *Runtime) Backend() Backend { return rt.backend }
