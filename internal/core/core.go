// Package core implements self-adjusting contraction trees, the primary
// contribution of "Slider: Incremental Sliding Window Analytics"
// (Middleware 2014, §2–§4).
//
// A contraction tree structures the reduce-side aggregation of a
// data-parallel job as a shallow balanced tree of Combiner applications.
// Leaves hold the outputs of map tasks (or buckets of them); internal
// nodes hold the combined payload of their children. When the sliding
// window moves, only the nodes on paths from changed leaves to the root
// are recomputed, so the update work is proportional to the delta with
// only a logarithmic dependence on the window size.
//
// The package provides the paper's full family of trees:
//
//   - FoldingTree (§3.1): variable-width windows; folds/unfolds complete
//     subtrees to track ⌈log2 M⌉ height.
//   - RandomizedFoldingTree (§3.2): skip-list-style probabilistic
//     grouping; expected log height even under drastic window shrinks.
//   - RotatingTree (§4.1): fixed-width windows; circular buckets with a
//     static balanced tree and optional split processing.
//   - CoalescingTree (§4.2): append-only windows with optional split
//     processing.
//   - StrawmanTree (§2): the memoization-only balanced tree used as the
//     evaluation baseline.
//
// Trees are generic over the payload type T. Nothing writes to a payload
// that is live: merge functions must return fresh payloads and never mutate
// their arguments, because nodes share payloads across runs — a node that
// passes a single child through holds the child's payload, a leaf holds the
// caller's. But a slot owns its storage: an aggregate a structure built with
// its merge function is that structure's alone, and when it is overwritten
// or evicted it is dead. The structures that track this (Releaser: DabaLite,
// FoldingTree) hand each dead aggregate to a release hook, whose owner may
// build a later merge in its storage; the others leave theirs to the
// collector. Either way a payload obtained from a structure — Roots,
// ForEachPayload, Snapshot — is read within the run that obtained it.
package core

import "errors"

// MergeFunc combines two payloads in window order (a precedes b). It must
// be associative; rotating trees additionally require commutativity.
type MergeFunc[T any] func(a, b T) T

// Stats counts the work a tree performed. Merge invocations are the
// paper's unit of contraction work; node counts separate recomputation
// from reuse.
type Stats struct {
	// Merges is the number of merge (combiner) invocations.
	Merges int64
	// NodesRecomputed counts internal nodes whose payload was rebuilt
	// (including pass-through nodes that copy a single child).
	NodesRecomputed int64
	// NodesReused counts internal nodes reused without recomputation.
	NodesReused int64
}

// add accumulates s2 into s.
func (s *Stats) add(s2 Stats) {
	s.Merges += s2.Merges
	s.NodesRecomputed += s2.NodesRecomputed
	s.NodesReused += s2.NodesReused
}

// Common errors returned by tree operations.
var (
	// ErrEmpty is returned when an operation needs a non-empty tree.
	ErrEmpty = errors.New("core: contraction tree is empty")
	// ErrUnderflow is returned when a slide removes more leaves than
	// the window holds.
	ErrUnderflow = errors.New("core: slide removes more items than the window contains")
	// ErrNotPrepared is returned when a split-processing foreground
	// step runs without its background pre-processing step.
	ErrNotPrepared = errors.New("core: background pre-processing has not run")
	// ErrWindowNotFull is returned when a rotating tree is asked to
	// rotate before the initial window has filled.
	ErrWindowNotFull = errors.New("core: rotating window is not full yet")
	// ErrPartitionMismatch is returned when a multi-level compute
	// function yields the wrong number of per-partition payloads.
	ErrPartitionMismatch = errors.New("core: compute returned wrong partition count")
)

// ceilLog2 returns ⌈log2 n⌉ for n ≥ 1.
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

// ceilPow2 returns the smallest power of two ≥ n (n ≥ 1).
func ceilPow2(n int) int {
	return 1 << ceilLog2(n)
}
