package core

// fnode is a node of a folding contraction tree. Leaves hold map-task
// payloads; internal nodes hold combined payloads. A node is void when no
// live payload exists below it (§3.1). A node owns its payload iff
// recomputeNode merged it: a leaf's is the caller's, a node passing a single
// live child through aliases the child's.
type fnode[T any] struct {
	payload T
	owned   bool
	void    bool
	leaf    bool
	left    *fnode[T]
	right   *fnode[T]
	parent  *fnode[T]
}

// FoldingTree is the self-adjusting folding contraction tree of §3.1. It
// supports variable-width window slides: shrink on the left, grow on the
// right, by arbitrary (and different) amounts. The tree is a complete
// binary tree whose height tracks ⌈log2 M⌉ for the current number of leaf
// slots; void leaves pad the structure. Growing joins a fresh complete
// subtree of equal size under a new root (height+1); once the entire left
// half of the leaves is void, the right child is promoted to root
// (height−1).
//
// FoldingTree is not safe for concurrent use.
type FoldingTree[T any] struct {
	merge  MergeFunc[T]
	root   *fnode[T]
	height int
	leaves []*fnode[T]
	start  int // first live leaf slot
	end    int // one past the last live leaf slot
	// rebuildFactor triggers a from-scratch rebalance when the slot
	// count exceeds rebuildFactor × live leaves (§3.2's "initial run"
	// rebalancing fallback for rare drastic shrinks).
	rebuildFactor int
	stats         Stats
	// release, when set, is handed a node's own payload when the node is
	// recomputed (OnRelease). Nodes folded away or dropped by Init and
	// rebuild are left to the collector.
	release func(T)
}

// FoldingOption customizes a FoldingTree.
type FoldingOption[T any] func(*FoldingTree[T])

// WithRebuildFactor sets the slots/live ratio beyond which the tree is
// rebuilt from scratch. factor ≤ 0 disables rebuilding. The paper suggests
// constants like 8 or 16.
func WithRebuildFactor[T any](factor int) FoldingOption[T] {
	return func(t *FoldingTree[T]) { t.rebuildFactor = factor }
}

// NewFolding returns an empty folding tree using merge to combine
// payloads.
func NewFolding[T any](merge MergeFunc[T], opts ...FoldingOption[T]) *FoldingTree[T] {
	t := &FoldingTree[T]{merge: merge, rebuildFactor: 8}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// OnRelease implements Releaser. The hook must be installed before Init;
// with one installed, the merge function must return storage of its own on
// every call.
func (t *FoldingTree[T]) OnRelease(release func(T)) { t.release = release }

// Init performs the initial run (§3): it constructs a complete binary tree
// of height ⌈log2 M⌉ over the given payloads, padding with void leaves.
func (t *FoldingTree[T]) Init(payloads []T) {
	t.root = nil
	t.leaves = nil
	t.start, t.end, t.height = 0, 0, 0
	if len(payloads) == 0 {
		return
	}
	t.height = ceilLog2(len(payloads))
	t.root, t.leaves = buildComplete[T](t.height)
	for i, p := range payloads {
		t.leaves[i].payload = p
		t.leaves[i].void = false
	}
	t.end = len(payloads)
	t.recomputeAbove(t.leaves)
}

// buildComplete builds an all-void complete binary tree with 2^height
// leaves and returns its root and leaves in left-to-right order.
func buildComplete[T any](height int) (*fnode[T], []*fnode[T]) {
	leaves := make([]*fnode[T], 0, 1<<height)
	var build func(h int) *fnode[T]
	build = func(h int) *fnode[T] {
		n := &fnode[T]{void: true}
		if h == 0 {
			n.leaf = true
			leaves = append(leaves, n)
			return n
		}
		n.left = build(h - 1)
		n.right = build(h - 1)
		n.left.parent = n
		n.right.parent = n
		return n
	}
	return build(height), leaves
}

// recomputeNode recombines an internal node from its children. A node with
// a single live child passes that child's payload through without a
// combiner call. The node's own old payload dies first — it is no input of
// the merge, whose inputs are the children's — so the merge that replaces it
// may already be built in its storage. An old payload that aliased a child's
// is the child's to release: every node above a recomputed one is recomputed
// in the same slide, so no alias outlives what it points at.
func (t *FoldingTree[T]) recomputeNode(n *fnode[T]) {
	if n.owned && t.release != nil {
		t.release(n.payload)
	}
	l, r := n.left, n.right
	n.owned = false
	switch {
	case l.void && r.void:
		var zero T
		n.payload = zero
		n.void = true
	case l.void:
		n.payload = r.payload
		n.void = false
	case r.void:
		n.payload = l.payload
		n.void = false
	default:
		n.payload = t.merge(l.payload, r.payload)
		n.void = false
		n.owned = true
		t.stats.Merges++
	}
	t.stats.NodesRecomputed++
}

// Slide moves the window: the oldest drop leaves are removed and the add
// payloads are appended on the right. Either side may be zero; the two
// amounts may differ (variable-width windows). It returns ErrUnderflow if
// drop exceeds the number of live leaves.
func (t *FoldingTree[T]) Slide(drop int, add []T) error {
	if drop < 0 {
		return ErrUnderflow
	}
	if drop > t.Live() {
		return ErrUnderflow
	}

	// Drop the oldest leaves by marking them void.
	for i := 0; i < drop; i++ {
		leaf := t.leaves[t.start]
		leaf.void = true
		var zero T
		leaf.payload = zero
		t.start++
	}
	if t.start == t.end {
		// Window fully drained: restart from scratch with the adds.
		t.Init(add)
		return nil
	}

	// Fold: while the entire left half of the leaves is void, promote
	// the right child to root (height−1).
	for t.height > 0 && t.start >= len(t.leaves)/2 {
		half := len(t.leaves) / 2
		t.root = t.root.right
		t.root.parent = nil
		t.leaves = t.leaves[half:]
		t.start -= half
		t.end -= half
		t.height--
	}

	// Insert new payloads into void slots on the right, unfolding
	// (joining a same-size complete subtree under a new root) when the
	// slots run out.
	for _, p := range add {
		if t.end == len(t.leaves) {
			t.unfold()
		}
		leaf := t.leaves[t.end]
		leaf.payload = p
		leaf.void = false
		t.end++
	}

	t.recomputeAbove(t.leaves[max(t.start-drop, 0):t.start], t.leaves[t.end-len(add):t.end])

	// Rare-case rebalance: if the structure is much larger than the
	// live window, rebuild from scratch (§3.2's fallback strategy).
	if t.rebuildFactor > 0 {
		live := t.Live()
		if live > 0 && len(t.leaves) > t.rebuildFactor*live {
			t.rebuild()
		}
	}
	return nil
}

// unfold doubles the leaf capacity by joining a fresh all-void complete
// subtree of equal size under a new root.
func (t *FoldingTree[T]) unfold() {
	if t.root == nil {
		t.height = 0
		t.root, t.leaves = buildComplete[T](0)
		return
	}
	sibling, newLeaves := buildComplete[T](t.height)
	newRoot := &fnode[T]{left: t.root, right: sibling, void: true}
	t.root.parent = newRoot
	sibling.parent = newRoot
	t.root = newRoot
	t.leaves = append(t.leaves, newLeaves...)
	t.height++
}

// recomputeAbove recomputes the internal nodes on the leaf→root paths of
// the given runs of leaves, level by level (children before parents), each
// level left to right. The runs are in slot order — every leaf for an
// initial run; for a slide the drop leaves before start, less those whose
// subtree folding discarded (they sit below slot 0 now), and the add leaves
// before end — so a frontier is built in slot order and the parents of an
// ordered frontier repeat only side by side: no set is needed, and the
// order merges run in is the same from run to run. All leaves sit at the
// same depth of the complete tree, so each frontier holds nodes of a single
// level.
func (t *FoldingTree[T]) recomputeAbove(runs ...[]*fnode[T]) {
	var frontier []*fnode[T]
	parents := func(nodes []*fnode[T]) {
		for _, n := range nodes {
			if p := n.parent; p != nil && (len(frontier) == 0 || frontier[len(frontier)-1] != p) {
				frontier = append(frontier, p)
			}
		}
	}
	for _, run := range runs {
		parents(run)
	}
	for len(frontier) > 0 {
		level := frontier
		for _, n := range level {
			t.recomputeNode(n)
		}
		frontier = nil
		parents(level)
	}
}

// rebuild reconstructs a minimal-height tree from the live payloads, as an
// initial run would.
func (t *FoldingTree[T]) rebuild() {
	live := make([]T, 0, t.Live())
	for i := t.start; i < t.end; i++ {
		live = append(live, t.leaves[i].payload)
	}
	t.Init(live)
}

// Root returns the combined payload of the whole window, or false when the
// window is empty.
func (t *FoldingTree[T]) Root() (T, bool) {
	if t.root == nil || t.root.void {
		var zero T
		return zero, false
	}
	return t.root.payload, true
}

// Live returns the number of live (non-void) leaves.
func (t *FoldingTree[T]) Live() int { return t.end - t.start }

// Slots returns the total number of leaf slots (live + void).
func (t *FoldingTree[T]) Slots() int { return len(t.leaves) }

// Height returns the current tree height (edges from root to leaf).
func (t *FoldingTree[T]) Height() int {
	if t.root == nil {
		return 0
	}
	return t.height
}

// Stats returns the accumulated work counters.
func (t *FoldingTree[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters (typically between runs).
func (t *FoldingTree[T]) ResetStats() { t.stats = Stats{} }

// Payloads returns the live payloads in window order (oldest first).
// It is primarily useful for testing and debugging.
func (t *FoldingTree[T]) Payloads() []T {
	out := make([]T, 0, t.Live())
	for i := t.start; i < t.end; i++ {
		out = append(out, t.leaves[i].payload)
	}
	return out
}

// NodeCount returns the number of non-void nodes currently materialized,
// used for space accounting (Figure 13c).
func (t *FoldingTree[T]) NodeCount() int {
	var count func(n *fnode[T]) int
	count = func(n *fnode[T]) int {
		if n == nil {
			return 0
		}
		c := 0
		if !n.void {
			c = 1
		}
		return c + count(n.left) + count(n.right)
	}
	return count(t.root)
}

// ForEachPayload visits every non-void node payload (space accounting).
func (t *FoldingTree[T]) ForEachPayload(fn func(T)) {
	var walk func(n *fnode[T])
	walk = func(n *fnode[T]) {
		if n == nil {
			return
		}
		if !n.void {
			fn(n.payload)
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
}
