package core

// TreeShape is a structural snapshot of one contraction tree, taken for
// live introspection (the obs server's /debug/tree): the §3 shape
// invariants — height tracking ⌈log2 M⌉, void padding, per-level node
// population — rendered as plain numbers an operator can read while the
// system runs.
type TreeShape struct {
	// Variant is the tree's Kind.String().
	Variant string
	// Height is the tree height in edges (0 for a single node).
	Height int
	// Live is the number of live leaves/buckets in the window.
	Live int
	// Nodes is the number of materialized (non-void) node payloads.
	Nodes int
	// Levels holds the materialized-node count per level, root first —
	// only for variants with an explicit stratified structure (folding,
	// rotating); nil for the memo-table variants.
	Levels []int
}

// Shape returns the folding tree's structural snapshot.
func (t *FoldingTree[T]) Shape() TreeShape {
	s := TreeShape{Variant: KindFolding.String(), Height: t.Height(), Live: t.Live()}
	if t.root == nil {
		return s
	}
	cur := []*fnode[T]{t.root}
	for len(cur) > 0 {
		var next []*fnode[T]
		level := 0
		for _, n := range cur {
			if !n.void {
				level++
			}
			if n.left != nil {
				next = append(next, n.left, n.right)
			}
		}
		s.Levels = append(s.Levels, level)
		s.Nodes += level
		cur = next
	}
	return s
}

// Shape returns the rotating tree's structural snapshot.
func (t *RotatingTree[T]) Shape() TreeShape {
	s := TreeShape{Variant: KindRotating.String(), Height: t.height}
	if t.filled {
		s.Live = t.n
	}
	for d := 0; d <= t.height; d++ {
		first := (1 << d) - 1
		width := 1 << d
		level := 0
		for i := first; i < first+width && i < len(t.nodes); i++ {
			if !t.nodes[i].void {
				level++
			}
		}
		s.Levels = append(s.Levels, level)
		s.Nodes += level
	}
	if t.preOK && t.preHas {
		s.Nodes++
	}
	return s
}

// Shape returns the daba kind's structural snapshot (height 0: a flat ring
// of per-bucket aggregates, no tree).
func (t *TwoStacksLite[T]) Shape() TreeShape {
	s := TreeShape{Variant: KindDaba.String(), Live: t.Len(), Nodes: t.NodeCount()}
	if s.Live > 0 {
		s.Levels = []int{s.Live}
	}
	return s
}

// Shape returns the finger tree's structural snapshot: a balanced
// search tree over the window buckets, one materialized value and one
// cached aggregate per node. Nodes are not stratified by level (treap
// depth varies per node), so Levels is nil.
func (t *FingerTree[T]) Shape() TreeShape {
	return TreeShape{
		Variant: KindFingerTree.String(),
		Height:  t.Height(),
		Live:    t.Len(),
		Nodes:   t.NodeCount(),
	}
}

// Shape returns the coalescing accumulator's structural snapshot (height
// 0: the window collapses to at most a root and a pending payload).
func (c *CoalescingTree[T]) Shape() TreeShape {
	s := TreeShape{Variant: KindCoalescing.String(), Nodes: c.NodeCount()}
	if c.hasRoot {
		s.Live = 1
		s.Levels = []int{1}
	}
	return s
}

// Shape returns the randomized folding tree's structural snapshot. The
// memoized payloads are keyed by signature, not stratified by level, so
// Levels is nil; Height is the expected-log2 height of the last build.
func (t *RandomizedFoldingTree[T]) Shape() TreeShape {
	return TreeShape{
		Variant: KindRandomizedFolding.String(),
		Height:  t.height,
		Live:    len(t.leaves),
		Nodes:   len(t.memo),
	}
}

// Shape returns the strawman tree's structural snapshot: the balanced
// tree over the last Build's leaves, with the memo table as its node
// population.
func (t *StrawmanTree[T]) Shape() TreeShape {
	s := TreeShape{Variant: KindStrawman.String(), Live: t.live, Nodes: len(t.memo)}
	if t.live > 1 {
		s.Height = ceilLog2(t.live)
	}
	return s
}
