package core

// RotatingTree is the rotating contraction tree for fixed-width sliding
// windows (§4.1). The window holds N buckets (each bucket combines the w
// splits of one slide); the buckets are the leaves of a static balanced
// binary tree organized as a circular list. A slide replaces the oldest
// bucket with the new one and recomputes only the leaf's root path —
// log2(N) combiner calls.
//
// Because rotation re-orders bucket age relative to tree position, the
// merge function must be commutative in addition to associative.
//
// Split processing (§4): PrepareBackground pre-combines the sibling
// payloads along the next victim's root path into a single intermediate
// payload I; the next foreground update then needs a single merge of the
// new bucket with I before the final Reduce.
//
// RotatingTree is not safe for concurrent use.
type RotatingTree[T any] struct {
	merge  MergeFunc[T]
	n      int // buckets in the window
	pad    int // leaf slots (n rounded up to a power of two)
	height int
	nodes  []rtnode[T] // heap layout: root at 0, leaves at pad-1 .. 2·pad-2
	victim int         // bucket position to be replaced by the next slide
	filled bool
	pre    T    // pre-combined siblings along victim's root path
	preOK  bool // PrepareBackground has run for the current victim
	preHas bool // pre holds a payload (false only for N == 1)
	bug    Buggify
	stats  Stats
}

type rtnode[T any] struct {
	payload T
	void    bool
}

// NewRotating returns a rotating tree for a window of n buckets.
func NewRotating[T any](merge MergeFunc[T], n int) *RotatingTree[T] {
	if n < 1 {
		n = 1
	}
	pad := ceilPow2(n)
	return &RotatingTree[T]{
		merge:  merge,
		n:      n,
		pad:    pad,
		height: ceilLog2(pad),
		nodes:  make([]rtnode[T], 2*pad-1),
		victim: 0,
	}
}

// Init performs the initial run: it installs the first full window of
// buckets (len(buckets) must equal N) and builds the balanced tree with
// pairwise combiner applications.
func (t *RotatingTree[T]) Init(buckets []T) error {
	if len(buckets) != t.n {
		return ErrWindowNotFull
	}
	for i := range t.nodes {
		var zero T
		t.nodes[i] = rtnode[T]{payload: zero, void: true}
	}
	for i, b := range buckets {
		leaf := t.leafIndex(i)
		t.nodes[leaf] = rtnode[T]{payload: b}
	}
	// Build level by level from the deepest internal row upward, each row
	// [2^d−1, 2^{d+1}−2] left to right.
	for d := t.height - 1; d >= 0; d-- {
		for i := (1 << d) - 1; i < (2<<d)-1; i++ {
			t.recomputeNode(i)
		}
	}
	t.victim = 0
	t.filled = true
	t.preOK = false
	return nil
}

// leafIndex maps a bucket position to its heap index.
func (t *RotatingTree[T]) leafIndex(pos int) int { return t.pad - 1 + pos }

// recomputeNode recombines heap node i from its children.
func (t *RotatingTree[T]) recomputeNode(i int) {
	l, r := 2*i+1, 2*i+2
	ln, rn := t.nodes[l], t.nodes[r]
	switch {
	case ln.void && rn.void:
		var zero T
		t.nodes[i] = rtnode[T]{payload: zero, void: true}
	case ln.void:
		t.nodes[i] = rtnode[T]{payload: rn.payload}
	case rn.void:
		t.nodes[i] = rtnode[T]{payload: ln.payload}
	default:
		t.nodes[i] = rtnode[T]{payload: t.merge(ln.payload, rn.payload)}
		t.stats.Merges++
	}
	t.stats.NodesRecomputed++
}

// Rotate replaces the oldest bucket with b and updates the root path
// (foreground-only mode, Figure 4a).
func (t *RotatingTree[T]) Rotate(b T) error {
	if !t.filled {
		return ErrWindowNotFull
	}
	i := t.leafIndex(t.victim)
	t.nodes[i] = rtnode[T]{payload: b}
	for i > 0 {
		i = (i - 1) / 2
		t.recomputeNode(i)
	}
	t.victim = (t.victim + 1) % t.n
	t.preOK = false
	return nil
}

// PrepareBackground pre-combines all sibling payloads along the next
// victim's root path (the payload I of Figure 4b). It is the background
// pre-processing step of split mode and must be called before
// RotateForeground.
func (t *RotatingTree[T]) PrepareBackground() error {
	if !t.filled {
		return ErrWindowNotFull
	}
	i := t.leafIndex(t.victim)
	sibs := make([]T, 0, t.height)
	for i > 0 {
		sib := i - 1
		if i%2 == 1 { // i is a left child; sibling is to the right
			sib = i + 1
		}
		if !t.nodes[sib].void {
			sibs = append(sibs, t.nodes[sib].payload)
		}
		i = (i - 1) / 2
	}
	if t.bug&BuggifyRotatingDropSibling != 0 && len(sibs) > 1 {
		// Fault injection (simulation-harness self-test): elide one
		// pairwise merge from the pre-combined payload.
		sibs = sibs[:len(sibs)-1]
	}
	t.pre, t.preHas = reduceOrdered(t.merge, sibs, &t.stats)
	t.preOK = true
	return nil
}

// RotateForeground performs the foreground step of split mode: it merges
// the new bucket with the pre-combined payload I and returns the window's
// combined result without touching the tree. Call Background afterwards
// (off the critical path) to install the bucket and prepare the next run.
func (t *RotatingTree[T]) RotateForeground(b T) (T, error) {
	if !t.preOK {
		var zero T
		return zero, ErrNotPrepared
	}
	if !t.preHas {
		return b, nil
	}
	t.stats.Merges++
	return t.merge(b, t.pre), nil
}

// Background installs the bucket handed to the last RotateForeground into
// the tree, recomputes its root path, and pre-combines for the next slide.
// It is the background half of split mode.
func (t *RotatingTree[T]) Background(b T) error {
	if err := t.Rotate(b); err != nil {
		return err
	}
	return t.PrepareBackground()
}

// Root returns the combined payload of the whole window.
func (t *RotatingTree[T]) Root() (T, bool) {
	if !t.filled || t.nodes[0].void {
		var zero T
		return zero, false
	}
	return t.nodes[0].payload, true
}

// Height returns the tree height.
func (t *RotatingTree[T]) Height() int { return t.height }

// Victim returns the position of the bucket the next slide replaces.
func (t *RotatingTree[T]) Victim() int { return t.victim }

// Stats returns the accumulated work counters.
func (t *RotatingTree[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *RotatingTree[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of non-void materialized nodes (space
// accounting for Figure 13c).
func (t *RotatingTree[T]) NodeCount() int {
	c := 0
	for i := range t.nodes {
		if !t.nodes[i].void {
			c++
		}
	}
	if t.preOK && t.preHas {
		c++
	}
	return c
}

// ForEachPayload visits every non-void node payload (space accounting).
func (t *RotatingTree[T]) ForEachPayload(fn func(T)) {
	for i := range t.nodes {
		if !t.nodes[i].void {
			fn(t.nodes[i].payload)
		}
	}
	if t.preOK && t.preHas {
		fn(t.pre)
	}
}

// BucketPayloads returns the current bucket payloads in leaf-position
// order (checkpointing support). It returns nil before the window fills.
func (t *RotatingTree[T]) BucketPayloads() ([]T, bool) {
	if !t.filled {
		return nil, false
	}
	out := make([]T, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.nodes[t.leafIndex(i)].payload
	}
	return out, true
}

// RestoreAt reinstates a checkpointed window: the buckets in leaf-position
// order plus the next victim position. The internal nodes are recombined.
// Work counters restart from zero (plus the rebuild itself), so a restored
// tree's Stats match a fresh tree restored from the same checkpoint.
func (t *RotatingTree[T]) RestoreAt(buckets []T, victim int) error {
	if victim < 0 || victim >= t.n {
		return ErrWindowNotFull
	}
	t.stats = Stats{}
	if err := t.Init(buckets); err != nil {
		return err
	}
	t.victim = victim
	return nil
}
