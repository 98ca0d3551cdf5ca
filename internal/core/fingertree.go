package core

// FingerTree is the seventh aggregator backend: an out-of-order
// sliding-window aggregator in the FiBA style ("Optimal and General
// Out-of-Order Sliding-Window Aggregation", and its bulk-operation
// successor "Out-of-Order Sliding-Window Aggregation with Efficient
// Bulk Evictions and Insertions"). Where the five contraction trees and
// DABA Lite all assume FIFO arrival — the only mutations are "evict the
// oldest, append the newest" — the finger tree keeps the window as a
// balanced search tree ordered by window position, so three extra
// operations become cheap:
//
//	InsertAt(pos, v)  — land a late record at its true position,
//	                    recombining only the root path: O(log w)
//	BulkEvict(k)      — drop the k oldest buckets in one split:
//	                    O(log w), not k single evictions
//	BulkInsert(vs)    — append K buckets in one build+join:
//	                    O(K + log w), not K·O(log w)
//
// The concrete structure is a treap (randomized BST, split/join-based)
// rather than a B-tree: every node carries one bucket payload and the
// cached aggregate of its subtree in window order
// (merge(left.agg, val, right.agg), at most two combiner calls to
// recompute), so the window aggregate is the root's cached aggregate —
// zero combines per query. Split and join touch one root-to-leaf path
// each and recompute only the aggregates on that path, which is exactly
// the "incremental re-contraction of the affected root path" the FiBA
// papers describe; expected path length is O(log w).
//
// Determinism: node priorities are not random. They are splitmix64
// hashes of a monotone insertion counter, so two trees that execute the
// same operation sequence — on any host — have
// bit-identical shape, and FingerprintWith is reproducible across
// replicas. Init and Restore reset the counter, so a restored tree is
// identical to a freshly restored one (the parity the simulation
// harness asserts on every checkpoint).
//
// Like the other backends the merge function only needs to be
// associative: aggregates are always combined in window order.
//
// FingerTree is not safe for concurrent use.
type FingerTree[T any] struct {
	merge MergeFunc[T]
	root  *tnode[T]
	ctr   uint64 // monotone priority counter (deterministic treap shape)
	bug   Buggify
	stats Stats
}

// tnode is one treap node: a single window bucket plus the cached
// aggregate of the subtree rooted here, in window order.
type tnode[T any] struct {
	left, right *tnode[T]
	val         T // this bucket's payload
	agg         T // merge(left.agg, val, right.agg)
	size        int
	prio        uint64
}

// NewFingerTree returns an empty finger-tree aggregator. Unlike the
// fixed-capacity backends it has no preset width: the window grows and
// shrinks with the operations applied to it.
func NewFingerTree[T any](merge MergeFunc[T]) *FingerTree[T] {
	return &FingerTree[T]{merge: merge}
}

// SetBuggify installs fault-injection points (simulation harness
// self-tests only).
func (t *FingerTree[T]) SetBuggify(b Buggify) { t.bug = b }

func (t *FingerTree[T]) nextPrio() uint64 {
	t.ctr++
	return splitmix64(t.ctr)
}

func tsize[T any](n *tnode[T]) int {
	if n == nil {
		return 0
	}
	return n.size
}

// pull recomputes n's size and cached aggregate from its children: at
// most two combiner calls, counted as one node recompute.
func (t *FingerTree[T]) pull(n *tnode[T]) {
	n.size = 1 + tsize(n.left) + tsize(n.right)
	n.agg = n.val
	if n.left != nil {
		n.agg = t.merge(n.left.agg, n.agg)
		t.stats.Merges++
	}
	if n.right != nil {
		n.agg = t.merge(n.agg, n.right.agg)
		t.stats.Merges++
	}
	t.stats.NodesRecomputed++
}

// split cuts n into (a, b) where a holds the first k buckets in window
// order and b the rest, recomputing aggregates only along the cut path.
func (t *FingerTree[T]) split(n *tnode[T], k int) (*tnode[T], *tnode[T]) {
	if n == nil {
		return nil, nil
	}
	if ls := tsize(n.left); k <= ls {
		a, rest := t.split(n.left, k)
		n.left = rest
		t.pull(n)
		return a, n
	} else {
		rest, b := t.split(n.right, k-ls-1)
		n.right = rest
		t.pull(n)
		return n, b
	}
}

// join concatenates two treaps (every bucket of a precedes every bucket
// of b in window order), recomputing aggregates along the merge path.
func (t *FingerTree[T]) join(a, b *tnode[T]) *tnode[T] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.right = t.join(a.right, b)
		t.pull(a)
		return a
	}
	b.left = t.join(a, b.left)
	t.pull(b)
	return b
}

// build constructs a treap over vs in window order in O(K): a
// Cartesian-tree construction over the freshly drawn priorities via the
// rightmost-spine stack, then one bottom-up aggregate pass.
func (t *FingerTree[T]) build(vs []T) *tnode[T] {
	var spine []*tnode[T] // rightmost path, root at index 0
	for _, v := range vs {
		n := &tnode[T]{val: v, prio: t.nextPrio()}
		var last *tnode[T]
		for len(spine) > 0 && spine[len(spine)-1].prio < n.prio {
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		n.left = last
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	if len(spine) == 0 {
		return nil
	}
	root := spine[0]
	t.pullAll(root)
	return root
}

// pullAll recomputes sizes and aggregates bottom-up over a freshly
// built subtree.
func (t *FingerTree[T]) pullAll(n *tnode[T]) {
	if n == nil {
		return
	}
	t.pullAll(n.left)
	t.pullAll(n.right)
	t.pull(n)
}

// Init performs the initial run: it installs the window's buckets in
// window order, oldest first, resetting the deterministic priority
// stream so equal bucket sequences always produce equal tree shapes.
func (t *FingerTree[T]) Init(buckets []T) error {
	t.root = nil
	t.ctr = 0
	t.root = t.build(buckets)
	return nil
}

// Slide evicts the oldest bucket and inserts bucket as the newest — the
// in-order fast path, two root-path walks: O(log w) combines.
func (t *FingerTree[T]) Slide(bucket T) error {
	if t.root == nil {
		return ErrEmpty
	}
	if _, err := t.evictOldest(1); err != nil {
		return err
	}
	return t.BulkInsert([]T{bucket})
}

// InsertAt inserts v as a new bucket at window position pos (0 = oldest,
// Len() = newest): one split and two joins along the affected root path,
// O(log w) combines. This is the late-record landing operation: the
// runtime maps a record that arrived behind the watermark to its true
// window position and re-contracts only that path.
func (t *FingerTree[T]) InsertAt(pos int, v T) error {
	if pos < 0 || pos > t.Len() {
		return ErrUnderflow
	}
	a, b := t.split(t.root, pos)
	n := &tnode[T]{val: v, prio: t.nextPrio()}
	t.pull(n)
	t.root = t.join(t.join(a, n), b)
	return nil
}

// BulkEvict drops the k oldest buckets in one split — O(log w) combines
// regardless of k, against k·O(log w) for k single-bucket evictions.
func (t *FingerTree[T]) BulkEvict(k int) error {
	_, err := t.bulkEvict(k)
	return err
}

// bulkEvict is BulkEvict handing back what it cut off: the treap of the k
// evicted buckets (aggregates stale along the cut).
func (t *FingerTree[T]) bulkEvict(k int) (*tnode[T], error) {
	if t.bug&BuggifyFingerBulkEvictOffByOne != 0 && k > 1 {
		k-- // injected off-by-one: leaves the oldest bucket live
	}
	return t.evictOldest(k)
}

func (t *FingerTree[T]) evictOldest(k int) (*tnode[T], error) {
	if k < 0 || k > t.Len() {
		return nil, ErrUnderflow
	}
	if k == 0 {
		return nil, nil
	}
	a, b := t.split(t.root, k)
	t.root = b
	return a, nil
}

// appendVals appends the bucket payloads below n to dst in window order.
func appendVals[T any](dst []T, n *tnode[T]) []T {
	if n == nil {
		return dst
	}
	dst = appendVals(dst, n.left)
	dst = append(dst, n.val)
	return appendVals(dst, n.right)
}

// BulkInsert appends vs as the K newest buckets in one build-and-join —
// O(K + log w) combines, against K·O(log w) for K single appends.
func (t *FingerTree[T]) BulkInsert(vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	sub := t.build(vs)
	t.root = t.join(t.root, sub)
	return nil
}

// Root returns the combined payload of the whole window: the root's
// cached aggregate, zero combiner calls.
func (t *FingerTree[T]) Root() (T, bool) {
	if t.root == nil {
		var zero T
		return zero, false
	}
	return t.root.agg, true
}

// Len returns the number of live buckets.
func (t *FingerTree[T]) Len() int { return tsize(t.root) }

// Buckets returns the number of live buckets (the finger tree has no
// fixed capacity; its width is whatever the window currently holds).
func (t *FingerTree[T]) Buckets() int { return t.Len() }

// Height returns the treap depth in edges (expected O(log w) by the
// deterministic priority stream's uniformity).
func (t *FingerTree[T]) Height() int {
	var depth func(n *tnode[T]) int
	depth = func(n *tnode[T]) int {
		if n == nil {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		if l < r {
			l = r
		}
		return l + 1
	}
	d := depth(t.root)
	if d == 0 {
		return 0
	}
	return d - 1
}

// Stats returns the accumulated work counters.
func (t *FingerTree[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *FingerTree[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of materialized payloads: one bucket
// value and one cached aggregate per node.
func (t *FingerTree[T]) NodeCount() int { return 2 * t.Len() }

// ForEachPayload visits every materialized payload (space accounting):
// each node's bucket value and cached aggregate.
func (t *FingerTree[T]) ForEachPayload(fn func(T)) {
	var walk func(n *tnode[T])
	walk = func(n *tnode[T]) {
		if n == nil {
			return
		}
		walk(n.left)
		fn(n.val)
		fn(n.agg)
		walk(n.right)
	}
	walk(t.root)
}

// BucketPayloads returns the raw bucket payloads in window order,
// oldest first (checkpointing support). The second return mirrors the
// fixed-width backends' "window filled" flag; a finger tree window is
// its own definition of full, so it reports true whenever non-empty.
func (t *FingerTree[T]) BucketPayloads() ([]T, bool) {
	if t.root == nil {
		return nil, false
	}
	return appendVals(make([]T, 0, t.Len()), t.root), true
}

// Restore reinstates a checkpointed window from its raw buckets in
// window order, oldest first. Work counters and the priority stream
// restart from zero, so a restored aggregator's shape, fingerprint, and
// Stats match a fresh one restored from the same checkpoint.
func (t *FingerTree[T]) Restore(buckets []T) error {
	t.stats = Stats{}
	return t.Init(buckets)
}
