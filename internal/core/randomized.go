package core

// RandomizedFoldingTree is the randomized folding tree of §3.2: a
// skip-list-style contraction tree whose expected height tracks
// log2(current window size) regardless of how drastically the window
// grows or shrinks.
//
// Nodes at each level are grouped probabilistically: every node starts a
// new group with probability 1/2, decided by a deterministic hash of the
// node's stable identity (the leaf ID of its leftmost descendant) and the
// level — exactly the coin flips of Pugh's skip lists, so the structure is
// history-independent: the grouping of surviving elements never depends on
// past inserts or deletes, and only nodes on paths from changed leaves to
// the root are recomputed.
//
// The tree is rebuilt structurally on every slide (cheap integer hashing),
// but node *payloads* are reused through a memo table keyed by each
// node's child-identity signature, so combiner work is proportional to the
// delta times the expected height.
//
// RandomizedFoldingTree is not safe for concurrent use.
type RandomizedFoldingTree[T any] struct {
	merge  MergeFunc[T]
	seed   uint64
	leaves []Item[T]
	memo   map[uint64]T
	rootP  T
	hasP   bool
	height int
	stats  Stats
}

// Item is a leaf of a randomized folding tree: a stable identity plus its
// payload. IDs must be unique among live leaves and must not be reused for
// different content.
type Item[T any] struct {
	// ID is the leaf's stable identity (e.g. the split sequence number).
	ID uint64
	// Payload is the leaf's combined map output.
	Payload T
}

// NewRandomizedFolding returns an empty randomized folding tree. The seed
// fixes the coin flips, making runs reproducible.
func NewRandomizedFolding[T any](merge MergeFunc[T], seed uint64) *RandomizedFoldingTree[T] {
	return &RandomizedFoldingTree[T]{
		merge: merge,
		seed:  seed,
		memo:  make(map[uint64]T),
	}
}

// Init performs the initial run over the given leaves.
func (t *RandomizedFoldingTree[T]) Init(items []Item[T]) {
	t.leaves = append(t.leaves[:0], items...)
	t.build()
}

// Slide drops the oldest `drop` leaves and appends `add` on the right,
// then updates the tree. Only payloads on changed paths are recombined.
func (t *RandomizedFoldingTree[T]) Slide(drop int, add []Item[T]) error {
	if drop < 0 || drop > len(t.leaves) {
		return ErrUnderflow
	}
	t.leaves = append(t.leaves[drop:], add...)
	t.build()
	return nil
}

// splitmix64 is the avalanche mix used for coin flips and signatures.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// boundary reports whether the node with identity id starts a new group at
// the given level (a fair coin derived from seed, id, and level).
func (t *RandomizedFoldingTree[T]) boundary(id uint64, level int) bool {
	return splitmix64(t.seed^splitmix64(id+uint64(level)*0x9e3779b97f4a7c15))&1 == 1
}

// rnode is one node during a build: its identity (leftmost leaf ID), its
// signature (hash of its child signatures), and its payload.
type rnode[T any] struct {
	id      uint64
	sig     uint64
	payload T
}

// build reconstructs the level structure over the current leaves, reusing
// memoized payloads for unchanged nodes.
func (t *RandomizedFoldingTree[T]) build() {
	if len(t.leaves) == 0 {
		var zero T
		t.rootP, t.hasP = zero, false
		t.height = 0
		t.memo = make(map[uint64]T)
		return
	}
	nextMemo := make(map[uint64]T, len(t.memo))
	cur := make([]rnode[T], len(t.leaves))
	for i, leaf := range t.leaves {
		sig := splitmix64(leaf.ID ^ 0xabcdef12345678)
		cur[i] = rnode[T]{id: leaf.ID, sig: sig, payload: leaf.Payload}
		nextMemo[sig] = leaf.Payload
	}
	height := 0
	for len(cur) > 1 {
		next := t.buildLevel(cur, height, nextMemo)
		if len(next) == len(cur) {
			// Pathological all-heads level: force a single group so
			// the construction terminates.
			forced := t.makeGroup(cur, height)
			nextMemo[forced.sig] = forced.payload
			next = []rnode[T]{forced}
		}
		cur = next
		height++
	}
	t.rootP, t.hasP = cur[0].payload, true
	t.height = height
	t.memo = nextMemo
}

// buildLevel groups the nodes of one level into the nodes of the next: a
// group ends where the next node's coin says a new one starts.
func (t *RandomizedFoldingTree[T]) buildLevel(cur []rnode[T], level int, memo map[uint64]T) []rnode[T] {
	next := make([]rnode[T], 0, len(cur))
	lo := 0
	for i := 1; i <= len(cur); i++ {
		if i == len(cur) || t.boundary(cur[i].id, level) {
			n := t.makeGroup(cur[lo:i], level)
			// Singleton groups keep their signature so higher levels can
			// still reuse them; combined groups memoize the fresh payload.
			memo[n.sig] = n.payload
			next = append(next, n)
			lo = i
		}
	}
	return next
}

// makeGroup builds one next-level node from a group of nodes, reusing the
// prior build's memoized payload when the group's child signature is
// unchanged.
func (t *RandomizedFoldingTree[T]) makeGroup(group []rnode[T], level int) rnode[T] {
	if len(group) == 1 {
		// Singleton groups pass through without a combine.
		return group[0]
	}
	sig := splitmix64(uint64(level) ^ 0x51ed270b)
	for _, g := range group {
		sig = splitmix64(sig ^ g.sig)
	}
	node := rnode[T]{id: group[0].id, sig: sig}
	if payload, ok := t.memo[sig]; ok {
		node.payload = payload
		t.stats.NodesReused++
	} else {
		payload := group[0].payload
		for _, g := range group[1:] {
			payload = t.merge(payload, g.payload)
			t.stats.Merges++
		}
		node.payload = payload
		t.stats.NodesRecomputed++
	}
	return node
}

// Root returns the combined payload of the window.
func (t *RandomizedFoldingTree[T]) Root() (T, bool) {
	if !t.hasP {
		var zero T
		return zero, false
	}
	return t.rootP, true
}

// Live returns the number of live leaves.
func (t *RandomizedFoldingTree[T]) Live() int { return len(t.leaves) }

// Height returns the number of levels above the leaves in the last build.
func (t *RandomizedFoldingTree[T]) Height() int { return t.height }

// Stats returns the accumulated work counters.
func (t *RandomizedFoldingTree[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *RandomizedFoldingTree[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of memoized payloads retained (space
// accounting for Figure 13c).
func (t *RandomizedFoldingTree[T]) NodeCount() int { return len(t.memo) }

// ForEachPayload visits every memoized node payload (space accounting).
func (t *RandomizedFoldingTree[T]) ForEachPayload(fn func(T)) {
	for _, p := range t.memo {
		fn(p)
	}
}

// Items returns the live leaves in window order (checkpointing support).
// Restoring via Init rebuilds an identical structure because the tree's
// shape depends only on leaf identities, not on history.
func (t *RandomizedFoldingTree[T]) Items() []Item[T] {
	out := make([]Item[T], len(t.leaves))
	copy(out, t.leaves)
	return out
}
