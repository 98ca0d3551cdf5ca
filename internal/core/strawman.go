package core

// StrawmanTree is the memoization-only contraction tree of §2: a balanced
// binary tree rebuilt over the current leaf sequence on every run, with
// node payloads memoized by the identities of their two children.
//
// Map outputs are reused through leaf identities, but because a window
// slide shifts every leaf's position, almost all internal pairings change
// and the combine work per run is Θ(window) — the linear-in-window
// behaviour the paper ascribes to Incoop/Nectar-style systems (§9). It is
// the baseline that Figure 8 compares the self-adjusting trees against,
// and the change-propagation structure used by multi-level query stages
// whose input changes land at arbitrary positions (§5).
//
// StrawmanTree is not safe for concurrent use.
type StrawmanTree[T any] struct {
	merge MergeFunc[T]
	memo  map[strawKey]T
	rootP T
	hasP  bool
	live  int // leaves of the last Build (shape introspection)
	stats Stats
}

// strawKey identifies an internal node by its two children's identities.
type strawKey struct {
	left, right uint64
}

// NewStrawman returns an empty strawman tree.
func NewStrawman[T any](merge MergeFunc[T]) *StrawmanTree[T] {
	return &StrawmanTree[T]{merge: merge, memo: make(map[strawKey]T)}
}

// Build (re)constructs the balanced tree over the given leaves, reusing
// memoized node payloads where both children are unchanged, and returns
// whether the tree is non-empty. Entries untouched by this build are
// garbage collected.
func (t *StrawmanTree[T]) Build(leaves []Item[T]) bool {
	t.live = len(leaves)
	if len(leaves) == 0 {
		var zero T
		t.rootP, t.hasP = zero, false
		t.memo = make(map[strawKey]T)
		return false
	}
	nextMemo := make(map[strawKey]T, len(t.memo))
	cur := make([]rnode[T], len(leaves))
	for i, leaf := range leaves {
		cur[i] = rnode[T]{id: leaf.ID, sig: splitmix64(leaf.ID ^ 0x6a09e667f3bcc908), payload: leaf.Payload}
	}
	for len(cur) > 1 {
		cur = t.buildLevel(cur, nextMemo)
	}
	t.rootP, t.hasP = cur[0].payload, true
	t.memo = nextMemo
	return true
}

// buildLevel pairs one level's nodes into the next, resolving every pair
// against the previous build's memo, then this build's (nextMemo, which
// holds a key that appeared earlier in the level), and merging only what
// neither has.
func (t *StrawmanTree[T]) buildLevel(cur []rnode[T], nextMemo map[strawKey]T) []rnode[T] {
	next := make([]rnode[T], 0, (len(cur)+1)/2)
	for i := 0; i+1 < len(cur); i += 2 {
		l, r := cur[i], cur[i+1]
		key := strawKey{left: l.sig, right: r.sig}
		node := rnode[T]{id: l.id, sig: splitmix64(l.sig ^ splitmix64(r.sig))}
		if payload, ok := t.memo[key]; ok {
			node.payload = payload
			t.stats.NodesReused++
			nextMemo[key] = payload
		} else if payload, ok := nextMemo[key]; ok {
			node.payload = payload
			t.stats.NodesReused++
		} else {
			node.payload = t.merge(l.payload, r.payload)
			t.stats.Merges++
			t.stats.NodesRecomputed++
			nextMemo[key] = node.payload
		}
		next = append(next, node)
	}
	if len(cur)%2 == 1 {
		next = append(next, cur[len(cur)-1])
	}
	return next
}

// Root returns the combined payload of the last Build.
func (t *StrawmanTree[T]) Root() (T, bool) {
	if !t.hasP {
		var zero T
		return zero, false
	}
	return t.rootP, true
}

// Stats returns the accumulated work counters.
func (t *StrawmanTree[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *StrawmanTree[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of memoized payloads retained.
func (t *StrawmanTree[T]) NodeCount() int { return len(t.memo) }

// ForEachPayload visits every memoized node payload (space accounting).
func (t *StrawmanTree[T]) ForEachPayload(fn func(T)) {
	for _, p := range t.memo {
		fn(p)
	}
}
