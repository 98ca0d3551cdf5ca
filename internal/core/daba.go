package core

// DabaLite is a worst-case O(1) in-order sliding-window aggregator
// (DABA Lite: "In-Order Sliding-Window Aggregation in Worst-Case
// Constant Time"). It is the sixth backend next to the five contraction
// trees: for fixed-width windows whose buckets arrive and expire in
// FIFO order it answers every slide with a small constant number of
// combiner calls — no tree, no ⌈log2 N⌉ root path — and, unlike the
// rotating tree, it never re-orders buckets relative to window age, so
// the merge function only needs to be associative, not commutative.
//
// The structure is the classic two-stack queue made amortization-free.
// A ring buffer q of capacity n holds one aggregate per live bucket,
// partitioned by five absolute cursors f ≤ l ≤ r ≤ a ≤ b ≤ e into
//
//	F = [f,l): q[i] = Σ[i, b)   — suffix aggregates to the flip boundary
//	L = [l,r): q[i] = Σ[i, m)   — partial suffixes; midSum = Σ[m, b)
//	R = [r,a): raw bucket values
//	A = [a,b): q[i] = Σ[i, b)   — already in F form, awaiting relabel
//	B = [b,e): raw bucket values; backSum = Σ[b, e)
//
// where m is the value of b at the last flip. The window aggregate is
// merge(q[f], backSum): one combiner call. Every insert or evict owes
// one fixup step that converts at most one R entry into A form and one
// L entry into F form, so by the time F drains (l reaches b) the back
// half is fully converted and the cursors flip in O(1) without touching
// any payload. Worst case: three combiner calls per insert, two per
// evict, one per query — independent of n.
//
// A fixup runs when the query needs it, and otherwise after the query.
// The query reads q[f] and backSum only. A fixup that does not flip
// touches nothing but the L/R/A slots in [l, a) and reads midSum — never
// q[f], q[e] or backSum — and advances l by exactly one, so it commutes
// with the pushes and evicts that follow it. Such a fixup is recorded as
// pending; Background, and Slide, Init and FingerprintWith as their first
// step, replay the pending ones in the order they were owed. Two run at
// once, after any pending ones: a fixup that flips (l, counted one
// further per pending fixup, has reached b — a flip moves backSum), and
// an evict's fixup that leaves the front empty (f == l: q[f] would be a
// partial Σ[f, m) without it). Before the upkeep the query is already
// right; after it the state is exactly what running every fixup at once
// gives.
//
// A parallel ring keeps the raw bucket payloads (the aggregate slots
// overwrite them), which serves checkpointing (BucketPayloads in window
// order) and restore.
//
// A slot owns its storage. The aggregates the structure built with its merge
// function — and only those — are its own, and it knows when one dies:
//
//	q[s]     owned iff a merge wrote it. A raw slot (R, B), an A-conversion
//	         with a+1 == b and an L-completion without midSum alias raw[s]
//	         and are not. Dies when a fixup merge overwrites it, or on evict.
//	backSum  owned from its first merge (the first bucket after a flip is
//	         the raw payload). Dies when the next push overwrites it.
//	midSum   takes backSum's ownership at the flip. Dies at the next flip:
//	         L has drained, nothing reads it again.
//	raw[s]   never owned — the caller's payload, also what Slide reports as
//	         evicted.
//
// OnRelease installs a hook that is handed each owned aggregate when it dies,
// after the merge that overwrites it has read it. The aggregate Root merges
// is kept in no slot and never released.
//
// DabaLite is not safe for concurrent use.
type DabaLite[T any] struct {
	merge MergeFunc[T]
	n     int // window capacity in buckets
	q     []T // ring of aggregates, len n, slot(i) = i mod n
	raw   []T // ring of raw bucket payloads (checkpoint support)

	// Absolute cursors; the live range [f, e) never exceeds n entries,
	// so i mod n is injective over it.
	f, l, r, a, b, e uint64

	midSum  T // Σ[m, b) for the L region
	hasMid  bool
	backSum T // Σ[b, e) for the B region
	hasBack bool

	filled  bool
	pending int // fixups owed and deferred, see the type's comment
	stats   Stats

	// Ownership, see the type's comment. owned parallels q.
	release             func(T) // nil: dead aggregates are left to the collector
	owned               []bool
	midOwned, backOwned bool
	bug                 Buggify
}

// NewDaba returns a DABA Lite aggregator for a window of n buckets.
func NewDaba[T any](merge MergeFunc[T], n int) *DabaLite[T] {
	if n < 1 {
		n = 1
	}
	return &DabaLite[T]{
		merge: merge,
		n:     n,
		q:     make([]T, n),
		raw:   make([]T, n),
		owned: make([]bool, n),
	}
}

// OnRelease implements Releaser. The hook must be installed before Init;
// with one installed, the merge function must return storage of its own on
// every call — never one of its arguments.
func (t *DabaLite[T]) OnRelease(release func(T)) { t.release = release }

// SetBuggify installs fault-injection points (simulation harness
// self-tests only).
func (t *DabaLite[T]) SetBuggify(b Buggify) { t.bug = b }

// free hands a dead aggregate to the release hook if the structure owned it.
func (t *DabaLite[T]) free(v T, owned bool) {
	if owned && t.release != nil {
		t.release(v)
	}
}

func (t *DabaLite[T]) slot(i uint64) int { return int(i % uint64(t.n)) }

// Init performs the initial run: it installs the first full window of
// buckets (len(buckets) must equal n) in window order, oldest first, and
// leaves no fixup pending — nothing queries the window while it fills.
func (t *DabaLite[T]) Init(buckets []T) error {
	if len(buckets) != t.n {
		return ErrWindowNotFull
	}
	t.Background()
	var zero T
	for i := range t.q {
		t.q[i] = zero
		t.raw[i] = zero
		t.owned[i] = false
	}
	t.f, t.l, t.r, t.a, t.b, t.e = 0, 0, 0, 0, 0, 0
	t.midSum, t.hasMid, t.midOwned = zero, false, false
	t.backSum, t.hasBack, t.backOwned = zero, false, false
	for _, b := range buckets {
		t.push(b)
		t.Background()
	}
	t.filled = true
	return nil
}

// Slide evicts the oldest bucket and inserts bucket as the newest —
// one window slide of one bucket, worst-case five combiner calls between
// Slide and the Background that follows it.
func (t *DabaLite[T]) Slide(bucket T) error {
	t.Background()
	if !t.filled {
		return ErrWindowNotFull
	}
	if err := t.evict(); err != nil {
		return err
	}
	t.push(bucket)
	return nil
}

// Background replays the pending fixups in the order they were owed and
// reports whether there were any.
func (t *DabaLite[T]) Background() bool {
	if t.pending == 0 {
		return false
	}
	for ; t.pending > 0; t.pending-- {
		t.fixup()
	}
	return true
}

// owe runs the fixup an insert or evict owes now — after the pending ones —
// or records it as pending.
func (t *DabaLite[T]) owe(now bool) {
	if !now {
		t.pending++
		return
	}
	t.Background()
	t.fixup()
}

// flipDue reports whether the next fixup owed would flip: l, once the
// pending fixups have each advanced it by one, has reached b.
func (t *DabaLite[T]) flipDue() bool { return t.l+uint64(t.pending) == t.b }

// push appends a raw bucket at the back and owes one fixup step.
func (t *DabaLite[T]) push(v T) {
	s := t.slot(t.e)
	t.q[s] = v
	t.raw[s] = v
	t.e++
	if t.hasBack {
		old := t.backSum
		t.backSum = t.merge(old, v)
		t.stats.Merges++
		t.free(old, t.backOwned)
		t.backOwned = true
	} else {
		t.backSum = v
		t.hasBack = true
	}
	t.stats.NodesRecomputed++
	t.owe(t.flipDue())
}

// evict drops the oldest bucket and owes one fixup step. Without it an
// emptied front would leave the query a partial aggregate, so then it runs
// now (unless BuggifyDabaDeferEmptyFront is armed).
func (t *DabaLite[T]) evict() error {
	if t.f == t.e {
		return ErrEmpty
	}
	var zero T
	s := t.slot(t.f)
	t.free(t.q[s], t.owned[s])
	t.q[s], t.owned[s] = zero, false
	t.raw[s] = zero
	t.f++
	t.owe(t.flipDue() || t.f == t.l && t.bug&BuggifyDabaDeferEmptyFront == 0)
	return nil
}

// fixup is the constant-work maintenance step every push and evict owes:
// flip if the front drained, then convert at most one R entry to A form
// and grow F by one entry.
func (t *DabaLite[T]) fixup() {
	if t.l == t.b {
		t.flip()
	}
	if t.f == t.b {
		// Front part empty; with b == e after a flip this means the
		// whole queue is empty.
		return
	}
	// Shrink R: convert its rightmost raw value into A form Σ[i, b).
	// When the converted entry is the last before b, Σ[i, b) is the raw
	// value itself — no merge.
	if t.a != t.r {
		t.a--
		sa := t.slot(t.a)
		if t.a+1 != t.b {
			// q[sa] is the raw bucket: nothing dies.
			t.q[sa] = t.merge(t.q[sa], t.q[t.slot(t.a+1)])
			t.stats.Merges++
			t.owned[sa] = true
		} else if t.bug&BuggifyDabaReleaseRaw != 0 {
			t.free(t.q[sa], true)
		}
		t.stats.NodesRecomputed++
	}
	// Grow F: complete L's leftmost partial suffix Σ[i, m) with
	// midSum = Σ[m, b), or — when L and R are both drained — relabel
	// the A region into F wholesale by advancing all three cursors
	// (A entries are already in F form).
	if t.l != t.r {
		if t.hasMid {
			sl := t.slot(t.l)
			old := t.q[sl]
			t.q[sl] = t.merge(old, t.midSum)
			t.stats.Merges++
			t.free(old, t.owned[sl])
			t.owned[sl] = true
		}
		t.stats.NodesRecomputed++
		t.l++
	} else {
		t.l++
		t.r++
		t.a++
		t.stats.NodesReused++
	}
}

// flip runs when F drains (l == b): by then L and R are empty and every
// entry of [f, b) holds Σ[i, b), so the old front becomes the new L,
// the old back raws become the new R, and backSum becomes midSum — a
// pure cursor relabeling, no payload work. The old midSum completed the
// last L entry before l reached b: it dies here.
func (t *DabaLite[T]) flip() {
	t.l = t.f
	t.r = t.b
	t.a = t.e
	t.b = t.e
	t.free(t.midSum, t.midOwned)
	t.midSum, t.hasMid, t.midOwned = t.backSum, t.hasBack, t.backOwned
	var zero T
	t.backSum, t.hasBack, t.backOwned = zero, false, false
}

// Root returns the combined payload of the whole window: at most one
// combiner call (front suffix aggregate with the back running sum). A caller
// that can consume the two unmerged takes Halves and saves the call.
func (t *DabaLite[T]) Root() (T, bool) {
	if t.f == t.e {
		var zero T
		return zero, false
	}
	if t.f == t.b {
		// Defensive: whole window in the back region.
		return t.backSum, t.hasBack
	}
	front := t.q[t.slot(t.f)]
	if !t.hasBack {
		return front, true
	}
	t.stats.Merges++
	return t.merge(front, t.backSum), true
}

// Halves appends to dst the aggregates whose merge, in order, is Root — the
// front suffix aggregate Σ[f, b) and the back running sum Σ[b, e), whichever
// exist — as the structure holds them: no combiner call, and the payloads
// are slots' own, read before the next Slide. The pending fixups touch
// neither: the halves outlive Background.
func (t *DabaLite[T]) Halves(dst []T) []T {
	if t.f != t.b {
		dst = append(dst, t.q[t.slot(t.f)])
	}
	if t.hasBack {
		dst = append(dst, t.backSum)
	}
	return dst
}

// Buckets returns the number of buckets in the window.
func (t *DabaLite[T]) Buckets() int { return t.n }

// Height returns 0: there is no tree.
func (t *DabaLite[T]) Height() int { return 0 }

// Len returns the number of live buckets.
func (t *DabaLite[T]) Len() int { return int(t.e - t.f) }

// Stats returns the accumulated work counters.
func (t *DabaLite[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *DabaLite[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of materialized payloads: one aggregate
// and one raw value per live bucket, plus the two running sums.
func (t *DabaLite[T]) NodeCount() int {
	c := 2 * t.Len()
	if t.hasMid {
		c++
	}
	if t.hasBack {
		c++
	}
	return c
}

// ForEachPayload visits every materialized payload (space accounting):
// the aggregate and raw rings over the live range plus the running sums,
// as they are — before the pending fixups.
func (t *DabaLite[T]) ForEachPayload(fn func(T)) {
	for i := t.f; i != t.e; i++ {
		fn(t.q[t.slot(i)])
		fn(t.raw[t.slot(i)])
	}
	if t.hasMid {
		fn(t.midSum)
	}
	if t.hasBack {
		fn(t.backSum)
	}
}

// BucketPayloads returns the raw bucket payloads in window order,
// oldest first (checkpointing support). It returns nil before the
// window fills.
func (t *DabaLite[T]) BucketPayloads() ([]T, bool) {
	if !t.filled {
		return nil, false
	}
	out := make([]T, 0, t.Len())
	for i := t.f; i != t.e; i++ {
		out = append(out, t.raw[t.slot(i)])
	}
	return out, true
}

// Restore reinstates a checkpointed window from its raw buckets in
// window order, oldest first. Work counters restart from zero (plus the
// rebuild itself) once what the old window still owed has run, so a
// restored aggregator's Stats match a fresh one restored from the same
// checkpoint.
func (t *DabaLite[T]) Restore(buckets []T) error {
	t.Background()
	t.stats = Stats{}
	return t.Init(buckets)
}
