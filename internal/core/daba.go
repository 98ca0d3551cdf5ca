package core

// TwoStacksLite is the daba kind's in-order sliding-window aggregator: Two-
// Stacks Lite, the amortized O(1) member of the two-stack family ("In-Order
// Sliding-Window Aggregation in Worst-Case Constant Time", arXiv 2009.13768,
// §3). For fixed-width windows whose buckets arrive and expire in FIFO
// order it answers every slide from two aggregates it holds unmerged — no
// tree, no ⌈log2 N⌉ root path — and, unlike the rotating tree, it never
// re-orders buckets relative to window age, so the merge function only
// needs to be associative, not commutative.
//
// One ring q of capacity n holds the live buckets [f, e), split at the
// boundary b into
//
//	front [f,b): q[i] = Σ[i, b)  — suffix aggregates, oldest first
//	back  [b,e): q[i] = raw[i]   — raw buckets; backSum = Σ[b, e)
//
// The window aggregate is q[f] ⊕ backSum, or backSum alone once the front
// has drained. A push merges its bucket into backSum; an evict drops q[f].
// When the front has drained (f == b) the flip turns the back into the
// front, newest first: q[e-1] is the raw bucket itself, q[i] = raw[i] ⊕
// q[i+1], and backSum — Σ[b, e) — becomes q[b] without a merge. So every
// bucket is merged twice, both times small into large: once into backSum
// and once at its flip. The flip of a full back costs n−2 merges and comes
// once every n buckets; in a full window the boundary falls on the
// multiples of n, which is what a restore reproduces from the window's
// absolute position.
//
// No query needs the flip: with the front drained the back is the whole
// window. So an evict that finds the front drained flips first, and
// otherwise the flip waits for Background — the runtime's upkeep, which
// runs after the answer has gone out. That is what makes amortized O(1)
// the right trade over a worst-case constant structure: the burst of a
// flip is paid after the sink, never by the answer.
//
// A parallel ring keeps the raw bucket payloads (the front slots overwrite
// them), which serves checkpointing (BucketPayloads in window order) and
// restore.
//
// A slot owns its storage. The aggregates the structure built with its merge
// function — and only those — are its own, and it knows when one dies:
//
//	q[s]      owned in the front but its newest slot, b−1: a flip's merge
//	          wrote it, or it is q[b], which took backSum's storage (a back
//	          of one bucket flips to its newest slot). The newest slot and
//	          every back slot alias raw[s] and are not. Dies on evict: the
//	          structure keeps its storage as spare[s] (below).
//	backSum   owned from its first merge (the first bucket after a flip is
//	          the raw payload). Dies when the next push overwrites it;
//	          hands its ownership to q[b] at the flip.
//	spare[s]  the storage of the owned aggregate slot s held until its
//	          evict, kept for the merge that next writes slot s: at the next
//	          flip, one cycle on, where it is released just before that
//	          merge, so the merge is built in storage sized by the same
//	          slot's aggregate of the cycle before. Kept only with a hook
//	          installed (without one, dead storage is the collector's). Not
//	          a live payload: ForEachPayload leaves it out, ForEachSpare
//	          counts it.
//	raw[s]    never owned — the caller's payload, also what Slide reports as
//	          evicted.
//
// OnRelease installs a hook that is handed each owned aggregate when it dies
// (a spare when the next merge into its slot is due), after the structure's
// own last read. The aggregate Root merges is kept in no slot and never
// released.
//
// With a locating merge installed (LocateWith) every merge a bucket takes
// part in records where its keys stand, and a slide hands the reduce what
// its merges found (Located). The push records where the bucket's keys
// landed in backSum — the back half the reduce reads —, or, the first push
// after a flip being backSum itself, the identity. The flip records, for each
// raw[i] it merges into q[i+1], where its keys stand in q[i+1]: the front half
// the reduce reads once bucket i has left. Those positions stay with slot i
// until its evict hands them out. Where no merge took place no positions
// exist: for q[b], which took backSum over, for the newest front slot, whose
// evict leaves no front, and so for the evict a flip runs first.
//
// TwoStacksLite is not safe for concurrent use.
type TwoStacksLite[T any] struct {
	merge MergeFunc[T]
	n     int // window capacity in buckets
	q     []T // ring of aggregates, len n, slot(i) = i mod n
	raw   []T // ring of raw bucket payloads (checkpoint support)

	// Absolute cursors f ≤ b ≤ e; the live range [f, e) never exceeds n
	// entries, so i mod n is injective over it.
	f, b, e uint64

	backSum T // Σ[b, e)
	hasBack bool

	filled bool
	stats  Stats

	// Ownership, see the type's comment. spare and spared parallel q.
	release   func(T) // nil: dead aggregates are left to the collector
	backOwned bool
	spare     []T
	spared    []bool
	bug       Buggify

	// locate is what a push and the flip merge with: merge, recording
	// positions once LocateWith installed a locating merge (locating).
	locate LocatingMerge[T]

	// Positions, with a locating merge installed (see the type's comment).
	// at[s] is where raw[s]'s keys stand in the next slot's aggregate, kept
	// while atOK[s]: from the flip merge that built q[s] to its evict, which
	// swaps it out to evAt. pushAt is the newest push's, in backSum; evOK
	// and pushOK say whether the last Slide's exist.
	locating     bool
	size         func(T) int
	at           [][]int32
	atOK         []bool
	evAt, pushAt []int32
	evOK, pushOK bool
}

// NewDaba returns the daba kind's aggregator, Two-Stacks Lite, for a window
// of n buckets.
func NewDaba[T any](merge MergeFunc[T], n int) *TwoStacksLite[T] {
	if n < 1 {
		n = 1
	}
	return &TwoStacksLite[T]{
		merge:  merge,
		locate: func(a, b T, _ bool, at []int32) (T, []int32) { return merge(a, b), at },
		n:      n,
		q:      make([]T, n),
		raw:    make([]T, n),
		spare:  make([]T, n),
		spared: make([]bool, n),
		at:     make([][]int32, n),
		atOK:   make([]bool, n),
	}
}

// OnRelease implements Releaser. The hook must be installed before Init;
// with one installed, the merge function must return storage of its own on
// every call — never one of its arguments.
func (t *TwoStacksLite[T]) OnRelease(release func(T)) { t.release = release }

// LocateWith implements Locating. It must be called before Init.
func (t *TwoStacksLite[T]) LocateWith(merge LocatingMerge[T], size func(T) int) {
	t.locate, t.size, t.locating = merge, size, true
}

// Located implements Locating for the last Slide: where the evicted bucket's
// keys stand in the front half and the pushed bucket's in the back half.
func (t *TwoStacksLite[T]) Located() (evicted, added []int32) {
	if t.evOK {
		evicted = t.evAt
	}
	if t.pushOK {
		added = t.pushAt
	}
	return evicted, added
}

// PositionsCap implements Locating.
func (t *TwoStacksLite[T]) PositionsCap() int {
	n := cap(t.evAt) + cap(t.pushAt)
	for _, at := range t.at {
		n += cap(at)
	}
	return n
}

// SetBuggify installs fault-injection points (simulation harness
// self-tests only).
func (t *TwoStacksLite[T]) SetBuggify(b Buggify) { t.bug = b }

// free hands a dead aggregate to the release hook if the structure owned it.
func (t *TwoStacksLite[T]) free(v T, owned bool) {
	if owned && t.release != nil {
		t.release(v)
	}
}

// freeSpare releases the storage slot s kept from its last owned aggregate:
// the next merge into the slot is due.
func (t *TwoStacksLite[T]) freeSpare(s int) {
	var zero T
	t.free(t.spare[s], t.spared[s])
	t.spare[s], t.spared[s] = zero, false
}

func (t *TwoStacksLite[T]) slot(i uint64) int { return int(i % uint64(t.n)) }

// Init performs the initial run: it installs the first full window of
// buckets (len(buckets) must equal n) in window order, oldest first, with
// the whole window in the front — nothing queries the window while it
// fills, so no flip is left for Background.
func (t *TwoStacksLite[T]) Init(buckets []T) error { return t.fill(buckets, 0) }

// RestoreAt reinstates a checkpointed window from its raw buckets in window
// order, oldest first, the oldest at absolute position pos — the number of
// buckets evicted since the initial run. The boundary goes where the writer's
// was, at the next multiple of n after pos, so the restored aggregator holds
// what the writer held and flips when it would have. Work counters restart
// from zero.
func (t *TwoStacksLite[T]) RestoreAt(buckets []T, pos uint64) error {
	err := t.fill(buckets, pos)
	t.stats = Stats{}
	return err
}

// fill installs a full window whose oldest bucket is at absolute position
// pos: the buckets before the next multiple of n in the front, as a flip
// builds them, the rest pushed into the back. Spares are dropped, not
// released: fill re-initializes the window.
func (t *TwoStacksLite[T]) fill(buckets []T, pos uint64) error {
	if len(buckets) != t.n {
		return ErrWindowNotFull
	}
	var zero T
	clear(t.q)
	clear(t.raw)
	clear(t.spare)
	clear(t.spared)
	clear(t.atOK)
	t.backSum, t.hasBack, t.backOwned = zero, false, false
	front := t.n - t.slot(pos)
	t.f, t.b, t.e = pos, pos+uint64(front), pos+uint64(front)
	for i, v := range buckets[:front] {
		s := t.slot(pos + uint64(i))
		t.q[s], t.raw[s] = v, v
	}
	t.suffixes(t.f, t.b)
	for _, v := range buckets[front:] {
		t.push(v)
	}
	t.filled = true
	t.evOK, t.pushOK = false, false
	return nil
}

// Slide evicts the oldest bucket and inserts bucket as the newest — one
// window slide of one bucket: one merge, plus a flip if the last slide's
// upkeep has not run it.
func (t *TwoStacksLite[T]) Slide(bucket T) error {
	if !t.filled {
		return ErrWindowNotFull
	}
	if err := t.evict(); err != nil {
		return err
	}
	t.push(bucket)
	return nil
}

// Background runs the flip a drained front left for after the query, and
// reports whether there was one.
func (t *TwoStacksLite[T]) Background() bool {
	if t.f != t.b || t.b == t.e {
		return false
	}
	t.flip()
	return true
}

// push appends a raw bucket at the back and merges it into backSum.
func (t *TwoStacksLite[T]) push(v T) {
	s := t.slot(t.e)
	t.q[s], t.raw[s] = v, v
	t.e++
	if t.hasBack {
		old := t.backSum
		t.backSum, t.pushAt = t.locate(old, v, false, t.pushAt)
		t.stats.Merges++
		t.free(old, t.backOwned)
		t.backOwned = true
	} else {
		t.backSum, t.hasBack = v, true
		if t.locating {
			t.pushAt = t.pushAt[:0]
			for i := range t.size(v) {
				t.pushAt = append(t.pushAt, int32(i))
			}
		}
	}
	t.pushOK = t.locating
	t.stats.NodesRecomputed++
}

// evict drops the oldest bucket, flipping first if the front has drained
// (unless BuggifyDabaEvictPastFront is armed). An owned aggregate's storage
// stays with its slot as a spare, for a hook to have at the next flip.
func (t *TwoStacksLite[T]) evict() error {
	if t.f == t.e {
		return ErrEmpty
	}
	if t.f == t.b && t.bug&BuggifyDabaEvictPastFront == 0 {
		t.flip()
	}
	var zero T
	s := t.slot(t.f)
	if t.release != nil && t.f+1 < t.b {
		t.spare[s], t.spared[s] = t.q[s], true
	}
	// The positions go with the bucket; the slot keeps the storage of the
	// last ones handed out, for its next flip to write.
	if t.evOK = t.atOK[s] && t.f+1 < t.b; t.evOK {
		t.evAt, t.at[s] = t.at[s], t.evAt
	}
	t.atOK[s] = false
	t.q[s], t.raw[s] = zero, zero
	t.f++
	return nil
}

// flip turns the back into the front once the front has drained: the raw
// buckets of [b, e) become suffix aggregates, and backSum — Σ[b, e) — is
// q[b] as it stands.
func (t *TwoStacksLite[T]) flip() {
	if t.bug&BuggifyDabaReleaseNewestRaw != 0 {
		t.free(t.q[t.slot(t.e-1)], true)
	}
	t.suffixes(t.b+1, t.e)
	s := t.slot(t.b)
	t.freeSpare(s)
	t.q[s] = t.backSum
	var zero T
	t.backSum, t.hasBack, t.backOwned = zero, false, false
	t.b = t.e
	t.stats.NodesReused++
}

// suffixes turns the raw buckets of [lo, hi) into the suffix aggregates
// Σ[i, hi), newest first: the newest is its raw bucket, each older one its
// raw bucket merged into the next — small into large — in the storage its
// slot's spare releases just before.
func (t *TwoStacksLite[T]) suffixes(lo, hi uint64) {
	if lo >= hi {
		return
	}
	t.freeSpare(t.slot(hi - 1))
	for i := hi - 1; i > lo; i-- {
		s := t.slot(i - 1)
		t.freeSpare(s)
		t.q[s], t.at[s] = t.locate(t.raw[s], t.q[t.slot(i)], true, t.at[s])
		t.atOK[s] = t.locating
		t.stats.Merges++
		t.stats.NodesRecomputed++
	}
}

// Root returns the combined payload of the whole window: at most one
// combiner call (front suffix aggregate with the back running sum). A caller
// that can consume the two unmerged takes Halves and saves the call.
func (t *TwoStacksLite[T]) Root() (T, bool) {
	if t.f == t.e {
		var zero T
		return zero, false
	}
	if t.f >= t.b {
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
// are slots' own, read before the next Slide. Background's flip releases
// neither: the halves outlive it.
func (t *TwoStacksLite[T]) Halves(dst []T) []T {
	if t.f < t.b {
		dst = append(dst, t.q[t.slot(t.f)])
	}
	if t.hasBack {
		dst = append(dst, t.backSum)
	}
	return dst
}

// Len returns the number of live buckets.
func (t *TwoStacksLite[T]) Len() int { return int(t.e - t.f) }

// Stats returns the accumulated work counters.
func (t *TwoStacksLite[T]) Stats() Stats { return t.stats }

// ResetStats clears the work counters.
func (t *TwoStacksLite[T]) ResetStats() { t.stats = Stats{} }

// NodeCount returns the number of materialized payloads: one aggregate
// and one raw value per live bucket, plus the back's running sum.
func (t *TwoStacksLite[T]) NodeCount() int {
	c := 2 * t.Len()
	if t.hasBack {
		c++
	}
	return c
}

// ForEachPayload visits every materialized payload (space accounting): the
// aggregate and raw rings over the live range plus the running sum, as they
// are — before a pending flip. The spares are dead storage, not state.
func (t *TwoStacksLite[T]) ForEachPayload(fn func(T)) {
	for i := t.f; i != t.e; i++ {
		fn(t.q[t.slot(i)])
		fn(t.raw[t.slot(i)])
	}
	if t.hasBack {
		fn(t.backSum)
	}
}

// ForEachSpare implements Spares: it visits the storage the slots keep for
// the next flip's merges.
func (t *TwoStacksLite[T]) ForEachSpare(fn func(T)) {
	for s, ok := range t.spared {
		if ok {
			fn(t.spare[s])
		}
	}
}

// BucketPayloads returns the raw bucket payloads in window order,
// oldest first (checkpointing support). It returns nil before the
// window fills.
func (t *TwoStacksLite[T]) BucketPayloads() ([]T, bool) {
	if !t.filled {
		return nil, false
	}
	out := make([]T, 0, t.Len())
	for i := t.f; i != t.e; i++ {
		out = append(out, t.raw[t.slot(i)])
	}
	return out, true
}
