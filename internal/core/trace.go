package core

// This file is the tracing surface the deterministic simulation harness
// (internal/sim) drives the trees through: structure fingerprints that
// must be bit-identical across restores, and FoundationDB-style
// buggify points that let the harness's own acceptance tests inject a
// targeted bug and prove the differential oracle catches it.

// Buggify is a bitmask of fault-injection points. All points are off by
// default; the simulation harness enables one to verify that its checks
// detect the resulting divergence. Production code must never set these.
type Buggify uint32

// Buggify points.
const (
	// BuggifyNone disables fault injection.
	BuggifyNone Buggify = 0
	// BuggifyRotatingDropSibling drops the last collected sibling from
	// rotating split pre-processing (PrepareBackground), i.e. it elides
	// one pairwise merge from the pre-combined payload I — a plausible
	// "optimization" bug whose only symptom is a wrong foreground root.
	BuggifyRotatingDropSibling Buggify = 1 << iota
	// BuggifyFingerBulkEvictOffByOne makes FingerTree.BulkEvict(k) evict
	// k−1 buckets when k > 1 — the classic bulk-boundary off-by-one whose
	// only symptom is a stale oldest bucket lingering in the aggregate.
	BuggifyFingerBulkEvictOffByOne
	// BuggifyDabaReleaseRaw makes DabaLite release the aggregate slot of an
	// A-conversion that took no merge (a+1 == b) — the slot aliases the raw
	// bucket, which the structure does not own: the wrong release whose
	// only symptom is a live bucket rewritten by whoever recycles it.
	BuggifyDabaReleaseRaw
	// BuggifyDabaDeferEmptyFront makes DabaLite defer an evict's fixup even
	// when the evict emptied the front (f == l): the query then reads the
	// partial suffix Σ[f, m) in q[f], which misses midSum — the wrong
	// deferral whose only symptom is a window aggregate short of buckets,
	// until the upkeep repairs the state as if nothing had happened.
	BuggifyDabaDeferEmptyFront
)

// SetBuggify installs fault-injection points on a rotating tree (for the
// simulation harness's self-tests only).
func (t *RotatingTree[T]) SetBuggify(b Buggify) { t.bug = b }

// fpMix folds x into h with a splitmix64 avalanche step, the common
// combiner of the fingerprint walks below.
func fpMix(h, x uint64) uint64 {
	return splitmix64(h ^ splitmix64(x))
}

// fpBool folds a flag into h on distinct constants so that (true, 0) and
// (false, anything) never collide.
func fpBool(h uint64, b bool) uint64 {
	if b {
		return fpMix(h, 0x9e3779b97f4a7c15)
	}
	return fpMix(h, 0x2545f4914f6cdd1d)
}

// FingerprintWith hashes the tree's materialized structure and payloads
// deterministically: shape, voidness, live-window bounds, and every
// payload via fp, in a fixed depth-first order. Two folding trees that
// went through the same operations fingerprint identically.
func (t *FoldingTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0142)
	h = fpMix(h, uint64(t.height))
	h = fpMix(h, uint64(t.start))
	h = fpMix(h, uint64(t.end))
	var walk func(n *fnode[T]) uint64
	walk = func(n *fnode[T]) uint64 {
		if n == nil {
			return 0x555555
		}
		nh := fpBool(0x1000193, n.void)
		nh = fpBool(nh, n.leaf)
		if !n.void {
			nh = fpMix(nh, fp(n.payload))
		}
		nh = fpMix(nh, walk(n.left))
		nh = fpMix(nh, walk(n.right))
		return nh
	}
	return fpMix(h, walk(t.root))
}

// FingerprintWith hashes the rotating tree's heap array in index order,
// plus the rotation cursor and the split-processing intermediate payload.
func (t *RotatingTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0143)
	h = fpMix(h, uint64(t.victim))
	h = fpBool(h, t.filled)
	for i := range t.nodes {
		h = fpBool(h, t.nodes[i].void)
		if !t.nodes[i].void {
			h = fpMix(h, fp(t.nodes[i].payload))
		}
	}
	h = fpBool(h, t.preOK)
	if t.preOK && t.preHas {
		h = fpMix(h, fp(t.pre))
	}
	return h
}

// FingerprintWith hashes the DABA Lite aggregator once its pending fixups
// have run: the cursor offsets relative to the front (restore-friendly:
// absolute positions reset on rebuild), the running sums, and both rings
// over the live range in window order. Two aggregators that went through
// the same operations fingerprint identically, whenever their upkeep ran.
func (t *DabaLite[T]) FingerprintWith(fp func(T) uint64) uint64 {
	t.Background()
	h := uint64(0x6c62272e07bb0147)
	h = fpMix(h, uint64(t.n))
	h = fpBool(h, t.filled)
	h = fpMix(h, t.l-t.f)
	h = fpMix(h, t.r-t.f)
	h = fpMix(h, t.a-t.f)
	h = fpMix(h, t.b-t.f)
	h = fpMix(h, t.e-t.f)
	h = fpBool(h, t.hasMid)
	if t.hasMid {
		h = fpMix(h, fp(t.midSum))
	}
	h = fpBool(h, t.hasBack)
	if t.hasBack {
		h = fpMix(h, fp(t.backSum))
	}
	for i := t.f; i != t.e; i++ {
		h = fpMix(h, fp(t.q[t.slot(i)]))
		h = fpMix(h, fp(t.raw[t.slot(i)]))
	}
	return h
}

// FingerprintWith hashes the finger tree's full treap structure — node
// priorities, bucket payloads, and cached aggregates in a fixed
// depth-first order. Priorities come from the deterministic counter
// stream, so two trees that executed the same operation sequence
// fingerprint identically, and a restored tree matches a freshly
// restored one.
func (t *FingerTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0148)
	h = fpMix(h, t.ctr)
	var walk func(n *tnode[T]) uint64
	walk = func(n *tnode[T]) uint64 {
		if n == nil {
			return 0x555555
		}
		nh := fpMix(0x1000193, n.prio)
		nh = fpMix(nh, fp(n.val))
		nh = fpMix(nh, fp(n.agg))
		nh = fpMix(nh, walk(n.left))
		nh = fpMix(nh, walk(n.right))
		return nh
	}
	return fpMix(h, walk(t.root))
}

// FingerprintWith hashes the coalescing tree's root and pending payloads.
func (c *CoalescingTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0144)
	h = fpBool(h, c.hasRoot)
	if c.hasRoot {
		h = fpMix(h, fp(c.root))
	}
	h = fpBool(h, c.hasPend)
	if c.hasPend {
		h = fpMix(h, fp(c.pending))
	}
	return h
}

// FingerprintWith hashes the randomized folding tree: the live leaf
// sequence in window order, the root, and the memo table. Memo entries
// are folded with an order-independent XOR because map iteration order is
// not deterministic; each entry is avalanche-mixed first, so the XOR still
// distinguishes differing entry sets.
func (t *RandomizedFoldingTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0145)
	h = fpMix(h, uint64(t.height))
	for _, leaf := range t.leaves {
		h = fpMix(h, leaf.ID)
		h = fpMix(h, fp(leaf.Payload))
	}
	h = fpBool(h, t.hasP)
	if t.hasP {
		h = fpMix(h, fp(t.rootP))
	}
	var memoXor uint64
	for sig, p := range t.memo {
		memoXor ^= splitmix64(fpMix(sig, fp(p)))
	}
	return fpMix(h, memoXor)
}

// FingerprintWith hashes the strawman tree's root and memo table (the
// memo XOR-folded, order-independently, as for the randomized tree).
func (t *StrawmanTree[T]) FingerprintWith(fp func(T) uint64) uint64 {
	h := uint64(0x6c62272e07bb0146)
	h = fpBool(h, t.hasP)
	if t.hasP {
		h = fpMix(h, fp(t.rootP))
	}
	var memoXor uint64
	for key, p := range t.memo {
		memoXor ^= splitmix64(fpMix(fpMix(key.left, key.right), fp(p)))
	}
	return fpMix(h, memoXor)
}
