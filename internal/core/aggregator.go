package core

import (
	"fmt"
	"strings"
)

// Aggregator is the one contract every window-aggregation structure of this
// package satisfies: insert at the newest edge, evict at the oldest, query —
// the ADT of the sliding-window-aggregation literature — plus what a runtime
// needs around it (work counters, introspection, checkpointing). A caller
// picks the structure once, by Kind, and from then on never needs to know
// which of them is behind the interface; everything structure-specific —
// the rotating tree's foreground/background split, the strawman's leaf
// list, the coalescing root+pending union, identity IDs, leaf-position
// versus window order — lives in the adapters below.
//
// Elements are whatever the structure's leaves hold: buckets for the
// fixed-width kinds, one payload per split for the variable-width kinds,
// one pre-folded C′ per run for the coalescing tree. Aggregators are not
// safe for concurrent use.
type Aggregator[T any] interface {
	// Init performs the initial run over the window's elements, oldest
	// first. It never takes a split-processing shortcut: the first
	// Background call prepares the first incremental run.
	Init(elems []T) error
	// Slide evicts the drop oldest elements and inserts add as the newest,
	// and returns the elements it evicted, oldest first — what the structure
	// touches anyway, in a list the aggregator owns and reuses: valid until
	// the next Slide. The elements themselves are the caller's, as it handed
	// them to Init or Slide; no structure ever releases one (see Releaser).
	// The fixed-width kinds need drop == len(add), the coalescing tree
	// drop == 0.
	Slide(drop int, add []T) (evicted []T, err error)
	// Roots returns the payloads the final reduce consumes for the current
	// window, in window order: one combined root, or the uncombined payloads
	// whose union is the window — the split-processing foreground paths, and
	// the daba kind's front and back halves, which it never merges for a
	// query.
	// Between a Slide and its Background call it is the foreground result.
	// The list and the payloads are the structure's own: a slot owns its
	// storage, so what Roots, ForEachPayload or Snapshot hand out is read
	// within the run that obtained it — the payloads Roots hands out stay
	// valid until Background, the next Slide may rewrite the list and, with a
	// Releaser's hook installed, recycle the payloads.
	Roots() []T
	// Background runs the upkeep a slide left for after its query — the
	// work split processing moved off the critical path (install the bucket
	// and pre-combine for the next slide; fold C′ into the root), the daba
	// kind's flip, which no query needs — and reports whether there was any.
	// A caller runs it before the next Slide or Snapshot.
	Background() (bool, error)
	// Stats returns the accumulated work counters.
	Stats() Stats
	// Shape returns a structural snapshot for live introspection.
	Shape() TreeShape
	// ForEachPayload visits every payload the structure holds (space
	// accounting), upkeep pending or not.
	ForEachPayload(fn func(T))
	// FingerprintWith hashes structure and payloads deterministically.
	FingerprintWith(fp func(T) uint64) uint64
	// Snapshot captures the minimal state the structure is rebuilt from;
	// Restore reinstates a snapshot of the same kind and leaves Stats zero,
	// so a restored aggregator is indistinguishable from a fresh one
	// restored from the same snapshot.
	Snapshot() State[T]
	Restore(st State[T]) error
}

// OutOfOrder is the capability only a searchable window offers (the finger
// tree): land an element mid-window, and evict or insert K elements in one
// O(K + log w) operation.
type OutOfOrder[T any] interface {
	InsertAt(pos int, v T) error
	BulkEvict(k int) error
	BulkInsert(vs []T) error
}

// Releaser is the capability of a structure that knows which of the
// aggregates it holds it built with its merge function, and when one of them
// dies — overwritten by the aggregate that replaces it, or evicted (the daba
// kind, the folding tree). With a hook installed, before Init, the structure
// hands it every such aggregate exactly once, after its own last read, so
// that the caller can build a later merge in the storage; the merge function
// must then return storage of its own on every call. Elements — what Init
// and Slide were handed — are never released, nor is anything a structure
// merely drops (a rebuilt tree, a re-initialized window): a missed release
// is garbage, a wrong one is corruption. The other kinds release nothing.
type Releaser[T any] interface {
	OnRelease(release func(T))
}

// Spares is the capability of a Releaser that holds dead aggregates back
// from its hook until the merge they are kept for is due (the daba kind keeps
// each evicted slot's storage for the slot's next merge, at its next flip).
// That storage is neither state nor in the hook's hands, so a caller that
// accounts for dead storage counts it through ForEachSpare.
type Spares[T any] interface {
	ForEachSpare(fn func(T))
}

// Locating is the capability of a structure whose merges can record where
// the keys of the buckets they take in stand in the aggregates they build (the
// daba kind), so that the reduce reads a moved key's entry in the roots by
// index instead of seeking it. LocateWith installs the merge to do it with,
// before Init; size counts an element's entries. Located then says, for the
// last Slide, where the keys of the one evicted element stand in Roots()[0]
// and those of the one added element in Roots()[len−1] (positions as
// LocatingMerge records them), each nil where the structure does not know.
// The positions are the structure's own, valid for as long as the Roots of
// the same slide; they are neither state nor checkpointed, and PositionsCap
// is the memory they hold, in positions.
type Locating[T any] interface {
	LocateWith(merge LocatingMerge[T], size func(T) int)
	Located() (evicted, added []int32)
	PositionsCap() int
}

// State is an aggregator's restorable state as plain values, the shape a
// checkpoint codec persists. Each kind restores the state its own Snapshot
// takes.
type State[T any] struct {
	// Elems are the window's elements: oldest first, or — Circular, the
	// rotating tree's — in the leaf-position order of a circular structure
	// whose oldest element is Elems[Victim]. Only the rotating tree reads
	// Victim.
	Elems    []T
	Victim   int
	Circular bool
	// Filled reports that a fixed-width window holds its full complement.
	Filled bool
	// Pos is the absolute position of the oldest element: how many the
	// window has evicted since its initial run. The daba kind flips on the
	// multiples of its width, so its restore puts the boundary where the
	// writer's was; a checkpoint does not carry Pos, its reader derives it
	// from the window's bucket clock.
	Pos uint64
	// IDs are the elements' identities, for the kinds that memoize nodes by
	// identity; NextID is the identity the next inserted element receives.
	IDs    []uint64
	NextID uint64
	// Root and Pending are the coalescing tree's whole state.
	Root, Pending       T
	HasRoot, HasPending bool
}

// Kind names a window-aggregation structure — the one vocabulary for it:
// sliderrt's Backend is this type, Shape().Variant and the daemons' -backend
// flag are its String. The values are persisted in checkpoints: append,
// never renumber. The zero Kind names no structure; selectors that accept
// it ("auto") pick one.
type Kind int

// Kinds.
const (
	KindDaba Kind = iota + 1
	KindRotating
	KindCoalescing
	KindFolding
	KindRandomizedFolding
	KindStrawman
	KindFingerTree
)

// String names the kind as it appears in flags, logs and tree snapshots.
func (k Kind) String() string {
	names := [...]string{0: "auto", KindDaba: "daba", KindRotating: "rotating",
		KindCoalescing: "coalescing", KindFolding: "folding", KindRandomizedFolding: "randomized-folding",
		KindStrawman: "strawman", KindFingerTree: "fingertree"}
	if k < 0 || int(k) >= len(names) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return names[k]
}

// Kinds lists every structure, in value order.
func Kinds() []Kind {
	return []Kind{KindDaba, KindRotating, KindCoalescing, KindFolding,
		KindRandomizedFolding, KindStrawman, KindFingerTree}
}

// ParseKind is String's inverse; "auto" parses to the zero Kind. The error
// lists the names it would have taken.
func ParseKind(s string) (Kind, error) {
	all := append([]Kind{0}, Kinds()...)
	names := make([]string, len(all))
	for i, k := range all {
		if names[i] = k.String(); s == names[i] {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown structure %q (want one of %s)", s, strings.Join(names, ", "))
}

// Options carries what the kinds' constructors need; each kind reads its
// own fields and ignores the rest.
type Options struct {
	// Width is the window capacity in elements (rotating, daba).
	Width int
	// Split enables split processing (rotating, coalescing).
	Split bool
	// Seed fixes the randomized folding tree's coin flips.
	Seed uint64
	// RebuildFactor is the folding tree's slots/live rebuild threshold:
	// 0 keeps the default, negative disables rebuilding.
	RebuildFactor int
	// Buggify arms fault-injection points (simulation self-tests only).
	Buggify Buggify
}

// NewAggregator returns an empty aggregator of the given kind. Adding or
// retiring a structure is one adapter and one case here.
func NewAggregator[T any](kind Kind, merge MergeFunc[T], o Options) Aggregator[T] {
	switch kind {
	case KindDaba:
		t := NewDaba(merge, o.Width)
		t.SetBuggify(o.Buggify)
		return &dabaAgg[T]{TwoStacksLite: t}
	case KindRotating:
		t := NewRotating(merge, o.Width)
		t.SetBuggify(o.Buggify)
		return &rotatingAgg[T]{RotatingTree: t, split: o.Split}
	case KindCoalescing:
		return &coalescingAgg[T]{CoalescingTree: NewCoalescing(merge), split: o.Split}
	case KindFolding:
		var opts []FoldingOption[T]
		if o.RebuildFactor != 0 {
			opts = append(opts, WithRebuildFactor[T](max(o.RebuildFactor, 0)))
		}
		return &foldingAgg[T]{FoldingTree: NewFolding(merge, opts...)}
	case KindRandomizedFolding:
		return &randomizedAgg[T]{RandomizedFoldingTree: NewRandomizedFolding(merge, o.Seed)}
	case KindStrawman:
		return &strawmanAgg[T]{StrawmanTree: NewStrawman(merge)}
	case KindFingerTree:
		t := NewFingerTree(merge)
		t.SetBuggify(o.Buggify)
		return &fingerAgg[T]{FingerTree: t}
	default:
		panic(fmt.Sprintf("core: unknown aggregator kind %d", int(kind)))
	}
}

// The adapters embed their tree, so Stats, Shape, ForEachPayload and
// FingerprintWith are the tree's own; each adapter adds the uniform
// Init/Slide/Roots/Background/Snapshot/Restore over the tree's protocol.

// rootOf wraps a tree's (root, ok) query as the reduce's input list.
func rootOf[T any](root T, ok bool) []T {
	if !ok {
		return nil
	}
	return []T{root}
}

// noBackground is the Background of the kinds without split processing.
type noBackground struct{}

func (noBackground) Background() (bool, error) { return false, nil }

// errFixedSlide reports a fixed-width slide whose evictions and insertions
// do not balance.
func errFixedSlide(drop, add int) error {
	return fmt.Errorf("core: fixed-width slide needs drop == add (got %d, %d)", drop, add)
}

// --- daba (Two-Stacks Lite) ------------------------------------------------

type dabaAgg[T any] struct {
	*TwoStacksLite[T]
	evicted []T
	roots   []T
	one     bool // the last Slide moved one bucket each way
}

// Located is the last Slide's positions when it moved one bucket each way,
// nil otherwise.
func (a *dabaAgg[T]) Located() (evicted, added []int32) {
	if !a.one {
		return nil, nil
	}
	return a.TwoStacksLite.Located()
}

// Background runs the flip a drained front left for after the query.
func (a *dabaAgg[T]) Background() (bool, error) { return a.TwoStacksLite.Background(), nil }

func (a *dabaAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop != len(add) {
		return nil, errFixedSlide(drop, len(add))
	}
	a.evicted = a.evicted[:0]
	a.one = len(add) == 1
	for _, b := range add {
		a.evicted = append(a.evicted, a.raw[a.slot(a.f)])
		if err := a.TwoStacksLite.Slide(b); err != nil {
			return nil, err
		}
	}
	return a.evicted, nil
}

// Roots is the window's two halves as the structure holds them: the reduce
// takes several roots in window order, so the one merge result no slot would
// keep is never built.
func (a *dabaAgg[T]) Roots() []T {
	a.roots = a.Halves(a.roots[:0])
	return a.roots
}

func (a *dabaAgg[T]) Snapshot() State[T] {
	st := State[T]{Pos: a.f}
	st.Elems, st.Filled = a.BucketPayloads()
	return st
}

func (a *dabaAgg[T]) Restore(st State[T]) error { return a.RestoreAt(st.Elems, st.Pos) }

// --- finger tree ---------------------------------------------------------

type fingerAgg[T any] struct {
	*FingerTree[T]
	noBackground
	evicted []T
}

// Slide is one bulk eviction and one bulk insertion — O(K + log w), never K
// root-path slides — and, unlike the in-order kinds, need not balance. The
// evicted elements are the prefix the eviction's one split cut off.
func (a *fingerAgg[T]) Slide(drop int, add []T) ([]T, error) {
	prefix, err := a.bulkEvict(drop)
	if err != nil {
		return nil, err
	}
	a.evicted = appendVals(a.evicted[:0], prefix)
	return a.evicted, a.BulkInsert(add)
}

func (a *fingerAgg[T]) Roots() []T { return rootOf(a.Root()) }

func (a *fingerAgg[T]) Snapshot() State[T] {
	var st State[T]
	st.Elems, st.Filled = a.BucketPayloads()
	return st
}

func (a *fingerAgg[T]) Restore(st State[T]) error {
	if err := a.FingerTree.Restore(st.Elems); err != nil {
		return err
	}
	a.ResetStats()
	return nil
}

// --- rotating tree -------------------------------------------------------

// rotatingAgg owns the split-processing protocol of §4: a single-bucket
// slide answers from RotateForeground (one merge against the pre-combined
// siblings) and defers installing the bucket to Background; a multi-bucket
// slide falls back to in-place rotation and re-prepares at once, so the
// next single-bucket slide stays fast.
type rotatingAgg[T any] struct {
	*RotatingTree[T]
	split   bool
	pending T // bucket RotateForeground answered for, not yet installed
	fg      T // its foreground result
	hasFg   bool
	evicted []T
}

func (a *rotatingAgg[T]) Init(buckets []T) error {
	a.hasFg = false
	return a.RotatingTree.Init(buckets)
}

// Slide's evicted elements are the victim leaves: the victim cursor walks
// the leaves in window order, and the foreground path leaves the victim in
// its leaf until Background installs the bucket over it.
func (a *rotatingAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop != len(add) {
		return nil, errFixedSlide(drop, len(add))
	}
	a.evicted = a.evicted[:0]
	if a.split && len(add) == 1 {
		fg, err := a.RotateForeground(add[0])
		if err != nil {
			return nil, err
		}
		a.evicted = append(a.evicted, a.nodes[a.leafIndex(a.victim)].payload)
		a.pending, a.fg, a.hasFg = add[0], fg, true
		return a.evicted, nil
	}
	for _, b := range add {
		a.evicted = append(a.evicted, a.nodes[a.leafIndex(a.victim)].payload)
		if err := a.Rotate(b); err != nil {
			return nil, err
		}
	}
	if a.split {
		return a.evicted, a.PrepareBackground()
	}
	return a.evicted, nil
}

func (a *rotatingAgg[T]) Roots() []T {
	if a.hasFg {
		return []T{a.fg}
	}
	return rootOf(a.Root())
}

// ForEachPayload visits the tree and, until Background installs it, the
// bucket the foreground answered for and its result (the bucket itself when
// there were no siblings to merge it with).
func (a *rotatingAgg[T]) ForEachPayload(fn func(T)) {
	a.RotatingTree.ForEachPayload(fn)
	if a.hasFg {
		fn(a.pending)
		if a.preHas {
			fn(a.fg)
		}
	}
}

func (a *rotatingAgg[T]) Background() (bool, error) {
	switch {
	case a.hasFg:
		b := a.pending
		var zero T
		a.pending, a.fg, a.hasFg = zero, zero, false
		return true, a.RotatingTree.Background(b)
	case a.split && !a.preOK:
		return true, a.PrepareBackground()
	}
	return false, nil
}

// Snapshot is the one place leaf-position order leaves the tree: buckets as
// the leaves hold them plus the victim cursor, which Restore reads back.
func (a *rotatingAgg[T]) Snapshot() State[T] {
	st := State[T]{Victim: a.Victim(), Circular: true}
	st.Elems, st.Filled = a.BucketPayloads()
	return st
}

func (a *rotatingAgg[T]) Restore(st State[T]) error {
	a.hasFg = false
	if err := a.RestoreAt(st.Elems, st.Victim); err != nil {
		return err
	}
	if a.split {
		if err := a.PrepareBackground(); err != nil {
			return err
		}
	}
	a.ResetStats()
	return nil
}

// --- coalescing tree -----------------------------------------------------

// coalescingAgg owns the append-only protocol of §4.2: in split mode a slide
// only records C′ — the reduce consumes the union of the previous root and
// C′ — and Background folds it into the root.
type coalescingAgg[T any] struct {
	*CoalescingTree[T]
	split bool
}

func (a *coalescingAgg[T]) Init(elems []T) error {
	var zero T
	a.CoalescingTree.Restore(zero, false, zero, false)
	for _, e := range elems {
		a.Append(e)
	}
	return nil
}

func (a *coalescingAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop != 0 {
		return nil, fmt.Errorf("core: append-only windows cannot evict (drop=%d)", drop)
	}
	for _, e := range add {
		if a.split {
			a.AppendSplit(e)
		} else {
			a.Append(e)
		}
	}
	return nil, nil
}

func (a *coalescingAgg[T]) Roots() []T {
	root, hasRoot := a.Root()
	pending, hasPending := a.PendingPayload()
	switch {
	case hasRoot && hasPending:
		return []T{root, pending}
	case hasPending:
		return []T{pending}
	}
	return rootOf(root, hasRoot)
}

func (a *coalescingAgg[T]) Background() (bool, error) {
	if !a.Pending() {
		return false, nil
	}
	a.CoalescingTree.Background()
	return true, nil
}

func (a *coalescingAgg[T]) Snapshot() State[T] {
	var st State[T]
	st.Root, st.HasRoot = a.Root()
	st.Pending, st.HasPending = a.PendingPayload()
	return st
}

func (a *coalescingAgg[T]) Restore(st State[T]) error {
	a.CoalescingTree.Restore(st.Root, st.HasRoot, st.Pending, st.HasPending)
	return nil
}

// --- folding tree --------------------------------------------------------

type foldingAgg[T any] struct {
	*FoldingTree[T]
	noBackground
	evicted []T
}

func (a *foldingAgg[T]) Init(elems []T) error {
	a.FoldingTree.Init(elems)
	return nil
}

func (a *foldingAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop < 0 || drop > a.Live() {
		return nil, ErrUnderflow
	}
	a.evicted = a.evicted[:0]
	for _, leaf := range a.leaves[a.start : a.start+drop] {
		a.evicted = append(a.evicted, leaf.payload)
	}
	return a.evicted, a.FoldingTree.Slide(drop, add)
}

func (a *foldingAgg[T]) Roots() []T { return rootOf(a.Root()) }

func (a *foldingAgg[T]) Snapshot() State[T] { return State[T]{Elems: a.Payloads()} }

func (a *foldingAgg[T]) Restore(st State[T]) error {
	a.FoldingTree.Init(st.Elems)
	a.ResetStats()
	return nil
}

// --- identity-memoizing kinds --------------------------------------------

// identities hands out the stable leaf identities the randomized folding and
// strawman trees memoize by: consecutive integers in insertion order, so a
// caller passes bare elements and two replicas fed the same window agree on
// every identity.
type identities struct{ next uint64 }

// tag appends elems to dst as items carrying the next identities.
func tag[T any](ids *identities, dst []Item[T], elems []T) []Item[T] {
	for _, e := range elems {
		dst = append(dst, Item[T]{ID: ids.next, Payload: e})
		ids.next++
	}
	return dst
}

// itemState snapshots identity-carrying leaves.
func itemState[T any](ids identities, leaves []Item[T]) State[T] {
	st := State[T]{Elems: make([]T, len(leaves)), IDs: make([]uint64, len(leaves)), NextID: ids.next}
	for i, leaf := range leaves {
		st.Elems[i], st.IDs[i] = leaf.Payload, leaf.ID
	}
	return st
}

// appendPayloads appends the leaves' payloads to dst.
func appendPayloads[T any](dst []T, leaves []Item[T]) []T {
	for _, leaf := range leaves {
		dst = append(dst, leaf.Payload)
	}
	return dst
}

// restoreItems rebuilds identity-carrying leaves from a snapshot.
func restoreItems[T any](ids *identities, st State[T]) ([]Item[T], error) {
	if len(st.IDs) != len(st.Elems) {
		return nil, fmt.Errorf("core: snapshot has %d identities for %d elements", len(st.IDs), len(st.Elems))
	}
	leaves := make([]Item[T], len(st.Elems))
	for i, e := range st.Elems {
		leaves[i] = Item[T]{ID: st.IDs[i], Payload: e}
	}
	ids.next = st.NextID
	return leaves, nil
}

type randomizedAgg[T any] struct {
	*RandomizedFoldingTree[T]
	noBackground
	ids     identities
	scratch []Item[T] // reused: the tree copies what it is handed
	evicted []T
}

func (a *randomizedAgg[T]) Init(elems []T) error {
	a.ids = identities{}
	a.scratch = tag(&a.ids, a.scratch[:0], elems)
	a.RandomizedFoldingTree.Init(a.scratch)
	return nil
}

func (a *randomizedAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop < 0 || drop > a.Live() {
		return nil, ErrUnderflow
	}
	a.evicted = appendPayloads(a.evicted[:0], a.leaves[:drop])
	a.scratch = tag(&a.ids, a.scratch[:0], add)
	return a.evicted, a.RandomizedFoldingTree.Slide(drop, a.scratch)
}

func (a *randomizedAgg[T]) Roots() []T { return rootOf(a.Root()) }

func (a *randomizedAgg[T]) Snapshot() State[T] { return itemState(a.ids, a.leaves) }

func (a *randomizedAgg[T]) Restore(st State[T]) error {
	leaves, err := restoreItems(&a.ids, st)
	if err != nil {
		return err
	}
	a.RandomizedFoldingTree.Init(leaves)
	a.ResetStats()
	return nil
}

// strawmanAgg owns the leaf list the memoization-only tree is rebuilt over
// on every run.
type strawmanAgg[T any] struct {
	*StrawmanTree[T]
	noBackground
	ids     identities
	leaves  []Item[T]
	evicted []T
}

func (a *strawmanAgg[T]) Init(elems []T) error {
	a.ids = identities{}
	a.leaves = tag(&a.ids, a.leaves[:0], elems)
	a.Build(a.leaves)
	return nil
}

func (a *strawmanAgg[T]) Slide(drop int, add []T) ([]T, error) {
	if drop < 0 || drop > len(a.leaves) {
		return nil, ErrUnderflow
	}
	a.evicted = appendPayloads(a.evicted[:0], a.leaves[:drop])
	a.leaves = tag(&a.ids, append(a.leaves[:0], a.leaves[drop:]...), add)
	a.Build(a.leaves)
	return a.evicted, nil
}

func (a *strawmanAgg[T]) Roots() []T { return rootOf(a.Root()) }

func (a *strawmanAgg[T]) Snapshot() State[T] { return itemState(a.ids, a.leaves) }

func (a *strawmanAgg[T]) Restore(st State[T]) error {
	leaves, err := restoreItems(&a.ids, st)
	if err != nil {
		return err
	}
	a.leaves = leaves
	a.Build(a.leaves)
	a.ResetStats()
	return nil
}
