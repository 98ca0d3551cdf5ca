package sim

import "slider/internal/core"

// pay is the tree-layer payload: the ordered sequence of leaf IDs below a
// node. Merging is concatenation into a fresh slice (a merge's result
// shares no storage with its inputs), so the root payload is the exact leaf
// sequence the tree believes is in the window — the strongest possible
// differential signal against the from-scratch oracle.
type pay []uint64

// pmerge concatenates two payloads into a fresh slice.
func pmerge(a, b pay) pay {
	out := make(pay, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// pfp is an order-sensitive payload fingerprint.
func pfp(p pay) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range p {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// rndSeed is the coin-flip seed every randomized tree uses: it must be
// identical across restores (in the runtime it is part of
// the checkpointed configuration).
const rndSeed = 0xc0ffee

// treeDriver drives one core.Aggregator — built by the same constructor
// the runtime uses, so the tree layer checks the adapters production runs —
// the way a runtime does: slide, read what the reduce would consume, then
// run the background step. All window logic lives in the aggregator.
type treeDriver struct {
	kind Kind
	agg  core.Aggregator[pay]
	// out is what the final reduce consumed after the last operation,
	// read once per operation (a query may itself combine) and before the
	// background step (a split-mode foreground result is only visible
	// until then).
	out []pay
	// evicted is what the last slide said it evicted, flattened to leaf IDs.
	evicted pay
	// own is the release hook of the kinds that release (core.Releaser):
	// nothing recycles storage at this layer, so a released payload is
	// scribbled over and whatever still reaches it shows in ownership.
	own *core.OwnershipOracle[uint64]
}

// released is what the ownership oracle writes over a released payload; no
// leaf ever carries it as its ID.
const released = ^uint64(0)

// newTreeDriver builds the driver for a kind over a window of width
// elements, with optional fault injection.
func newTreeDriver(kind Kind, width int, bug core.Buggify) *treeDriver {
	spec := kind.spec()
	opts := core.Options{Width: width, Split: spec.split, Seed: rndSeed, Buggify: bug}
	d := &treeDriver{kind: kind, agg: core.NewAggregator(spec.kind, pmerge, opts)}
	d.own = core.NewOwnershipOracle(released, func(id uint64) bool { return id == released })
	if r, ok := d.agg.(core.Releaser[pay]); ok {
		r.OnRelease(func(p pay) { d.own.Release(p) })
	}
	return d
}

// ownership holds everything the aggregator still exposes — what the reduce
// consumed, every payload it materializes, its snapshot, the last slide's
// evicted elements — against the payloads it has released: none of it may be
// released storage.
func (d *treeDriver) ownership() error {
	for _, p := range d.out {
		d.own.Scan("a root", p)
	}
	d.agg.ForEachPayload(func(p pay) { d.own.Scan("a materialized payload", p) })
	snap := d.agg.Snapshot()
	for _, p := range snap.Elems {
		d.own.Scan("a snapshot element", p)
	}
	d.own.Scan("the snapshot's root", snap.Root)
	d.own.Scan("the snapshot's pending payload", snap.Pending)
	d.own.Scan("the evicted list", d.evicted)
	return d.own.Err()
}

// elements turns leaf IDs into aggregator elements: one singleton payload
// each, except that an append-only window takes each run's new leaves
// pre-folded into one C′ (as the runtime does for newly mapped splits).
func (d *treeDriver) elements(ids []uint64) []pay {
	if d.kind.appendOnly() {
		return []pay{append(pay(nil), ids...)}
	}
	out := make([]pay, len(ids))
	for i, id := range ids {
		out[i] = pay{id}
	}
	return out
}

// settle completes an operation: read the reduce's input, then run the
// background step.
func (d *treeDriver) settle(err error) error {
	if err != nil {
		return err
	}
	d.out = d.agg.Roots()
	_, err = d.agg.Background()
	return err
}

// init performs the initial run over the given leaf IDs.
func (d *treeDriver) init(ids []uint64) error {
	return d.settle(d.agg.Init(d.elements(ids)))
}

// slide applies one OpSlide (drop/add semantics per kind).
func (d *treeDriver) slide(drop int, ids []uint64) error {
	evicted, err := d.agg.Slide(drop, d.elements(ids))
	d.evicted = d.evicted[:0]
	for _, e := range evicted {
		d.evicted = append(d.evicted, e...)
	}
	return d.settle(err)
}

// The out-of-order operations; the harness issues them only for kinds
// whose aggregator has the capability.
func (d *treeDriver) lateInsert(pos int, id uint64) error {
	return d.settle(d.agg.(core.OutOfOrder[pay]).InsertAt(pos, pay{id}))
}

func (d *treeDriver) bulkEvict(k int) error {
	return d.settle(d.agg.(core.OutOfOrder[pay]).BulkEvict(k))
}

func (d *treeDriver) bulkInsert(ids []uint64) error {
	return d.settle(d.agg.(core.OutOfOrder[pay]).BulkInsert(d.elements(ids)))
}

// root returns the payload the job's final reduce would consume: the
// union of what the aggregator handed out, in window order.
func (d *treeDriver) root() (pay, bool) {
	if len(d.out) == 0 {
		return nil, false
	}
	var out pay
	for _, p := range d.out {
		out = append(out, p...)
	}
	return out, true
}

func (d *treeDriver) stats() core.Stats   { return d.agg.Stats() }
func (d *treeDriver) fingerprint() uint64 { return d.agg.FingerprintWith(pfp) }

// restore reinstates a snapshot (on a fresh driver, this is the
// crash-recovery path).
func (d *treeDriver) restore(st core.State[pay]) error {
	return d.settle(d.agg.Restore(st))
}
