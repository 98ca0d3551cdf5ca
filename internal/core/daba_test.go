package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// concatMerge is deliberately non-commutative: it appends b after a, so
// any backend that re-orders buckets relative to window age produces a
// detectably different sequence.
func concatMerge(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// dabaOracle folds the live raw values left to right.
func dabaOracle(live [][]int) []int {
	if len(live) == 0 {
		return nil
	}
	out := append([]int{}, live[0]...)
	for _, v := range live[1:] {
		out = append(out, v...)
	}
	return out
}

func checkDabaRoot(t *testing.T, d *DabaLite[[]int], live [][]int, step int) {
	t.Helper()
	want := dabaOracle(live)
	got, ok := d.Root()
	if len(live) == 0 {
		if ok {
			t.Fatalf("step %d: Root ok on empty queue, got %v", step, got)
		}
		return
	}
	if !ok {
		t.Fatalf("step %d: Root not ok with %d live buckets", step, len(live))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Root = %v, want %v (order-preserving left fold)", step, got, want)
	}
}

// TestDabaDifferentialVsLeftFold drives random push/evict sequences
// against a naive left fold with a non-commutative combiner, checking
// the aggregate after every operation — before its upkeep — and the
// worst-case combiner-call bounds of an operation and its upkeep (≤3 per
// push, ≤2 per evict, ≤1 per query).
func TestDabaDifferentialVsLeftFold(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 32} {
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		d := NewDaba(concatMerge, n)
		var live [][]int
		next := 0
		for step := 0; step < 2000; step++ {
			doPush := len(live) == 0 || (len(live) < n && rng.Intn(2) == 0)
			before := d.Stats().Merges
			limit, what := int64(2), "evict"
			if doPush {
				v := []int{next}
				next++
				d.push(v)
				live = append(live, v)
				limit, what = 3, "push"
			} else {
				if err := d.evict(); err != nil {
					t.Fatalf("n=%d step %d: evict: %v", n, step, err)
				}
				live = live[1:]
			}
			op := d.Stats().Merges
			checkDabaRoot(t, d, live, step)
			query := d.Stats().Merges - op
			if query > 1 {
				t.Fatalf("n=%d step %d: query cost %d merges, worst case is 1", n, step, query)
			}
			d.Background()
			if got := d.Stats().Merges - before - query; got > limit {
				t.Fatalf("n=%d step %d: %s and its upkeep cost %d merges, worst case is %d", n, step, what, got, limit)
			}
			if d.Len() != len(live) {
				t.Fatalf("n=%d step %d: Len = %d, want %d", n, step, d.Len(), len(live))
			}
		}
	}
}

// TestDabaSlide exercises the Init + Slide + Background surface the runtime
// uses: constant combiner work per slide and its upkeep at every window
// size.
func TestDabaSlide(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 64, 256} {
		d := NewDaba(concatMerge, n)
		if err := d.Slide([]int{0}); err != ErrWindowNotFull {
			t.Fatalf("n=%d: Slide before Init: err = %v, want ErrWindowNotFull", n, err)
		}
		if err := d.Init(make([][]int, n+1)); err != ErrWindowNotFull {
			t.Fatalf("n=%d: Init with %d buckets: err = %v, want ErrWindowNotFull", n, n+1, err)
		}
		var live [][]int
		for i := 0; i < n; i++ {
			live = append(live, []int{i})
		}
		if err := d.Init(live); err != nil {
			t.Fatalf("n=%d: Init: %v", n, err)
		}
		checkDabaRoot(t, d, live, -1)
		d.Background()
		for step := 0; step < 200; step++ {
			v := []int{n + step}
			before := d.Stats().Merges
			if err := d.Slide(v); err != nil {
				t.Fatalf("n=%d step %d: Slide: %v", n, step, err)
			}
			d.Background()
			if got := d.Stats().Merges - before; got > 5 {
				t.Fatalf("n=%d step %d: slide and upkeep cost %d merges, worst case is 5", n, step, got)
			}
			live = append(live[1:], v)
			checkDabaRoot(t, d, live, step)
		}
	}
}

// eagerDaba is DabaLite as it ran before a fixup could wait: every push and
// every evict runs its fixup at once. It shares the structure's fields,
// fixup and flip, and none of the deferral.
type eagerDaba[T any] struct{ *DabaLite[T] }

func newEagerDaba[T any](merge MergeFunc[T], buckets []T) eagerDaba[T] {
	d := eagerDaba[T]{NewDaba(merge, len(buckets))}
	for _, b := range buckets {
		d.push(b)
	}
	d.filled = true
	return d
}

func (d eagerDaba[T]) push(v T) {
	s := d.slot(d.e)
	d.q[s], d.raw[s] = v, v
	d.e++
	if d.hasBack {
		d.backSum = d.merge(d.backSum, v)
		d.stats.Merges++
	} else {
		d.backSum, d.hasBack = v, true
	}
	d.stats.NodesRecomputed++
	d.fixup()
}

func (d eagerDaba[T]) slide(v T) {
	var zero T
	s := d.slot(d.f)
	d.q[s], d.raw[s] = zero, zero
	d.f++
	d.fixup()
	d.push(v)
}

// TestDabaDeferredFixupsMatchEager slides DABA Lite beside the eager
// reference and the left fold, over several flips of windows of 1, 2, 3, 8
// and 64 buckets, with the upkeep run after a seeded half of the slides and
// left to the next Slide otherwise. The window aggregate the halves make is
// the left fold's at every query, pending fixups or not; after every
// Background the halves the query read are whole — the upkeep released
// neither (a flip left for it would: it hands backSum to midSum and the
// front to L) — and the cursors, the fingerprint and the work counters are
// the eager reference's.
func TestDabaDeferredFixupsMatchEager(t *testing.T) {
	fp := func(p []int) uint64 {
		h := uint64(0x51ed)
		for _, v := range p {
			h = fpMix(h, uint64(v))
		}
		return h
	}
	for _, n := range []int{1, 2, 3, 8, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		var live [][]int
		for i := 0; i < n; i++ {
			live = append(live, []int{i})
		}
		lazy := NewDaba(concatMerge, n)
		oracle := NewOwnershipOracle(-1, func(v int) bool { return v < 0 })
		lazy.OnRelease(oracle.Release)
		if err := lazy.Init(live); err != nil {
			t.Fatal(err)
		}
		ref := newEagerDaba(concatMerge, live)
		deferred := 0
		for step := 0; step < 6*n+12; step++ {
			v := []int{n + step}
			if err := lazy.Slide(v); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
			ref.slide(v)
			live = append(live[1:], v)
			deferred += lazy.pending
			halves := lazy.Halves(nil)
			if got, want := dabaOracle(halves), dabaOracle(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d step %d (%d fixups pending): the halves make %v, the window is %v", n, step, lazy.pending, got, want)
			}
			if rng.Intn(2) == 0 {
				continue
			}
			lazy.Background()
			for _, h := range halves {
				oracle.Scan("a half the query read", h)
			}
			if err := oracle.Err(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
			cursors := func(d *DabaLite[[]int]) [6]uint64 { return [6]uint64{d.f, d.l, d.r, d.a, d.b, d.e} }
			if cursors(lazy) != cursors(ref.DabaLite) {
				t.Fatalf("n=%d step %d: cursors %v after the upkeep, eager %v", n, step, cursors(lazy), cursors(ref.DabaLite))
			}
			if lazy.FingerprintWith(fp) != ref.FingerprintWith(fp) || lazy.Stats() != ref.Stats() {
				t.Fatalf("n=%d step %d: after the upkeep stats %+v, eager %+v (or the fingerprints differ)", n, step, lazy.Stats(), ref.Stats())
			}
		}
		if n > 2 && deferred == 0 {
			t.Fatalf("n=%d: no slide deferred a fixup", n)
		}
	}
}

// TestDabaRecyclesDeadSlots slides a plain aggregator and one with a release
// hook side by side: same roots (the left-fold oracle), same halves, same
// stats and fingerprint. The hook is the ownership oracle, which scribbles
// what it is handed: every release must be of a merge's result, handed over
// once, and nothing the structure still exposes — halves, slots, running
// sums, raw buckets — may be released storage afterwards. Every aggregate
// built into a slot is released or still held at the end: none leaks.
func TestDabaRecyclesDeadSlots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 33} {
		oracle := NewOwnershipOracle(-1, func(v int) bool { return v < 0 })
		built, builds := map[*int]bool{}, 0
		plain, hooked := NewDaba(concatMerge, n), NewDaba(func(a, b []int) []int {
			out := concatMerge(a, b)
			built[&out[0]] = true
			builds++
			return out
		}, n)
		hooked.OnRelease(func(v []int) {
			if !built[&v[0]] {
				t.Fatalf("n=%d: released %v, which no merge built", n, v)
			}
			oracle.Release(v)
		})
		var live [][]int
		for i := 0; i < n; i++ {
			live = append(live, []int{i})
		}
		rootMerges := 0 // Root's results are built and kept in no slot: never released
		check := func(step int) {
			t.Helper()
			checkDabaRoot(t, plain, live, step)
			before := hooked.Stats().Merges
			checkDabaRoot(t, hooked, live, step)
			rootMerges += int(hooked.Stats().Merges - before)
			halves := hooked.Halves(nil)
			if !reflect.DeepEqual(halves, plain.Halves(nil)) || !reflect.DeepEqual(dabaOracle(halves), dabaOracle(live)) {
				t.Fatalf("n=%d step %d: halves %v do not concatenate to the window", n, step, halves)
			}
			for _, h := range halves {
				oracle.Scan("a half", h)
			}
			hooked.ForEachPayload(func(v []int) { oracle.Scan("a slot", v) })
			raws, _ := hooked.BucketPayloads()
			for _, v := range raws {
				oracle.Scan("a raw bucket", v)
			}
			if err := oracle.Err(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
		}
		for _, d := range []*DabaLite[[]int]{plain, hooked} {
			if err := d.Init(live); err != nil {
				t.Fatalf("n=%d: Init: %v", n, err)
			}
		}
		check(-1)
		const slides = 200
		for step := 0; step < slides; step++ {
			v := []int{n + step}
			for _, d := range []*DabaLite[[]int]{plain, hooked} {
				if err := d.Slide(v); err != nil {
					t.Fatalf("n=%d step %d: Slide: %v", n, step, err)
				}
			}
			live = append(live[1:], v)
			check(step)
		}
		fp := func(v []int) uint64 { return uint64(len(v)) }
		if plain.Stats() != hooked.Stats() || plain.FingerprintWith(fp) != hooked.FingerprintWith(fp) {
			t.Fatalf("n=%d: the release hook changed stats or state: %+v vs %+v", n, hooked.Stats(), plain.Stats())
		}
		// Every other merge result is released when it dies, unless a slot or
		// a running sum still holds it.
		held := 0
		for _, owned := range append([]bool{hooked.midOwned, hooked.backOwned}, hooked.owned...) {
			if owned {
				held++
			}
		}
		if got, want := oracle.Released()+held, builds-rootMerges; got != want || n >= 3 && oracle.Released() < slides {
			t.Fatalf("n=%d: %d aggregates released and %d held, %d built into slots", n, oracle.Released(), held, want)
		}
	}
}

// TestDabaBucketPayloadsAndRestore checks that BucketPayloads returns
// the raw buckets in window order and that a restored aggregator
// matches a fresh one built from the same checkpoint: same root, same
// fingerprint, same (rebuild-only) stats.
func TestDabaBucketPayloadsAndRestore(t *testing.T) {
	n := 6
	d := NewDaba(concatMerge, n)
	var live [][]int
	for i := 0; i < n; i++ {
		live = append(live, []int{i})
	}
	if err := d.Init(live); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		v := []int{n + i}
		if err := d.Slide(v); err != nil {
			t.Fatal(err)
		}
		live = append(live[1:], v)
	}
	got, ok := d.BucketPayloads()
	if !ok || !reflect.DeepEqual(got, live) {
		t.Fatalf("BucketPayloads = %v, %v; want %v in window order", got, ok, live)
	}

	fp := func(p []int) uint64 {
		h := uint64(0x12345)
		for _, v := range p {
			h = fpMix(h, uint64(v))
		}
		return h
	}
	inPlace := d
	if err := inPlace.Restore(got); err != nil {
		t.Fatal(err)
	}
	fresh := NewDaba(concatMerge, n)
	if err := fresh.Restore(got); err != nil {
		t.Fatal(err)
	}
	if inPlace.Stats() != fresh.Stats() {
		t.Fatalf("restored stats diverge: in-place %+v, fresh %+v", inPlace.Stats(), fresh.Stats())
	}
	if inPlace.FingerprintWith(fp) != fresh.FingerprintWith(fp) {
		t.Fatal("restored fingerprints diverge between in-place and fresh restore")
	}
	checkDabaRoot(t, fresh, live, -1)
}

// TestDabaFingerprintTracksState checks that the fingerprint is
// deterministic across replicas with identical histories and changes
// when the window contents change.
func TestDabaFingerprintTracksState(t *testing.T) {
	fp := func(p []int) uint64 {
		h := uint64(0x9dc5)
		for _, v := range p {
			h = fpMix(h, uint64(v))
		}
		return h
	}
	build := func(vals []int) *DabaLite[[]int] {
		d := NewDaba(concatMerge, 4)
		var buckets [][]int
		for _, v := range vals[:4] {
			buckets = append(buckets, []int{v})
		}
		if err := d.Init(buckets); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals[4:] {
			if err := d.Slide([]int{v}); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a := build([]int{1, 2, 3, 4, 5, 6})
	b := build([]int{1, 2, 3, 4, 5, 6})
	c := build([]int{1, 2, 3, 4, 5, 7})
	if a.FingerprintWith(fp) != b.FingerprintWith(fp) {
		t.Fatal("identical histories fingerprint differently")
	}
	if a.FingerprintWith(fp) == c.FingerprintWith(fp) {
		t.Fatal("different window contents fingerprint identically")
	}
}

// TestDabaShape checks the structural snapshot surface.
func TestDabaShape(t *testing.T) {
	d := NewDaba(concatMerge, 3)
	s := d.Shape()
	if s.Variant != "daba" || s.Live != 0 || s.Height != 0 {
		t.Fatalf("empty shape = %+v", s)
	}
	if err := d.Init([][]int{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	s = d.Shape()
	if s.Variant != "daba" || s.Live != 3 || s.Height != 0 || s.Nodes != d.NodeCount() {
		t.Fatalf("filled shape = %+v (NodeCount %d)", s, d.NodeCount())
	}
	if len(s.Levels) != 1 || s.Levels[0] != 3 {
		t.Fatalf("Levels = %v, want [3]", s.Levels)
	}
}
