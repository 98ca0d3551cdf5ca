package core

import (
	"math/rand"
	"reflect"
	"slices"
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

func checkDabaRoot(t *testing.T, d *TwoStacksLite[[]int], live [][]int, step int) {
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
// against a naive left fold with a non-commutative combiner, checking the
// aggregate after every operation — before its upkeep — and the merge bounds
// of Two-Stacks Lite: a query costs at most one merge, an operation and its
// upkeep at most one push merge plus one flip of at most n−2, and every
// bucket is merged at most twice in all (once into the back's running sum,
// once at its flip).
func TestDabaDifferentialVsLeftFold(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 32} {
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		d := NewDaba(concatMerge, n)
		var live [][]int
		next, queries := 0, int64(0)
		for step := 0; step < 2000; step++ {
			doPush := len(live) == 0 || (len(live) < n && rng.Intn(2) == 0)
			before := d.Stats().Merges
			if doPush {
				v := []int{next}
				next++
				d.push(v)
				live = append(live, v)
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
				t.Fatalf("n=%d step %d: query cost %d merges, bound 1", n, step, query)
			}
			queries += query
			d.Background()
			if got, limit := d.Stats().Merges-before-query, int64(1+max(n-2, 0)); got > limit {
				t.Fatalf("n=%d step %d: an operation and its upkeep cost %d merges, bound %d", n, step, got, limit)
			}
			if got := d.Stats().Merges - queries; got > int64(2*next) {
				t.Fatalf("n=%d step %d: %d merges for %d buckets pushed, bound two a bucket", n, step, got, next)
			}
			if d.Len() != len(live) {
				t.Fatalf("n=%d step %d: Len = %d, want %d", n, step, d.Len(), len(live))
			}
		}
	}
}

// TestDabaSlide exercises the Init + Slide + Background surface the runtime
// uses at every window size: a slide and its upkeep cost one merge, plus a
// flip of n−2 once every n slides, which runs in the upkeep.
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
		if got := d.Stats().Merges; got != int64(n-1) {
			t.Fatalf("n=%d: Init cost %d merges, want the front's n−1", n, got)
		}
		checkDabaRoot(t, d, live, -1)
		if d.Background() {
			t.Fatalf("n=%d: Init left a flip for the upkeep", n)
		}
		start := d.Stats().Merges
		const slides = 200
		for step := 0; step < slides; step++ {
			v := []int{n + step}
			before := d.Stats().Merges
			if err := d.Slide(v); err != nil {
				t.Fatalf("n=%d step %d: Slide: %v", n, step, err)
			}
			if got := d.Stats().Merges - before; got > 1 {
				t.Fatalf("n=%d step %d: the slide cost %d merges before its upkeep, want at most 1", n, step, got)
			}
			flipped := d.Background()
			if got, want := flipped, (step+1)%n == 0; got != want {
				t.Fatalf("n=%d step %d: upkeep flipped = %v, want %v (a flip every n slides)", n, step, got, want)
			}
			if got, limit := d.Stats().Merges-before, int64(max(n-1, 1)); got > limit {
				t.Fatalf("n=%d step %d: slide and upkeep cost %d merges, bound %d", n, step, got, limit)
			}
			live = append(live[1:], v)
			query := d.Stats().Merges
			checkDabaRoot(t, d, live, step)
			start += d.Stats().Merges - query
		}
		if got, limit := d.Stats().Merges-start, int64(2*slides); got > limit {
			t.Fatalf("n=%d: %d slides cost %d merges, bound two a bucket (%d)", n, slides, got, limit)
		}
	}
}

// TestDabaHalvesAndRestoreMatchModel holds Two-Stacks Lite to its model.
// Over random pushes and evicts, with the upkeep run after a seeded half of
// the operations and left to the next evict otherwise, the halves fold to
// the left fold of the live buckets under a non-commutative combiner after
// every operation and again after its upkeep, which releases neither half.
// Then, sliding a full window through three cycles, a restore at every
// phase of a cycle reproduces the writer's fingerprint, and the restored
// aggregator's next slide and upkeep do the writer's work and leave the
// writer's state.
func TestDabaHalvesAndRestoreMatchModel(t *testing.T) {
	fp := func(p []int) uint64 {
		h := uint64(0x51ed)
		for _, v := range p {
			h = fpMix(h, uint64(v))
		}
		return h
	}
	for _, n := range []int{1, 2, 3, 8, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		d := NewDaba(concatMerge, n)
		oracle := NewOwnershipOracle(-1, func(v int) bool { return v < 0 })
		d.OnRelease(oracle.Release)
		var live [][]int
		next, deferred := 0, 0
		for step := 0; step < 40*n+40; step++ {
			if len(live) == 0 || len(live) < n && rng.Intn(2) == 0 {
				v := []int{next}
				next++
				d.push(v)
				live = append(live, v)
			} else {
				if err := d.evict(); err != nil {
					t.Fatalf("n=%d step %d: %v", n, step, err)
				}
				live = live[1:]
			}
			halves := d.Halves(nil)
			if got, want := dabaOracle(halves), dabaOracle(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d step %d: the halves make %v, the window is %v", n, step, got, want)
			}
			if rng.Intn(2) == 0 {
				if d.f == d.b && d.b != d.e {
					deferred++
				}
				continue
			}
			d.Background()
			for _, h := range halves {
				oracle.Scan("a half the query read", h)
			}
			if err := oracle.Err(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
			if got, want := dabaOracle(d.Halves(nil)), dabaOracle(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d step %d: after the upkeep the halves make %v, the window is %v", n, step, got, want)
			}
		}
		if n > 1 && deferred == 0 {
			t.Fatalf("n=%d: no flip was left to an evict", n)
		}

		live = live[:0]
		for i := 0; i < n; i++ {
			live = append(live, []int{i})
		}
		w := NewDaba(concatMerge, n)
		if err := w.Init(live); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3*n; step++ {
			buckets, _ := w.BucketPayloads()
			r := NewDaba(concatMerge, n)
			if err := r.RestoreAt(buckets, w.f); err != nil {
				t.Fatal(err)
			}
			if r.FingerprintWith(fp) != w.FingerprintWith(fp) {
				t.Fatalf("n=%d phase %d: the restore fingerprints differently from its writer", n, step%n)
			}
			v := []int{n + step}
			work := func(d *TwoStacksLite[[]int]) Stats {
				before := d.Stats()
				if err := d.Slide(v); err != nil {
					t.Fatal(err)
				}
				d.Background()
				after := d.Stats()
				return Stats{after.Merges - before.Merges, after.NodesRecomputed - before.NodesRecomputed, after.NodesReused - before.NodesReused}
			}
			if got, want := work(r), work(w); got != want || r.FingerprintWith(fp) != w.FingerprintWith(fp) {
				t.Fatalf("n=%d phase %d: the restored slide did %+v, its writer's %+v (or left a different state)", n, step%n, got, want)
			}
			live = append(live[1:], v)
			checkDabaRoot(t, r, live, step)
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
		for _, d := range []*TwoStacksLite[[]int]{plain, hooked} {
			if err := d.Init(live); err != nil {
				t.Fatalf("n=%d: Init: %v", n, err)
			}
		}
		check(-1)
		const slides = 200
		for step := 0; step < slides; step++ {
			v := []int{n + step}
			for _, d := range []*TwoStacksLite[[]int]{plain, hooked} {
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
		// Every other merge result is released when it dies, unless a slot,
		// the running sum or a spare kept for the next flip still holds it.
		held := 0
		if hooked.f < hooked.b {
			held = int(hooked.b-hooked.f) - 1 // the front's slots but its newest
		}
		for _, owned := range append([]bool{hooked.backOwned}, hooked.spared...) {
			if owned {
				held++
			}
		}
		// A cycle of n slides releases 2n−3: n−2 running sums, and the n−1
		// spares its flip builds in.
		if got, want := oracle.Released()+held, builds-rootMerges; got != want || n >= 3 && oracle.Released() < (slides/n-1)*(2*n-3) {
			t.Fatalf("n=%d: %d aggregates released and %d held, %d built into slots", n, oracle.Released(), held, want)
		}
	}
}

// TestDabaBucketPayloadsAndRestore checks that BucketPayloads returns
// the raw buckets in window order and that a restored aggregator
// matches a fresh one built from the same checkpoint: same root, same
// fingerprint, stats zero.
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
	pos := d.f
	inPlace := d
	if err := inPlace.RestoreAt(got, pos); err != nil {
		t.Fatal(err)
	}
	fresh := NewDaba(concatMerge, n)
	if err := fresh.RestoreAt(got, pos); err != nil {
		t.Fatal(err)
	}
	if inPlace.Stats() != fresh.Stats() || fresh.Stats() != (Stats{}) {
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
	build := func(vals []int) *TwoStacksLite[[]int] {
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

// unionMerge merges two sorted sets of keys: the payload shape of the
// reduce's roots, where a key both sides hold is written once.
func unionMerge(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// searchAt is the binary-search reference for recorded positions: the index
// of each of keys in set, or −(insertion point)−1 where set lacks it.
func searchAt(keys, set []int) []int32 {
	at := make([]int32, len(keys))
	for i, k := range keys {
		j, ok := slices.BinarySearch(set, k)
		if at[i] = int32(j); !ok {
			at[i] = int32(-j - 1)
		}
	}
	return at
}

// locateUnion is unionMerge recording positions as a LocatingMerge does, by
// binary search, into at's storage.
func locateUnion(a, b []int, flip bool, at []int32) ([]int, []int32) {
	out := unionMerge(a, b)
	raw, in := b, out
	if flip {
		raw, in = a, b
	}
	return out, append(at[:0], searchAt(raw, in)...)
}

// TestTwoStacksLocatedMatchesSearch drives Two-Stacks Lite with a locating
// merge through random slides of random buckets, its flips left to the
// upkeep or to the next evict (a foreground flip) at random, and restored at
// every phase of a flip cycle in turn: after every slide the positions Located hands
// out are where a binary search finds the evicted bucket's keys in the front
// half and the added bucket's in the back half — the identity for the first
// push after a flip —, and they are nil exactly for the evicts no merge
// located: the newest front slot's, which leaves no front, and q[b]'s, which
// took the back's sum over — all but the first front of a fill, which Init
// and RestoreAt build by merges. A twin without a locating merge
// does the same merges to the same state. A slide of several buckets, and a
// restore, hand out no positions.
func TestTwoStacksLocatedMatchesSearch(t *testing.T) {
	fp := func(p []int) uint64 {
		h := uint64(0x10ca)
		for _, v := range p {
			h = fpMix(h, uint64(v))
		}
		return h
	}
	size := func(p []int) int { return len(p) }
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		rng := rand.New(rand.NewSource(int64(n) * 2009))
		bucket := func() []int {
			var b []int
			for k := 0; k < 40; k++ {
				if rng.Intn(4) == 0 {
					b = append(b, k)
				}
			}
			return b
		}
		window := make([][]int, n)
		for i := range window {
			window[i] = bucket()
		}
		located := NewDaba(unionMerge, n)
		located.LocateWith(locateUnion, size)
		plain := NewDaba(unionMerge, n)
		for _, d := range []*TwoStacksLite[[]int]{located, plain} {
			if err := d.Init(window); err != nil {
				t.Fatal(err)
			}
		}
		// fillEnd is where the last fill's front ended: the buckets before it
		// were merged into their suffixes, the back's oldest after it not.
		fillEnd := uint64(n)
		cycles := max(n+2, 12)
		evictsLocated, phases := 0, map[uint64]bool{}
		for step := 0; step < cycles*n; step++ {
			if step%(n+1) == n {
				// Restore both at this phase; a restore hands out nothing.
				buckets, _ := located.BucketPayloads()
				pos := located.f
				located, plain = NewDaba(unionMerge, n), NewDaba(unionMerge, n)
				located.LocateWith(locateUnion, size)
				for _, d := range []*TwoStacksLite[[]int]{located, plain} {
					if err := d.RestoreAt(buckets, pos); err != nil {
						t.Fatal(err)
					}
				}
				if ev, ad := located.Located(); ev != nil || ad != nil {
					t.Fatalf("n=%d step %d: a restore hands out positions %v, %v", n, step, ev, ad)
				}
				fillEnd = pos + uint64(n) - pos%uint64(n)
				phases[pos%uint64(n)] = true
			}
			k := located.f
			wantEv := k%uint64(n) != uint64(n-1) && (k%uint64(n) != 0 || k < fillEnd)
			evicted, v := window[0], bucket()
			window = append(window[1:], v)
			for _, d := range []*TwoStacksLite[[]int]{located, plain} {
				if err := d.Slide(v); err != nil {
					t.Fatal(err)
				}
			}
			halves := located.Halves(nil)
			ev, ad := located.Located()
			if ad == nil || !slices.Equal(ad, searchAt(v, halves[len(halves)-1])) {
				t.Fatalf("n=%d step %d: the added bucket %v is located at %v in the back half %v", n, step, v, ad, halves[len(halves)-1])
			}
			if (ev != nil) != wantEv {
				t.Fatalf("n=%d step %d: bucket %d evicted with positions %v, want them: %v", n, step, k, ev, wantEv)
			}
			if ev != nil {
				evictsLocated++
				if len(halves) != 2 || !slices.Equal(ev, searchAt(evicted, halves[0])) {
					t.Fatalf("n=%d step %d: the evicted bucket %v is located at %v in the halves %v", n, step, evicted, ev, halves)
				}
			}
			if got, want := unionAll(halves), unionAll(window); !slices.Equal(got, want) {
				t.Fatalf("n=%d step %d: the halves hold %v, the window %v", n, step, got, want)
			}
			if rng.Intn(2) == 0 {
				located.Background()
				plain.Background()
			}
			if located.Stats() != plain.Stats() || located.FingerprintWith(fp) != plain.FingerprintWith(fp) {
				t.Fatalf("n=%d step %d: locating changed the work (%+v, plain %+v) or the state", n, step, located.Stats(), plain.Stats())
			}
		}
		if evictsLocated < (cycles-2)*max(n-2, 0) || len(phases) != n {
			t.Fatalf("n=%d: %d of %d evicts located, want all but two a cycle; restored at %d of %d phases", n, evictsLocated, cycles*n, len(phases), n)
		}

		// A slide of several buckets hands out nothing; the next single one does.
		agg := NewAggregator(KindDaba, unionMerge, Options{Width: n})
		agg.(Locating[[]int]).LocateWith(locateUnion, size)
		if err := agg.Init(window); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Slide(2, [][]int{bucket(), bucket()}); err != nil {
			t.Fatal(err)
		}
		if ev, ad := agg.(Locating[[]int]).Located(); ev != nil || ad != nil {
			t.Fatalf("n=%d: a two-bucket slide hands out positions %v, %v", n, ev, ad)
		}
		if _, err := agg.Slide(1, [][]int{bucket()}); err != nil {
			t.Fatal(err)
		}
		if _, ad := agg.(Locating[[]int]).Located(); ad == nil {
			t.Fatalf("n=%d: a one-bucket slide hands out no positions for its push", n)
		}
	}
}

// unionAll is the set of keys the window's buckets hold.
func unionAll(window [][]int) []int {
	var out []int
	for _, b := range window {
		out = unionMerge(out, b)
	}
	return out
}
