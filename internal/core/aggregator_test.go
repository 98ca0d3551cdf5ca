package core

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The conformance table drives every aggregator kind through the one
// interface with the same script and checks it against a model window. What
// is specific to a kind is declared in its row — how leaves become elements,
// whether slides must balance, whether roots come back in window order —
// never in the script.

// leafSeq is the conformance payload: the ordered leaf IDs below a node,
// merged with concat (folding_test.go), so a root is the exact sequence the
// structure believes is in the window.
type leafSeq = []int

func hashSeq(p leafSeq) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

type aggCase struct {
	name  string
	kind  Kind
	split bool
	// shape of the kind's window: fixed kinds slide drop == add, the
	// append-only kind never drops and takes each run pre-folded into one
	// element, rotating roots are a permutation of the window.
	fixed, appendOnly, reorders bool
}

func aggCases() []aggCase {
	return []aggCase{
		{name: "folding", kind: KindFolding},
		{name: "randomized", kind: KindRandomizedFolding},
		{name: "rotating", kind: KindRotating, fixed: true, reorders: true},
		{name: "rotating-split", kind: KindRotating, split: true, fixed: true, reorders: true},
		{name: "coalescing", kind: KindCoalescing, appendOnly: true},
		{name: "coalescing-split", kind: KindCoalescing, split: true, appendOnly: true},
		{name: "strawman", kind: KindStrawman},
		{name: "daba", kind: KindDaba, fixed: true},
		{name: "fingertree", kind: KindFingerTree, fixed: true},
	}
}

const aggWidth = 6

func (c aggCase) new() Aggregator[leafSeq] {
	return NewAggregator(c.kind, concat, Options{Width: aggWidth, Split: c.split, Seed: 7})
}

// aggModel is the from-scratch window the aggregators are checked against.
type aggModel struct {
	c      aggCase
	window []int
	next   int
}

// take mints n new leaves and returns them as the kind's elements.
func (m *aggModel) take(n int) []leafSeq {
	ids := make(leafSeq, n)
	for i := range ids {
		ids[i] = m.next
		m.next++
	}
	m.window = append(m.window, ids...)
	if m.c.appendOnly {
		return []leafSeq{ids}
	}
	out := make([]leafSeq, n)
	for i, id := range ids {
		out[i] = leafSeq{id}
	}
	return out
}

// wantRoots checks that the union of an aggregator's roots is the window.
func (m *aggModel) wantRoots(t *testing.T, what string, a Aggregator[leafSeq]) {
	t.Helper()
	var got []int
	for _, r := range a.Roots() {
		got = append(got, r...)
	}
	if m.c.reorders {
		sort.Ints(got)
	}
	if len(got) == 0 && len(m.window) == 0 {
		return
	}
	if !reflect.DeepEqual(got, m.window) {
		t.Fatalf("%s: roots %v, window %v", what, got, m.window)
	}
}

// script is the slide schedule of a case's window shape.
func (c aggCase) script() [][2]int {
	switch {
	case c.appendOnly:
		return [][2]int{{0, 2}, {0, 1}, {0, 4}, {0, 1}}
	case c.fixed:
		return [][2]int{{1, 1}, {2, 2}, {1, 1}, {3, 3}, {1, 1}}
	}
	return [][2]int{{1, 2}, {0, 3}, {4, 1}, {2, 2}, {5, 0}, {0, 2}}
}

func TestAggregatorConformance(t *testing.T) {
	for _, c := range aggCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m := &aggModel{c: c}
			live := c.new() // never stopped
			slide := func(what string, aggs []Aggregator[leafSeq], drop, add int) {
				t.Helper()
				gone := m.window[:drop:drop]
				m.window = m.window[drop:]
				elems := m.take(add)
				for _, a := range aggs {
					evicted, err := a.Slide(drop, elems)
					if err != nil {
						t.Fatalf("%s: slide(%d,%d): %v", what, drop, add, err)
					}
					// What Slide says it evicted is the model's oldest drop
					// leaves, one element each, in window order — for the
					// rotating tree too, whose victim cursor walks in age order.
					if len(evicted) != len(gone) || !slices.Equal(slices.Concat(evicted...), gone) {
						t.Fatalf("%s: slide(%d,%d) evicted %v, want %v", what, drop, add, evicted, gone)
					}
					m.wantRoots(t, what, a)
					if _, err := a.Background(); err != nil {
						t.Fatalf("%s: background: %v", what, err)
					}
					m.wantRoots(t, what+" after background", a)
				}
			}

			if err := live.Init(m.take(aggWidth)); err != nil {
				t.Fatal(err)
			}
			m.wantRoots(t, "init", live)
			ran, err := live.Background()
			if err != nil {
				t.Fatal(err)
			}
			if wantRan := c.split && c.kind == KindRotating; ran != wantRan {
				t.Fatalf("first Background ran = %v, want %v", ran, wantRan)
			}
			for _, s := range c.script() {
				slide("live", []Aggregator[leafSeq]{live}, s[0], s[1])
			}
			if live.Stats().Merges == 0 {
				t.Fatal("no merges counted")
			}
			nodes := 0
			live.ForEachPayload(func(leafSeq) { nodes++ })
			if sh := live.Shape(); sh.Variant == "" || nodes == 0 {
				t.Fatalf("introspection is empty: shape %+v, %d payloads", sh, nodes)
			}

			// Snapshot → restore into a fresh instance and in place into a
			// third: both are indistinguishable, counters zero, and from here
			// on they answer exactly as the instance that never stopped.
			snap := live.Snapshot()
			fresh, again := c.new(), c.new()
			for _, a := range []Aggregator[leafSeq]{fresh, again} {
				if err := a.Restore(snap); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if st := a.Stats(); st != (Stats{}) {
					t.Fatalf("Stats after restore = %+v, want zero", st)
				}
			}
			if err := again.Restore(again.Snapshot()); err != nil {
				t.Fatalf("in-place restore: %v", err)
			}
			if f, g := fresh.FingerprintWith(hashSeq), again.FingerprintWith(hashSeq); f != g {
				t.Fatalf("fresh restore fingerprints %#x, twice-restored %#x", f, g)
			}
			if !reflect.DeepEqual(fresh.Snapshot(), snap) {
				t.Fatalf("snapshot of the restored instance moved:\n got  %+v\n want %+v", fresh.Snapshot(), snap)
			}
			m.wantRoots(t, "restored", fresh)
			all := []Aggregator[leafSeq]{live, fresh, again}
			for _, s := range c.script() {
				slide("after restore", all, s[0], s[1])
			}
			if f, g := fresh.FingerprintWith(hashSeq), again.FingerprintWith(hashSeq); f != g {
				t.Fatalf("restored replicas diverged: %#x vs %#x", f, g)
			}

			// The out-of-order capability is the finger tree's alone.
			ooo, ok := live.(OutOfOrder[leafSeq])
			if ok != (c.kind == KindFingerTree) {
				t.Fatalf("OutOfOrder capability = %v", ok)
			}
			if ok {
				if err := ooo.InsertAt(2, leafSeq{-1}); err != nil {
					t.Fatal(err)
				}
				m.window = append(m.window[:2:2], append([]int{-1}, m.window[2:]...)...)
				m.wantRoots(t, "late insert", live)
				if err := ooo.BulkEvict(3); err != nil {
					t.Fatal(err)
				}
				m.window = m.window[3:]
				if err := ooo.BulkInsert(m.take(4)); err != nil {
					t.Fatal(err)
				}
				m.wantRoots(t, "bulk evict+insert", live)
				// And its slides need not balance.
				slide("shrinking", []Aggregator[leafSeq]{live}, 3, 1)
				slide("growing", []Aggregator[leafSeq]{live}, 0, 2)
			}

			// Shape errors come back as errors.
			switch {
			case c.appendOnly:
				if _, err := live.Slide(1, nil); err == nil {
					t.Fatal("append-only window evicted")
				}
			case c.fixed && !ok:
				if _, err := live.Slide(1, nil); err == nil {
					t.Fatal("unbalanced fixed-width slide accepted")
				}
			default:
				if _, err := live.Slide(len(m.window)+1, nil); err == nil {
					t.Fatal("evicted more than the window holds")
				}
			}
		})
	}
}

// TestAggregatorCrossRestore: the rotating tree's snapshot — leaf-position
// order plus the victim cursor, the one snapshot not in window order —
// restores into a rotating tree, and a restore refuses a victim cursor
// outside the window and elements without identities. No kind restores
// another's snapshot.
func TestAggregatorCrossRestore(t *testing.T) {
	rot := aggCase{kind: KindRotating, fixed: true, reorders: true}
	m := &aggModel{c: rot}
	src := rot.new()
	if err := src.Init(m.take(aggWidth)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // victim cursor ends mid-window
		m.window = m.window[1:]
		if _, err := src.Slide(1, m.take(1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := src.Snapshot()
	if !snap.Circular || snap.Victim != 4 {
		t.Fatalf("rotating snapshot = %+v, want leaf order with victim 4", snap)
	}
	back := rot.new()
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	m.wantRoots(t, "rotating snapshot restored", back)

	bad := snap
	bad.Victim = aggWidth
	if err := rot.new().Restore(bad); err == nil {
		t.Fatal("restored a victim cursor outside the window")
	}
	ids := NewAggregator(KindStrawman, concat, Options{}).Snapshot()
	ids.Elems = []leafSeq{{1}, {2}}
	for _, kind := range []Kind{KindStrawman, KindRandomizedFolding} {
		if err := NewAggregator(kind, concat, Options{}).Restore(ids); err == nil {
			t.Fatalf("kind %d restored elements without identities", kind)
		}
	}
}

// TestKindVocabulary pins the one vocabulary for a structure: the numeric
// values (persisted in checkpoints — append, never renumber), the names
// round-tripping through ParseKind, and every adapter reporting its kind's
// name as its Shape().Variant.
func TestKindVocabulary(t *testing.T) {
	pinned := map[Kind]string{
		KindDaba: "daba", KindRotating: "rotating", KindCoalescing: "coalescing", KindFolding: "folding",
		KindRandomizedFolding: "randomized-folding", KindStrawman: "strawman", KindFingerTree: "fingertree",
	}
	if len(Kinds()) != len(pinned) {
		t.Fatalf("Kinds() lists %d kinds, %d are pinned", len(Kinds()), len(pinned))
	}
	for i, k := range Kinds() {
		if int(k) != i+1 {
			t.Fatalf("Kinds()[%d] = %d: the persisted values are 1..7 in declaration order", i, int(k))
		}
		if k.String() != pinned[k] {
			t.Fatalf("Kind(%d).String() = %q, pinned %q", int(k), k, pinned[k])
		}
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k, got, err)
		}
		if v := NewAggregator(k, concat, Options{Width: aggWidth}).Shape().Variant; v != k.String() {
			t.Fatalf("%v aggregator reports variant %q", k, v)
		}
	}
	if got, err := ParseKind("auto"); err != nil || got != 0 {
		t.Fatalf(`ParseKind("auto") = %v, %v, want the zero Kind`, got, err)
	}
	_, err := ParseKind("btree")
	if err == nil {
		t.Fatal("unknown name parsed")
	}
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Fatalf("error %q does not list %v", err, k)
		}
	}
}
