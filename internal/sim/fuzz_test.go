package sim

import (
	"testing"

	"slider/internal/core"
)

// Native go-fuzz targets over the three surfaces the ISSUE names. CI runs
// each with a short -fuzztime as a smoke test; locally:
//
//	go test ./internal/sim -fuzz FuzzRandomizedRebuild -fuzztime 30s
//
// Any crasher is a (seed, steps) pair — the corpus entry itself is the
// replay recipe.

// FuzzRandomizedRebuild drives randomized-tree level rebuilds: the
// skip-list-style tree re-draws levels on every slide, so width
// fluctuation exercises its probabilistic regrouping against the oracle.
func FuzzRandomizedRebuild(f *testing.F) {
	f.Add(uint64(1), uint16(40))
	f.Add(uint64(0xdecaf), uint16(80))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		n := int(steps)%80 + 1
		if err := Run(Generate(Randomized, seed, n), Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRotatingSplit drives rotating split processing: foreground merges
// against the pre-combined payload, background re-preparation, and
// multi-bucket fallback rotation.
func FuzzRotatingSplit(f *testing.F) {
	f.Add(uint64(2), uint16(40))
	f.Add(uint64(99), uint16(120))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		n := int(steps)%120 + 1
		if err := Run(Generate(RotatingSplit, seed, n), Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzFingerTreeOutOfOrder drives random interleavings of late appends,
// bulk evictions, and bulk insertions through the finger tree against
// the non-commutative left-fold oracle: payload concatenation preserves
// arrival order, so any misplaced late record or off-by-one bulk
// boundary shows up as a sequence mismatch, and every bulk op is held
// to the no-log-factor c·(K + log w) combine budget.
func FuzzFingerTreeOutOfOrder(f *testing.F) {
	f.Add(uint64(1), uint16(40))
	f.Add(uint64(0xdecaf), uint16(90))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		n := int(steps)%90 + 1
		if err := Run(GenerateOutOfOrder(FingerTree, seed, n), Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzKMergeVsPairwise checks MergeOrderedK-style K-way folds against the
// reference pairwise fold: for any payload sequence (including ones long
// enough to trigger leaf batching) the K-way result must be the exact
// pairwise fold.
func FuzzKMergeVsPairwise(f *testing.F) {
	f.Add(uint64(3), uint16(5))
	f.Add(uint64(7), uint16(200)) // > kMergeLeafWidth: exercises batching
	f.Fuzz(func(t *testing.T, seed uint64, count uint16) {
		n := int(count) % 300
		items := make([]pay, n)
		h := seed
		for i := range items {
			h = h*6364136223846793005 + 1442695040888963407
			items[i] = pay{h}
		}
		kmerge := func(ps []pay) pay {
			var out pay
			for _, p := range ps {
				out = append(out, p...)
			}
			return out
		}
		var want pay
		var wantOK bool
		for i, p := range items {
			if i == 0 {
				want, wantOK = append(pay(nil), p...), true
				continue
			}
			want = pmerge(want, p)
		}
		got, ok := core.ReduceOrderedK(kmerge, items)
		if ok != wantOK {
			t.Fatalf("ok=%v, want %v (n=%d)", ok, wantOK, n)
		}
		if ok && (pfp(got) != pfp(want) || len(got) != len(want)) {
			t.Fatalf("n=%d: K-way fold diverges from pairwise fold", n)
		}
	})
}
