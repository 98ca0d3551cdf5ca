package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestReduceOrderedMatchesSequential checks reduceOrdered against the left
// fold written out: the same payload in window order, one merge per item
// after the first, nothing and false for an empty slice.
func TestReduceOrderedMatchesSequential(t *testing.T) {
	for n := 0; n <= 33; n++ {
		items := make([][]int, n)
		var want []int
		for i := range items {
			items[i] = []int{i}
			want = append(want, i)
		}
		var st Stats
		got, ok := reduceOrdered(multiset, items, &st)
		if ok != (n > 0) || !slices.Equal(got, want) {
			t.Fatalf("n=%d: got %v, %v", n, got, ok)
		}
		if st.Merges != int64(max(n-1, 0)) {
			t.Fatalf("n=%d: %d merges", n, st.Merges)
		}
	}
}

// TestReduceOrderedKOrderAndDeterminism checks the K-way reduction against
// the pairwise left fold: the same result in window order (string
// concatenation is associative but not commutative) and the same number of
// binary combines — a kmerge of w items stands for w−1 of them —, through
// one batch, a full batch, a batch plus a lone item (handed through, never
// wrapped in a 1-wide merge) and more than one level of batches.
func TestReduceOrderedKOrderAndDeterminism(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	for _, n := range []int{0, 1, 2, 63, 64, 65, 200, 4097, 64*64 + 7} {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("[%d]", i)
		}
		var fold Stats
		want, wantOK := reduceOrdered(concat, items, &fold)

		var combines int64
		got, ok := ReduceOrderedK(func(batch []string) string {
			if len(batch) < 2 || len(batch) > kMergeLeafWidth {
				t.Fatalf("n=%d: kmerge called on %d items", n, len(batch))
			}
			combines += int64(len(batch) - 1)
			out, _ := reduceOrdered(concat, batch, &Stats{})
			return out
		}, items)
		if ok != wantOK || got != want {
			t.Fatalf("n=%d: K-way reduction diverges from the left fold", n)
		}
		if combines != fold.Merges {
			t.Fatalf("n=%d: %d combines, the left fold makes %d", n, combines, fold.Merges)
		}
	}
}
