package pig

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slider/internal/mapreduce"
)

func TestAggCellMerge(t *testing.T) {
	a := AggCell{Sum: 10, Min: 2, Max: 8, Count: 3}
	b := AggCell{Sum: 5, Min: 1, Max: 9, Count: 2}
	m := mergeCell(a, b)
	if m.Sum != 15 || m.Min != 1 || m.Max != 9 || m.Count != 5 {
		t.Fatalf("m = %+v", m)
	}
	// Merging with an empty cell keeps the non-empty side's extrema.
	empty := AggCell{}
	m = mergeCell(a, empty)
	if m.Min != 2 || m.Max != 8 || m.Count != 3 {
		t.Fatalf("m with empty = %+v", m)
	}
	m = mergeCell(empty, b)
	if m.Min != 1 || m.Max != 9 {
		t.Fatalf("empty with m = %+v", m)
	}
}

func TestAggValMergeDoesNotMutate(t *testing.T) {
	a := &AggVal{KeyVals: Row{"k"}, Cells: []AggCell{{Sum: 1, Count: 1}}}
	b := &AggVal{KeyVals: Row{"k"}, Cells: []AggCell{{Sum: 2, Count: 1}}}
	m := a.Merge(b)
	if a.Cells[0].Sum != 1 || b.Cells[0].Sum != 2 {
		t.Fatal("merge mutated an input")
	}
	if m.Cells[0].Sum != 3 || m.Cells[0].Count != 2 {
		t.Fatalf("m = %+v", m.Cells[0])
	}
}

// genSorted builds a SortedRows with the invariant held (via merging
// singletons, as the map side does).
func genSorted(rng *rand.Rand, keyIdx, limit int) *SortedRows {
	s := &SortedRows{KeyIdx: keyIdx, Limit: limit}
	cnt := rng.Intn(6)
	for i := 0; i < cnt; i++ {
		single := &SortedRows{KeyIdx: keyIdx, Limit: limit, Rows: []Row{
			{float64(rng.Intn(10)), "v" + ToString(float64(rng.Intn(5)))},
		}}
		s = s.Merge(single)
	}
	return s
}

func sortedEqual(a, b *SortedRows) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if encodeRow(a.Rows[i]) != encodeRow(b.Rows[i]) {
			return false
		}
	}
	return true
}

func TestSortedRowsMergeProperties(t *testing.T) {
	property := func(seed int64, limited bool) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := 0
		if limited {
			limit = 3
		}
		a := genSorted(rng, 0, limit)
		b := genSorted(rng, 0, limit)
		c := genSorted(rng, 0, limit)
		if !sortedEqual(a.Merge(b), b.Merge(a)) {
			return false
		}
		return sortedEqual(a.Merge(b).Merge(c), a.Merge(b.Merge(c)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedRowsDescAndLimit(t *testing.T) {
	s := &SortedRows{KeyIdx: 0, Desc: true, Limit: 2}
	for _, v := range []float64{1, 5, 3, 9} {
		s = s.Merge(&SortedRows{KeyIdx: 0, Desc: true, Limit: 2, Rows: []Row{{v}}})
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %v", s.Rows)
	}
	if s.Rows[0][0].(float64) != 9 || s.Rows[1][0].(float64) != 5 {
		t.Fatalf("rows = %v, want [9 5]", s.Rows)
	}
}

func TestSortedRowsNormalize(t *testing.T) {
	s := &SortedRows{KeyIdx: 0, Limit: 2, Rows: []Row{{3.0}, {1.0}, {2.0}}}
	s.Normalize()
	if len(s.Rows) != 2 || s.Rows[0][0].(float64) != 1 || s.Rows[1][0].(float64) != 2 {
		t.Fatalf("rows = %v", s.Rows)
	}
}

func TestRowFingerprints(t *testing.T) {
	a := []Row{{"x", 1.0}, {"y", 2.0}}
	b := []Row{{"x", 1.0}, {"y", 2.0}}
	if FingerprintRows(a) != FingerprintRows(b) {
		t.Fatal("equal row lists fingerprint differently")
	}
	c := []Row{{"y", 2.0}, {"x", 1.0}}
	if FingerprintRows(a) == FingerprintRows(c) {
		t.Fatal("row-list fingerprint ignores order")
	}
}

func TestEncodeRowSeparator(t *testing.T) {
	// Fields must not collide across the separator.
	a := encodeRow(Row{"ab", "c"})
	b := encodeRow(Row{"a", "bc"})
	if a == b {
		t.Fatal("encodeRow collides across field boundaries")
	}
}

func TestValueSizes(t *testing.T) {
	small := (&RowVal{Row: Row{"a"}}).SizeBytes()
	big := (&RowVal{Row: Row{"a", "some longer string", 1.0}}).SizeBytes()
	if small >= big {
		t.Fatalf("sizes not monotone: %d %d", small, big)
	}
	agg := &AggVal{KeyVals: Row{"k"}, Cells: make([]AggCell, 3)}
	if agg.SizeBytes() <= 0 {
		t.Fatal("agg size")
	}
	sr := &SortedRows{Rows: []Row{{"a"}}}
	if sr.SizeBytes() <= 0 {
		t.Fatal("sorted size")
	}
}

// refAggMerge is AggVal.Merge as it was written before the one-call fold.
func refAggMerge(a, b *AggVal) *AggVal {
	out := &AggVal{KeyVals: a.KeyVals, Cells: make([]AggCell, len(a.Cells))}
	for i := range a.Cells {
		out.Cells[i] = mergeCell(a.Cells[i], b.Cells[i])
	}
	return out
}

// refSortedMerge is SortedRows.Merge as it was written before the
// one-call fold: s's rowLess, other's first of equal rows, capped at the
// larger Limit.
func refSortedMerge(s, other *SortedRows) *SortedRows {
	limit := s.Limit
	if other.Limit > limit {
		limit = other.Limit
	}
	out := &SortedRows{KeyIdx: s.KeyIdx, Desc: s.Desc, Limit: limit}
	i, j := 0, 0
	for (limit == 0 || len(out.Rows) < limit) && (i < len(s.Rows) || j < len(other.Rows)) {
		switch {
		case i == len(s.Rows):
			out.Rows = append(out.Rows, other.Rows[j])
			j++
		case j == len(other.Rows):
			out.Rows = append(out.Rows, s.Rows[i])
			i++
		case s.rowLess(s.Rows[i], other.Rows[j]):
			out.Rows = append(out.Rows, s.Rows[i])
			i++
		default:
			out.Rows = append(out.Rows, other.Rows[j])
			j++
		}
	}
	return out
}

// TestPigFoldsMatchChain: the GROUP and ORDER stages' one-call folds hold
// what a chain of the two-value merges written before them held, by
// Fingerprint, over 1 to 30 values: float sums with NaN, ±Inf and -0
// (which only the same additions in the same order reproduce), empty
// cells, sort keys mixing numbers and strings (which rowLess does not
// order transitively), ties broken by the encoded row, and Limits that
// differ between the values of one call, 0 among them. Merge holds what
// its earlier form built, and a lone value comes back as it is.
func TestPigFoldsMatchChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sums := []float64{0, 1, 0.1, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	keys := []Value{1.0, 9.0, 10.0, "1z", "9", "a", math.NaN(), "10"}
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(30)
		desc, limits := rng.Intn(2) == 0, []int{0, 0, 2, 3, 5}
		aggs, sorted := make([]mapreduce.Value, n), make([]mapreduce.Value, n)
		for i := range n {
			cells := make([]AggCell, 3)
			for c := range cells {
				if rng.Intn(4) > 0 {
					cells[c] = AggCell{Sum: sums[rng.Intn(len(sums))], Min: sums[rng.Intn(len(sums))], Max: sums[rng.Intn(len(sums))], Count: 1 + rng.Int63n(3)}
				}
			}
			aggs[i] = &AggVal{KeyVals: Row{"k"}, Cells: cells}
			limit := limits[rng.Intn(len(limits))]
			l := &SortedRows{KeyIdx: 0, Desc: desc, Limit: limit}
			for range rng.Intn(5) {
				l = refSortedMerge(l, &SortedRows{KeyIdx: 0, Desc: desc, Limit: limit, Rows: []Row{{keys[rng.Intn(len(keys))], float64(rng.Intn(3))}}})
			}
			sorted[i] = l
		}
		wantAgg, wantSorted := aggs[0].(*AggVal), sorted[0].(*SortedRows)
		for i := 1; i < n; i++ {
			a, s := aggs[i].(*AggVal), sorted[i].(*SortedRows)
			if got, want := wantAgg.Merge(a), refAggMerge(wantAgg, a); got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("trial %d: AggVal.Merge = %+v, the two-way merge's %+v", trial, got.Cells, want.Cells)
			}
			if got, want := wantSorted.Merge(s), refSortedMerge(wantSorted, s); got.Fingerprint() != want.Fingerprint() || got.Limit != want.Limit {
				t.Fatalf("trial %d: SortedRows.Merge = %v (limit %d), the two-way merge's %v (limit %d)", trial, got.Rows, got.Limit, want.Rows, want.Limit)
			}
			wantAgg, wantSorted = refAggMerge(wantAgg, a), refSortedMerge(wantSorted, s)
		}
		gotAgg, gotSorted := mergeAggVals(aggs), mergeSortedRows(sorted)
		if gotAgg.Fingerprint() != wantAgg.Fingerprint() {
			t.Fatalf("trial %d: the fold of %d aggregates = %+v, the chain's %+v", trial, n, gotAgg.Cells, wantAgg.Cells)
		}
		if gotSorted.Fingerprint() != wantSorted.Fingerprint() || gotSorted.Limit != wantSorted.Limit {
			t.Fatalf("trial %d: the fold of %d lists = %v (limit %d), the chain's %v (limit %d)", trial, n, gotSorted.Rows, gotSorted.Limit, wantSorted.Rows, wantSorted.Limit)
		}
		if n == 1 && (gotAgg != aggs[0] || gotSorted != sorted[0]) {
			t.Fatalf("trial %d: a lone value came back as a copy", trial)
		}
	}
}

// TestPigFoldAllocs pins what the GROUP and ORDER stages' Combine
// allocates for a key's 256 one-row values: the cells and the aggregate
// (510 for a chain of Merge calls), and the two row buffers and the list,
// with a LIMIT and without (510 for the chain, with distinct keys, so that
// no tie encodes a row).
func TestPigFoldAllocs(t *testing.T) {
	script, err := Parse("raw = LOAD 'e' AS (user, t); g = GROUP raw BY user; c = FOREACH g GENERATE group AS user, COUNT(*) AS n, SUM(t) AS s, MAX(t) AS hi; o = ORDER c BY s DESC; STORE o INTO 'o';")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(script, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	aggs, sorted, limited := make([]mapreduce.Value, n), make([]mapreduce.Value, n), make([]mapreduce.Value, n)
	for i := range n {
		f := float64(i*37%n) / 8
		cell := AggCell{Sum: f, Min: f, Max: f, Count: 1}
		aggs[i] = &AggVal{KeyVals: Row{"u"}, Cells: []AggCell{cell, cell, cell}}
		sorted[i] = &SortedRows{KeyIdx: 1, Desc: true, Rows: []Row{{"u", f}}}
		limited[i] = &SortedRows{KeyIdx: 1, Desc: true, Limit: 10, Rows: []Row{{"u", f}}}
	}
	group, order := plan.Stages[0].Job, plan.Stages[1].Job
	for _, c := range []struct {
		name   string
		job    *mapreduce.Job
		values []mapreduce.Value
		want   float64
	}{{"GROUP", group, aggs, 2}, {"ORDER", order, sorted, 3}, {"ORDER with LIMIT", order, limited, 3}} {
		if allocs := testing.AllocsPerRun(20, func() { c.job.Combine("k", c.values) }); allocs != c.want {
			t.Errorf("%s's Combine of %d values allocates %.1f times, want %.0f", c.name, n, allocs, c.want)
		}
	}
}
