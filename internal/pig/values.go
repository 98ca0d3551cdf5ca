package pig

import (
	"cmp"
	"math"
	"sort"
	"strings"

	"slider/internal/mapreduce"
)

// fnv64 helpers shared by the pig value fingerprints.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mixUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fingerprintRow hashes one row.
func fingerprintRow(h uint64, row Row) uint64 {
	for _, v := range row {
		switch x := v.(type) {
		case float64:
			h = mixUint(h, math.Float64bits(x))
		case string:
			h = mixString(h, x)
			h = mixUint(h, 0x1f)
		default:
			h = mixString(h, ToString(x))
		}
	}
	return mixUint(h, 0x9e)
}

// FingerprintRows hashes a row list (order-sensitive).
func FingerprintRows(rows []Row) uint64 {
	h := uint64(fnvOffset)
	for _, r := range rows {
		h = fingerprintRow(h, r)
	}
	return h
}

// encodeRow renders a row as a stable string key (for DISTINCT).
func encodeRow(row Row) string {
	out := ""
	for i, v := range row {
		if i > 0 {
			out += "\x1f"
		}
		out += ToString(v)
	}
	return out
}

// rowBytes estimates a row's size.
func rowBytes(row Row) int64 {
	var n int64 = 16
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += int64(len(x)) + 16
		default:
			n += 16
		}
	}
	return n
}

// AggCell is the partial state of one aggregate column.
type AggCell struct {
	Sum   float64
	Min   float64
	Max   float64
	Count int64
}

// mergeCell merges two partial cells.
func mergeCell(a, b AggCell) AggCell {
	out := AggCell{Sum: a.Sum + b.Sum, Count: a.Count + b.Count, Min: a.Min, Max: a.Max}
	if b.Count > 0 && (a.Count == 0 || b.Min < out.Min) {
		out.Min = b.Min
	}
	if b.Count > 0 && (a.Count == 0 || b.Max > out.Max) {
		out.Max = b.Max
	}
	return out
}

// AggVal is the partial aggregation state for one group: the group's key
// values plus one cell per aggregate column.
type AggVal struct {
	KeyVals []Value
	Cells   []AggCell
}

var (
	_ mapreduce.Sizer         = (*AggVal)(nil)
	_ mapreduce.Fingerprinter = (*AggVal)(nil)
)

// Merge returns a fresh merged aggregate.
func (a *AggVal) Merge(b *AggVal) *AggVal {
	return mergeAggVals([]mapreduce.Value{a, b})
}

// mergeAggVals is a GROUP stage's Combine: the left fold of the
// aggregates in values by Merge, cell by cell in values' order — so the
// float sums are a chain of Merge calls', bit for bit — in one fresh
// aggregate however many there are. The inputs are not modified; a lone
// aggregate is returned as it is.
func mergeAggVals(values []mapreduce.Value) *AggVal {
	first := values[0].(*AggVal)
	if len(values) == 1 {
		return first
	}
	out := &AggVal{KeyVals: first.KeyVals, Cells: make([]AggCell, len(first.Cells))}
	copy(out.Cells, first.Cells)
	for _, v := range values[1:] {
		b := v.(*AggVal)
		for i := range out.Cells {
			out.Cells[i] = mergeCell(out.Cells[i], b.Cells[i])
		}
	}
	return out
}

// SizeBytes implements mapreduce.Sizer.
func (a *AggVal) SizeBytes() int64 { return int64(32*len(a.Cells)) + rowBytes(a.KeyVals) }

// Fingerprint implements mapreduce.Fingerprinter.
func (a *AggVal) Fingerprint() uint64 {
	h := fingerprintRow(fnvOffset, a.KeyVals)
	for _, c := range a.Cells {
		h = mixUint(h, math.Float64bits(c.Sum))
		h = mixUint(h, math.Float64bits(c.Min))
		h = mixUint(h, math.Float64bits(c.Max))
		h = mixUint(h, uint64(c.Count))
	}
	return h
}

// RowVal wraps a single row as a combiner value (DISTINCT): combining two
// identical rows keeps one, which is trivially associative/commutative.
type RowVal struct {
	Row Row
}

var (
	_ mapreduce.Sizer         = (*RowVal)(nil)
	_ mapreduce.Fingerprinter = (*RowVal)(nil)
)

// SizeBytes implements mapreduce.Sizer.
func (r *RowVal) SizeBytes() int64 { return rowBytes(r.Row) }

// Fingerprint implements mapreduce.Fingerprinter.
func (r *RowVal) Fingerprint() uint64 { return fingerprintRow(fnvOffset, r.Row) }

// SortedRows is the combiner value of ORDER [+ LIMIT]: rows kept sorted by
// the sort key; merging is a sorted merge capped at Limit, which (like a
// top-k list) is associative and commutative with deterministic
// tie-breaking on the encoded row.
type SortedRows struct {
	// KeyIdx is the sort column.
	KeyIdx int
	// Desc sorts descending when set.
	Desc bool
	// Limit caps the kept rows (0 = unlimited).
	Limit int
	// Rows is sorted by (key, encodeRow).
	Rows []Row
}

var (
	_ mapreduce.Sizer         = (*SortedRows)(nil)
	_ mapreduce.Fingerprinter = (*SortedRows)(nil)
)

// rowLess orders rows by the sort key with a deterministic tie-break. The
// keys are ordered by kind first, numbers before strings (every value that
// is no number compares as its ToString), then within the kind; DESC
// reverses the whole key order. So it is a total order, and any merge of
// sorted lists gives the rows a sort does.
func (s *SortedRows) rowLess(a, b Row) bool {
	c := compareKeys(a[s.KeyIdx], b[s.KeyIdx])
	if s.Desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return encodeRow(a) < encodeRow(b)
}

// compareKeys is rowLess's key order, ascending.
func compareKeys(a, b Value) int {
	af, aNum := strictNum(a)
	bf, bNum := strictNum(b)
	switch {
	case aNum && bNum:
		return cmp.Compare(af, bf)
	case aNum != bNum:
		if aNum {
			return -1
		}
		return 1
	}
	return strings.Compare(ToString(a), ToString(b))
}

// Merge returns a fresh sorted (and capped) union.
func (s *SortedRows) Merge(other *SortedRows) *SortedRows {
	return mergeSortedRows([]mapreduce.Value{s, other})
}

// mergeSortedRows is an ORDER stage's Combine: the left fold of
// the lists in values by Merge, in one fresh list however many there are.
// Each step merges by the first list's rowLess, other's first of equal
// rows, capped at the largest Limit so far, so the rows are the chain's
// in the chain's order. The steps run between two buffers
// sized for the longest list the chain builds. The inputs are not
// modified; a lone list is returned as it is.
func mergeSortedRows(values []mapreduce.Value) *SortedRows {
	first := values[0].(*SortedRows)
	if len(values) == 1 {
		return first
	}
	capped := func(n, limit int) int {
		if limit > 0 {
			return min(n, limit)
		}
		return n
	}
	limit, n, longest := first.Limit, len(first.Rows), 0
	for _, v := range values[1:] {
		b := v.(*SortedRows)
		limit = max(limit, b.Limit)
		n = capped(n+len(b.Rows), limit)
		longest = max(longest, n)
	}
	buf, spare := make([]Row, longest), []Row(nil)
	if len(values) > 2 {
		spare = make([]Row, longest)
	}
	out := &SortedRows{KeyIdx: first.KeyIdx, Desc: first.Desc, Limit: first.Limit, Rows: first.Rows}
	for _, v := range values[1:] {
		b := v.(*SortedRows)
		out.Limit = max(out.Limit, b.Limit)
		dst := buf[:capped(len(out.Rows)+len(b.Rows), out.Limit)]
		out.Rows = dst[:first.mergeRows(dst, out.Rows, b.Rows)]
		buf, spare = spare, buf
	}
	return out
}

// mergeRows writes the first len(dst) of a and b, each sorted by rowLess,
// merged into dst, b's first of equal rows — all of them if there are
// fewer — and returns how many it wrote.
func (s *SortedRows) mergeRows(dst, a, b []Row) int {
	i, j, n := 0, 0, 0
	for ; n < len(dst) && (i < len(a) || j < len(b)); n++ {
		if j == len(b) || i < len(a) && s.rowLess(a[i], b[j]) {
			dst[n] = a[i]
			i++
		} else {
			dst[n] = b[j]
			j++
		}
	}
	return n
}

// Normalize sorts (and caps) the rows in place; used when building the
// initial per-row values.
func (s *SortedRows) Normalize() {
	sort.SliceStable(s.Rows, func(i, j int) bool { return s.rowLess(s.Rows[i], s.Rows[j]) })
	if s.Limit > 0 && len(s.Rows) > s.Limit {
		s.Rows = s.Rows[:s.Limit]
	}
}

// SizeBytes implements mapreduce.Sizer.
func (s *SortedRows) SizeBytes() int64 {
	var n int64 = 48
	for _, r := range s.Rows {
		n += rowBytes(r)
	}
	return n
}

// Fingerprint implements mapreduce.Fingerprinter.
func (s *SortedRows) Fingerprint() uint64 { return FingerprintRows(s.Rows) }
