// Package apps implements the paper's micro-benchmark applications (§7.1:
// K-Means, KNN, HCT, Matrix, subStr) and the three real-world case
// studies (§8: Twitter information propagation, Glasnost monitoring,
// Akamai NetSession accountability) as ordinary non-incremental MapReduce
// jobs — exactly the programs a Slider user would write.
package apps

import (
	"math"

	"slider/internal/mapreduce"
)

// CentroidAcc accumulates the vector sum and count of the points assigned
// to one K-Means centroid.
type CentroidAcc struct {
	// Sum is the per-dimension sum of assigned points. It is read and
	// never written: K-Means' map emits a point's own slice as the sum of
	// its one-point accumulator, and Add and the job's Combine build fresh
	// accumulators. A caller must not modify a pushed point, nor a Sum.
	Sum []float64
	// Count is the number of assigned points.
	Count int64
}

var (
	_ mapreduce.Sizer         = (*CentroidAcc)(nil)
	_ mapreduce.Fingerprinter = (*CentroidAcc)(nil)
)

// Add returns a fresh accumulator holding a + b (inputs unmodified, as
// required by the contraction trees).
func (a *CentroidAcc) Add(b *CentroidAcc) *CentroidAcc {
	return sumCentroidAccs([]mapreduce.Value{a, b})
}

// sumCentroidAccs is K-Means' Combine: the left fold of the accumulators
// in values, in one fresh accumulator however many there are — the sums are
// those of a chain of Add calls, bit for bit, without the accumulator each of
// them would allocate. The inputs are not modified; a lone accumulator is
// returned as it is.
func sumCentroidAccs(values []mapreduce.Value) *CentroidAcc {
	first := values[0].(*CentroidAcc)
	if len(values) == 1 {
		return first
	}
	sum := make([]float64, len(first.Sum))
	return &CentroidAcc{Sum: sum, Count: foldCentroidAccs(sum, values)}
}

// meanCentroidAccs is K-Means' Reduce: sumCentroidAccs(values).Mean(), bit
// for bit, with the sum folded into the slice the mean then overwrites, so
// the slice is all it allocates, where that expression allocates the
// accumulator as well.
func meanCentroidAccs(values []mapreduce.Value) []float64 {
	sum := make([]float64, len(values[0].(*CentroidAcc).Sum))
	count := foldCentroidAccs(sum, values)
	if count == 0 {
		clear(sum)
		return sum
	}
	for i, v := range sum {
		sum[i] = v / float64(count)
	}
	return sum
}

// foldCentroidAccs writes the left fold of the sums of values'
// accumulators into sum, which holds as many elements as the first one's,
// and returns the fold of their counts. Each later Sum is added in vector
// lanes (addFloats), element by element in values' order, so the bits are
// those of the scalar loop. The inputs are not modified.
func foldCentroidAccs(sum []float64, values []mapreduce.Value) int64 {
	first := values[0].(*CentroidAcc)
	copy(sum, first.Sum)
	count := first.Count
	for _, v := range values[1:] {
		b := v.(*CentroidAcc)
		count += b.Count
		addFloats(distKernel, sum, b.Sum)
	}
	return count
}

// SizeBytes implements mapreduce.Sizer.
func (a *CentroidAcc) SizeBytes() int64 { return int64(8*len(a.Sum)) + 16 }

// fnvOffset is the 64-bit FNV-1a offset basis: the hash of nothing, where
// every fingerprint of the package starts.
const fnvOffset uint64 = 14695981039346656037

// fnvMix returns h with x's eight bytes, low byte first, hashed in by
// 64-bit FNV-1a.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Fingerprint implements mapreduce.Fingerprinter.
func (a *CentroidAcc) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(a.Count))
	for _, v := range a.Sum {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

// Mean returns the centroid implied by the accumulator.
func (a *CentroidAcc) Mean() []float64 {
	out := make([]float64, len(a.Sum))
	if a.Count == 0 {
		return out
	}
	for i, v := range a.Sum {
		out[i] = v / float64(a.Count)
	}
	return out
}

// Neighbor is one candidate nearest neighbor.
type Neighbor struct {
	// Dist is the squared Euclidean distance to the query point.
	Dist float64
	// ID identifies the data point.
	ID uint64
}

// Neighbors is a size-capped ascending-distance neighbor list. Merging two
// lists keeps the k smallest, which is associative and commutative (ties
// broken by ID), as rotating trees require.
type Neighbors struct {
	// K is the capacity (number of neighbors kept).
	K int
	// List holds at most K neighbors sorted by (Dist, ID).
	List []Neighbor
}

var (
	_ mapreduce.Sizer         = (*Neighbors)(nil)
	_ mapreduce.Fingerprinter = (*Neighbors)(nil)
)

// less orders neighbors by (Dist, ID).
func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Merge returns a fresh list holding the k nearest of a ∪ b.
func (a *Neighbors) Merge(b *Neighbors) *Neighbors {
	k := max(a.K, b.K)
	list := make([]Neighbor, k)
	return &Neighbors{K: k, List: list[:mergeLists(list, a.List, b.List)]}
}

// mergeLists writes the first len(dst) of a and b merged by (Dist, ID),
// b's first of equal neighbors, into dst — all of them if there are fewer —
// and returns how many it wrote.
func mergeLists(dst, a, b []Neighbor) int {
	i, j, n := 0, 0, 0
	for ; n < len(dst) && (i < len(a) || j < len(b)); n++ {
		switch {
		case i == len(a):
			dst[n] = b[j]
			j++
		case j == len(b):
			dst[n] = a[i]
			i++
		case less(a[i], b[j]):
			dst[n] = a[i]
			i++
		default:
			dst[n] = b[j]
			j++
		}
	}
	return n
}

// mergeNeighbors is KNN's Combine: the left fold of the lists in
// values by Merge — the same neighbors in the same order, bit for bit —
// built in one fresh list however many there are. Each merge is written to
// scratch and copied back, on the stack for k up to 16. The inputs are not
// modified; a lone list is returned as it is.
func mergeNeighbors(values []mapreduce.Value) *Neighbors {
	first := values[0].(*Neighbors)
	if len(values) == 1 {
		return first
	}
	k := first.K
	for _, v := range values[1:] {
		k = max(k, v.(*Neighbors).K)
	}
	out := &Neighbors{K: first.K, List: make([]Neighbor, len(first.List), max(k, len(first.List)))}
	copy(out.List, first.List)
	var stack [16]Neighbor
	tmp := stack[:]
	if k > len(tmp) {
		tmp = make([]Neighbor, k)
	}
	for _, v := range values[1:] {
		b := v.(*Neighbors)
		out.K = max(out.K, b.K)
		n := mergeLists(tmp[:out.K], out.List, b.List)
		out.List = append(out.List[:0], tmp[:n]...)
	}
	return out
}

// SizeBytes implements mapreduce.Sizer.
func (a *Neighbors) SizeBytes() int64 { return int64(16*len(a.List)) + 32 }

// Fingerprint implements mapreduce.Fingerprinter.
func (a *Neighbors) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(a.K))
	for _, n := range a.List {
		h = fnvMix(fnvMix(h, math.Float64bits(n.Dist)), n.ID)
	}
	return h
}
