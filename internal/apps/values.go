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
	out := &CentroidAcc{Sum: make([]float64, len(first.Sum)), Count: first.Count}
	copy(out.Sum, first.Sum)
	for _, v := range values[1:] {
		b := v.(*CentroidAcc)
		out.Count += b.Count
		for i, x := range b.Sum {
			out.Sum[i] += x
		}
	}
	return out
}

// SizeBytes implements mapreduce.Sizer.
func (a *CentroidAcc) SizeBytes() int64 { return int64(8*len(a.Sum)) + 16 }

// Fingerprint implements mapreduce.Fingerprinter.
func (a *CentroidAcc) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(a.Count))
	for _, v := range a.Sum {
		mix(math.Float64bits(v))
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
	k := a.K
	if b.K > k {
		k = b.K
	}
	out := &Neighbors{K: k, List: make([]Neighbor, 0, k)}
	i, j := 0, 0
	for len(out.List) < k && (i < len(a.List) || j < len(b.List)) {
		switch {
		case i == len(a.List):
			out.List = append(out.List, b.List[j])
			j++
		case j == len(b.List):
			out.List = append(out.List, a.List[i])
			i++
		case less(a.List[i], b.List[j]):
			out.List = append(out.List, a.List[i])
			i++
		default:
			out.List = append(out.List, b.List[j])
			j++
		}
	}
	return out
}

// SizeBytes implements mapreduce.Sizer.
func (a *Neighbors) SizeBytes() int64 { return int64(16*len(a.List)) + 32 }

// Fingerprint implements mapreduce.Fingerprinter.
func (a *Neighbors) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(a.K))
	for _, n := range a.List {
		mix(math.Float64bits(n.Dist))
		mix(n.ID)
	}
	return h
}
