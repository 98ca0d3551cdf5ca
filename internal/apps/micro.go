package apps

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"unicode/utf8"

	"slider/internal/mapreduce"
)

// sumJob returns the shared Combine/Reduce pair for int64-count jobs.
func sumValues(_ string, values []mapreduce.Value) mapreduce.Value {
	var sum int64
	for _, v := range values {
		sum += v.(int64)
	}
	return sum
}

// HCT is the histogram-based computation of §7.1 (data-intensive): it
// histograms word lengths and initial characters over the text window. A
// word's initial character is its first rune, however many bytes it takes
// (a byte of invalid UTF-8 is one).
func HCT(partitions int) *mapreduce.Job {
	return lineJob("HCT", partitions, func(line string, emit mapreduce.Emit) {
		words(line, func(w string) {
			_, first := utf8.DecodeRuneInString(w)
			emit("len:"+strconv.Itoa(len(w)), int64(1))
			emit("first:"+w[:first], int64(1))
		})
	})
}

// Matrix is the word co-occurrence matrix computation of §7.1
// (data-intensive): it counts ordered-normalized word pairs co-occurring
// within a distance of two positions on a line.
func Matrix(partitions int) *mapreduce.Job {
	return lineJob("Matrix", partitions, func(line string, emit mapreduce.Emit) {
		// Pairing each word with the two before it emits the same pairs,
		// in the same order, as pairing it with the two after it. No word
		// is "", so "" means no word yet.
		var before2, before1 string
		words(line, func(w string) {
			for _, p := range [2]string{before2, before1} {
				if p == "" {
					continue
				}
				a, b := p, w
				if a > b {
					a, b = b, a
				}
				emit(a+"|"+b, int64(1))
			}
			before2, before1 = before1, w
		})
	})
}

// SubStr is the frequently-occurring substring computation of §7.1
// (data-intensive): it counts all substrings of length 4 of every word.
func SubStr(partitions int) *mapreduce.Job {
	const n = 4
	return lineJob("subStr", partitions, func(line string, emit mapreduce.Emit) {
		words(line, func(w string) {
			for i := 0; i+n <= len(w); i++ {
				emit(w[i:i+n], int64(1))
			}
		})
	})
}

// KMeans is the K-Means clustering micro-benchmark of §7.1
// (compute-intensive): one Lloyd iteration per job over fixed seed
// centroids; the map side performs the k×dim distance computations and
// the reduce side averages the per-centroid accumulators.
func KMeans(partitions, k, dim int, seed int64) *mapreduce.Job {
	centroids := randomPoints(seed, k, dim)
	// A point's key names its centroid: k strings, built here once rather
	// than one per point.
	keys := make([]string, len(centroids))
	for c := range keys {
		keys[c] = "c" + strconv.Itoa(c)
	}
	return &mapreduce.Job{
		Name:       "K-Means",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			pt, ok := rec.([]float64)
			if !ok {
				return fmt.Errorf("K-Means: record %T is not a point", rec)
			}
			best, bestD := 0, sqDist(pt, centroids[0])
			for c := 1; c < len(centroids); c++ {
				if d := sqDist(pt, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			sum := make([]float64, len(pt))
			copy(sum, pt)
			emit(keys[best], &CentroidAcc{Sum: sum, Count: 1})
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return sumCentroidAccs(values)
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return sumCentroidAccs(values).Mean()
		},
		Commutative: true,
	}
}

// KNN is the K-nearest-neighbors micro-benchmark of §7.1
// (compute-intensive): for each of a fixed set of query points it finds
// the k nearest data points in the window.
func KNN(partitions, k int, queries [][]float64) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "KNN",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			pt, ok := rec.([]float64)
			if !ok {
				return fmt.Errorf("KNN: record %T is not a point", rec)
			}
			id := pointID(pt)
			for q, query := range queries {
				d := sqDist(pt, query)
				emit("q"+strconv.Itoa(q), &Neighbors{K: k, List: []Neighbor{{Dist: d, ID: id}}})
			}
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			acc := values[0].(*Neighbors)
			for _, v := range values[1:] {
				acc = acc.Merge(v.(*Neighbors))
			}
			return acc
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			acc := values[0].(*Neighbors)
			for _, v := range values[1:] {
				acc = acc.Merge(v.(*Neighbors))
			}
			return acc
		},
		Commutative: true,
	}
}

// sqDist returns the squared Euclidean distance, summed in index order.
//
// Four elements per iteration, still one sum: the order of the additions,
// and so every bit of the result, is that of the one-element loop. Written
// that way the loop is 28 bytes that run as fast as instructions can be
// fetched, and wherever the linker happened to lay them across a 64-byte
// line — which any change in the size of code linked earlier flips, the
// map function being 32-byte aligned — K-Means' map phase ran 25–40 %
// slower. Unrolled, the chain of additions sets the pace at either
// placement.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var d float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		d += d0 * d0
		d += d1 * d1
		d += d2 * d2
		d += d3 * d3
	}
	for ; i < len(a); i++ {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// pointID derives a stable identity from a point's coordinates.
func pointID(pt []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range pt {
		bits := uint64(int64(v * (1 << 30)))
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= 1099511628211
			bits >>= 8
		}
	}
	return h
}

// randomPoints draws n fixed points from the unit cube.
func randomPoints(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		pt := make([]float64, dim)
		for d := range pt {
			pt[d] = rng.Float64()
		}
		out[i] = pt
	}
	return out
}

// SortedKeys returns a job output's keys in sorted order (test helper and
// example-friendly formatting).
func SortedKeys(out mapreduce.Output) []string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
