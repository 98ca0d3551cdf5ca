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
// the reduce side averages the per-centroid accumulators. A point of
// another dimension than dim is an error.
func KMeans(partitions, k, dim int, seed int64) *mapreduce.Job {
	centroids := randomPoints(seed, k, dim)
	// A point's key names its centroid: k strings, built here once rather
	// than one per point.
	keys := indexKeys("c", len(centroids))
	return &mapreduce.Job{
		Name:       "K-Means",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			pt, err := point("K-Means", rec, dim)
			if err != nil {
				return err
			}
			sum := make([]float64, len(pt))
			copy(sum, pt)
			emit(keys[nearest(pt, centroids)], &CentroidAcc{Sum: sum, Count: 1})
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
// the k nearest data points in the window. The queries share one
// dimension, and a point of another is an error.
func KNN(partitions, k int, queries [][]float64) *mapreduce.Job {
	dim := -1 // no query: a point of any dimension
	for q, query := range queries {
		if q == 0 {
			dim = len(query)
		} else if len(query) != dim {
			panic(fmt.Sprintf("KNN: query %d has dimension %d, query 0 has %d", q, len(query), dim))
		}
	}
	keys := indexKeys("q", len(queries))
	return &mapreduce.Job{
		Name:       "KNN",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			pt, err := point("KNN", rec, dim)
			if err != nil {
				return err
			}
			id := pointID(pt)
			emitQuery := func(q int, d float64) {
				emit(keys[q], &Neighbors{K: k, List: []Neighbor{{Dist: d, ID: id}}})
			}
			q := 0
			for ; q+4 <= len(queries); q += 4 {
				d0, d1, d2, d3 := sqDist4(pt, queries[q], queries[q+1], queries[q+2], queries[q+3])
				emitQuery(q, d0)
				emitQuery(q+1, d1)
				emitQuery(q+2, d2)
				emitQuery(q+3, d3)
			}
			for ; q < len(queries); q++ {
				emitQuery(q, sqDist(pt, queries[q]))
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

// indexKeys returns prefix+"0" … prefix+strconv.Itoa(n-1): the keys a job
// emits under, built once rather than one per record.
func indexKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// point returns rec as a point of dimension dim (of any, for a negative
// dim), or an error naming the job when it is not one.
func point(job string, rec mapreduce.Record, dim int) ([]float64, error) {
	pt, ok := rec.([]float64)
	if !ok {
		return nil, fmt.Errorf("%s: record %T is not a point", job, rec)
	}
	if dim >= 0 && len(pt) != dim {
		return nil, fmt.Errorf("%s: record has dimension %d, the job's points have %d", job, len(pt), dim)
	}
	return pt, nil
}

// nearest returns the index of the centroid closest to p: the first of the
// closest, as a scan that starts from centroid 0's distance and moves on
// only to a strictly smaller one finds it — so a NaN distance never wins,
// and a NaN at centroid 0 keeps 0. The distances are sqDist's, bit for
// bit, four computed per pass (sqDist4) and compared in index order.
func nearest(p []float64, centroids [][]float64) int {
	best, bestD := 0, 0.0
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		d0, d1, d2, d3 := sqDist4(p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
		if c == 0 || d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < len(centroids); c++ {
		if d := sqDist(p, centroids[c]); c == 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
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

// sqDist4 returns sqDist(p, a), sqDist(p, b), sqDist(p, c) and
// sqDist(p, d), each bit for bit: one pass over p feeds four sums, each of
// which adds its squared differences in index order, as sqDist does. The
// four chains of additions are independent, so the core runs them side by
// side where sqDist waits on one. x[i]-p[i] squares to the bits of
// p[i]-x[i], and saves copying p[i] before each subtraction. A NaN result
// is a NaN, but not always the same one: which NaN an operation on two
// NaNs yields follows the order the compiler gave its operands, which Go
// leaves open, in sqDist as here. a, b, c and d hold at least len(p)
// elements.
func sqDist4(p, a, b, c, d []float64) (da, db, dc, dd float64) {
	n := len(p)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	i := 0
	for ; i < n-1; i += 2 {
		p0, p1 := p[i], p[i+1]
		a0, a1 := a[i]-p0, a[i+1]-p1
		b0, b1 := b[i]-p0, b[i+1]-p1
		c0, c1 := c[i]-p0, c[i+1]-p1
		d0, d1 := d[i]-p0, d[i+1]-p1
		da += a0 * a0
		db += b0 * b0
		dc += c0 * c0
		dd += d0 * d0
		da += a1 * a1
		db += b1 * b1
		dc += c1 * c1
		dd += d1 * d1
	}
	if i < n {
		p0 := p[i]
		a0, b0, c0, d0 := a[i]-p0, b[i]-p0, c[i]-p0, d[i]-p0
		da += a0 * a0
		db += b0 * b0
		dc += c0 * c0
		dd += d0 * d0
	}
	return da, db, dc, dd
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
