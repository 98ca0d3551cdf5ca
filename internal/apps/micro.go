package apps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"unicode/utf8"

	"slider/internal/mapreduce"
)

// sumValues is the int64-count jobs' Combine: the sum of their counts.
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
// another dimension than dim is an error, and a k below one a panic here:
// with no centroid there is no nearest one for Map to find.
func KMeans(partitions, k, dim int, seed int64) *mapreduce.Job {
	return kmeans(partitions, k, dim, seed, distKernel)
}

// kmeans is KMeans computing its distances under kernel kern.
func kmeans(partitions, k, dim int, seed int64, kern kernel) *mapreduce.Job {
	if k < 1 {
		panic(fmt.Sprintf("K-Means: k is %d, want at least one centroid", k))
	}
	centroids := randomPoints(seed, k, dim)
	blocks := kernelBlocks(kern, centroids, dim)
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
			// The accumulator's sum is the point itself, not a copy: no
			// accumulator is written once built, and no record once pushed.
			emit(keys[nearest(kern, pt, centroids, blocks)], &CentroidAcc{Sum: pt, Count: 1})
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return sumCentroidAccs(values)
		},
		Reduce: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return meanCentroidAccs(values)
		},
		Commutative: true,
	}
}

// KNN is the K-nearest-neighbors micro-benchmark of §7.1
// (compute-intensive): for each of a fixed set of query points it finds
// the k nearest data points in the window. The queries share one
// dimension, and a point of another is an error.
func KNN(partitions, k int, queries [][]float64) *mapreduce.Job {
	return knn(partitions, k, queries, distKernel)
}

// knn is KNN computing its distances under kernel kern.
func knn(partitions, k int, queries [][]float64, kern kernel) *mapreduce.Job {
	dim := -1 // no query: a point of any dimension
	for q, query := range queries {
		if q == 0 {
			dim = len(query)
		} else if len(query) != dim {
			panic(fmt.Sprintf("KNN: query %d has dimension %d, query 0 has %d", q, len(query), dim))
		}
	}
	blocks := kernelBlocks(kern, queries, dim)
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
			// One list and one neighbour array a point, not one of each a
			// query: query q's value is &ns[q], whose list is nb[q], capped
			// at one element. No value is written once emitted — Merge
			// builds fresh lists — so the values may share the arrays.
			ns, nb := make([]Neighbors, len(queries)), make([]Neighbor, len(queries))
			emitQuery := func(q int, d float64) {
				nb[q] = Neighbor{Dist: d, ID: id}
				ns[q] = Neighbors{K: k, List: nb[q : q+1 : q+1]}
				emit(keys[q], &ns[q])
			}
			if blocks == nil {
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
			}
			var d [kernelLanes]float64
			for q := 0; q < len(queries); q += kernelLanes {
				out := d[:min(len(d), wholeBlocks(len(queries))-q)]
				sqDistBlocks(pt, blocks[q*dim:(q+len(out))*dim], out)
				for j, dj := range out[:min(len(out), len(queries)-q)] {
					emitQuery(q+j, dj)
				}
			}
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergeNeighbors(values)
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

// kernel names one way to compute a point's distances to a job's fixed
// points. Each computes sqDist's bits for every distance; they differ in
// how many they compute side by side.
type kernel uint8

const (
	// kernelGo is the Go loops: sqDist4 four points a pass, then sqDist.
	// Every architecture and CPU runs it, and it alone calls them.
	kernelGo kernel = iota
	// kernelAVX is sqDistBlocksAVX (sqdist_avx_amd64.s): blocks of eight
	// points, four blocks a pass while four remain, then one, in 4-lane
	// YMM sums; nearest compares its distances in Go.
	kernelAVX
	// kernelAVX512 is kernelAVX with nearest's argmin in
	// argminBlocksAVX512 (sqdist_avx512_amd64.s): eight blocks a pass
	// while eight remain, then one, a block to one 8-lane ZMM sum, and the
	// argmin in the same pass.
	kernelAVX512
)

func (k kernel) String() string { return [...]string{"go", "avx", "avx512"}[k] }

// nearest returns the index of the centroid closest to p: the first of the
// closest, as a scan that starts from centroid 0's distance and moves on
// only to a strictly smaller one finds it — so a NaN distance never wins,
// and a NaN at centroid 0 keeps 0. The distances are sqDist's, bit for
// bit. Under a kernel with blocks (kernelBlocks' layout) argminBlocks
// scans every block, spare lanes included, which never win; under
// kernelGo (blocks nil) the centroids are compared in index order, four
// per pass (sqDist4) and then one at a time.
func nearest(k kernel, p []float64, centroids [][]float64, blocks []float64) int {
	if blocks != nil {
		return argminBlocks(k, p, blocks, wholeBlocks(len(centroids)))
	}
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

// kernelLanes is the most distances KNN, and nearest under kernelAVX, ask
// of one sqDistBlocks call: four blocks of eight, one pass, in an array on
// the caller's stack.
const kernelLanes = 32

// wholeBlocks is the lanes kernelBlocks lays n points out in.
func wholeBlocks(n int) int { return (n + 7) &^ 7 }

// kernelBlocks lays pts, points of dimension dim, out for kernel k in
// blocks of eight, one after another in one slice: block b is the 8*dim
// elements from 8*b*dim on, and its element 8*i+j is point 8*b+j's
// coordinate i. The last block's spare lanes hold NaN coordinates, so
// their distances are NaN (+0 at dimension 0, as every distance is
// there), never strictly less than centroid 0's: every path with blocks
// scans whole blocks, nearest's never answers a spare lane, and KNN emits
// only its real queries. Under kernelGo it returns nil, and the callers
// run the Go loops.
func kernelBlocks(k kernel, pts [][]float64, dim int) []float64 {
	if k == kernelGo {
		return nil
	}
	out := make([]float64, wholeBlocks(len(pts))*dim)
	for i := range out {
		out[i] = math.NaN()
	}
	for c, pt := range pts {
		blk := out[c/8*8*dim:]
		for i, v := range pt[:dim] {
			blk[8*i+c%8] = v
		}
	}
	return out
}

// sqDistBlocks sets out[8*b+j] to sqDist(p, point j of block b) for the
// len(out)/8 blocks blk holds, laid out as kernelBlocks lays them, each
// bit for bit: sqDistBlocksAVX subtracts, squares and adds four lanes at a
// time, one dimension after another, so every lane adds its squares in
// index order from +0 with each product rounded, as sqDist does; it uses
// no fused multiply-add, which would round once where sqDist rounds twice.
// A NaN lane is a NaN, not always the one sqDist yields (see sqDist4).
// Assembly checks no bounds, so the lengths are checked here, before every
// call: unless out holds whole blocks and blk len(out)*len(p) elements, it
// panics and the kernel is not run. Only a CPU with AVX may call it.
func sqDistBlocks(p, blk, out []float64) {
	if len(out)%8 != 0 || len(blk) != len(out)*len(p) {
		panic(fmt.Sprintf("apps: sqDistBlocks of %d lanes over %d elements for a point of dimension %d, want lanes a multiple of 8 and %d elements",
			len(out), len(blk), len(p), len(out)*len(p)))
	}
	sqDistBlocksAVX(p, blk, out)
}

// argminBlocks returns the index of the first of the closest to p of the
// lanes points blk holds, laid out as kernelBlocks lays them, as nearest
// defines it. kernelAVX512 computes the distances and their argmin in one
// pass and stores none (argminBlocksAVX512); kernelAVX computes up to
// kernelLanes distances a call into an array on the stack and compares
// them here. The lengths are checked first, as in sqDistBlocks: unless
// lanes is a positive multiple of 8 and blk holds lanes*len(p) elements,
// it panics.
func argminBlocks(k kernel, p, blk []float64, lanes int) int {
	if lanes < 8 || lanes%8 != 0 || len(blk) != lanes*len(p) {
		panic(fmt.Sprintf("apps: argminBlocks of %d lanes over %d elements for a point of dimension %d, want a positive multiple of 8 lanes and %d elements",
			lanes, len(blk), len(p), lanes*len(p)))
	}
	switch k {
	case kernelAVX512:
		return argminBlocksAVX512(p, blk, lanes)
	case kernelAVX:
		n := len(p)
		var d [kernelLanes]float64
		best, bestD := 0, 0.0
		for c := 0; c < lanes; c += kernelLanes {
			out := d[:min(len(d), lanes-c)]
			sqDistBlocksAVX(p, blk[c*n:(c+len(out))*n], out)
			for j, dj := range out {
				if c+j == 0 || dj < bestD {
					best, bestD = c+j, dj
				}
			}
		}
		return best
	}
	panic("apps: argminBlocks under " + k.String() + ", which has no blocks")
}

// addFloats adds src into dst element by element, dst[i] += src[i] for
// every i of src: eight elements an instruction under kernelAVX512
// (addFloatsAVX512), one at a time otherwise. The elements are independent
// and each is one rounded addition, so both write the same bits. A src
// longer than dst panics, as indexing dst would.
func addFloats(k kernel, dst, src []float64) {
	dst = dst[:len(src)]
	if k == kernelAVX512 {
		addFloatsAVX512(dst, src)
		return
	}
	for i, x := range src {
		dst[i] += x
	}
}

// sqDist returns the squared Euclidean distance, summed in index order.
// Each square is converted to float64 before it is added: Go may fuse
// d += x*x into one multiply-add, rounded once (arm64 does, and amd64 at
// GOAMD64=v3), and the conversion, which the language defines to round,
// forbids that, so the bits are the same on every architecture and equal
// to sqDist4's and sqDistBlocks' lanes.
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
		d += float64(d0 * d0)
		d += float64(d1 * d1)
		d += float64(d2 * d2)
		d += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		diff := a[i] - b[i]
		d += float64(diff * diff)
	}
	return d
}

// sqDist4 returns sqDist(p, a), sqDist(p, b), sqDist(p, c) and
// sqDist(p, d), each bit for bit: one pass over p feeds four sums, each of
// which adds its squared differences in index order, as sqDist does. The
// four chains of additions are independent, so the core runs them side by
// side where sqDist waits on one. Each square is converted to float64
// before it is added, as in sqDist, so that no multiply-add is fused.
// x[i]-p[i] squares to the bits of p[i]-x[i], and saves copying p[i]
// before each subtraction. A NaN result is a NaN, but not always the same
// one: which NaN an operation on two NaNs yields follows the order the
// compiler gave its operands, which Go leaves open, in sqDist as here. a,
// b, c and d hold at least len(p) elements.
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
		da += float64(a0 * a0)
		db += float64(b0 * b0)
		dc += float64(c0 * c0)
		dd += float64(d0 * d0)
		da += float64(a1 * a1)
		db += float64(b1 * b1)
		dc += float64(c1 * c1)
		dd += float64(d1 * d1)
	}
	if i < n {
		p0 := p[i]
		a0, b0, c0, d0 := a[i]-p0, b[i]-p0, c[i]-p0, d[i]-p0
		da += float64(a0 * a0)
		db += float64(b0 * b0)
		dc += float64(c0 * c0)
		dd += float64(d0 * d0)
	}
	return da, db, dc, dd
}

// pointID derives a stable identity from a point's coordinates.
func pointID(pt []float64) uint64 {
	h := fnvOffset
	for _, v := range pt {
		h = fnvMix(h, uint64(int64(v*(1<<30))))
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
