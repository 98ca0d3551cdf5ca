package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"slider/internal/israce"
	"slider/internal/mapreduce"
	"slider/internal/workload"
)

// TestKMeansRefusesNoCentroid: a K-Means job of fewer than one centroid is
// refused where it is built, by a panic naming the job and k, not by one
// in every Map call (k = 0) or in make (k < 0).
func TestKMeansRefusesNoCentroid(t *testing.T) {
	for _, k := range []int{0, -1, -64} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "K-Means") || !strings.Contains(msg, fmt.Sprintf("k is %d", k)) {
					t.Errorf("KMeans(2, %d, 3, 1) panicked with %q, want a panic naming the job and k", k, msg)
				}
			}()
			KMeans(2, k, 3, 1)
		}()
	}
	// One centroid is a job: every point is its nearest.
	job := KMeans(2, 1, 3, 1)
	if _, err := mapreduce.RunMapTask(job, mapreduce.Split{ID: "one", Records: []mapreduce.Record{[]float64{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
}

// TestSqDistMatchesIndexOrderSum: the unrolled loop adds in index order,
// so it agrees with the plain loop to the last bit at every length on
// either side of the unrolling step. The reference converts each square to
// float64, as sqDist does, so that neither is fused into a multiply-add.
func TestSqDistMatchesIndexOrderSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 50; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*1e3, rng.NormFloat64()
		}
		var want float64
		for i := range a {
			diff := a[i] - b[i]
			want += float64(diff * diff)
		}
		if got := sqDist(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("len %d: sqDist = %v, index-order sum = %v", n, got, want)
		}
	}
}

// TestKMeansMapAllocs pins what K-Means' map function allocates per point:
// the accumulator, one allocation, whose sum is the point itself (a copy of
// the point was a second). The key names the nearest centroid with a
// string the job built once, so a point costs no key of its own (it cost
// a third allocation while the key was concatenated per point), and the
// keys read as before.
func TestKMeansMapAllocs(t *testing.T) {
	const k, dim = 64, 50
	job := KMeans(1, k, dim, 7)
	pts := workload.NewPoints(workload.PointsConfig{Seed: 7, PointsPerSplit: 256, Dim: dim}).Split(0).Records
	seen := map[string]bool{}
	record := func(key string, _ mapreduce.Value) { seen[key] = true }
	for _, pt := range pts {
		if err := job.Map(pt, record); err != nil {
			t.Fatal(err)
		}
	}
	for key := range seen {
		if c, err := strconv.Atoi(strings.TrimPrefix(key, "c")); err != nil || c < 0 || c >= k || key != "c"+strconv.Itoa(c) {
			t.Fatalf("key %q names no centroid of %d", key, k)
		}
	}
	drop := func(string, mapreduce.Value) {}
	i := 0
	allocs := testing.AllocsPerRun(len(pts), func() {
		if err := job.Map(pts[i%len(pts)], drop); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("the map function allocates %.1f times per point, want 1 (the accumulator)", allocs)
	}
}

// scanNearest is the argmin K-Means' map took before nearest: one sqDist
// a centroid, in index order, moving on only to a strictly smaller
// distance.
func scanNearest(p []float64, centroids [][]float64) int {
	best, bestD := 0, sqDist(p, centroids[0])
	for c := 1; c < len(centroids); c++ {
		if d := sqDist(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// sameFloat reports whether two distances are equal to the bit, or both
// NaN: which NaN an operation on two NaNs yields depends on the order the
// compiler gave its operands, which differs between builds (the fuzzing
// build's instrumentation changes it), for sqDist as for sqDist4.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernels are the distance kernels, narrowest first.
var kernels = []kernel{kernelGo, kernelAVX, kernelAVX512}

// runs reports whether this CPU runs k: every kernel up to distKernel,
// since a CPU with AVX-512 has AVX.
func (k kernel) runs() bool { return k <= distKernel }

// underEachKernel runs f as one sub-test a kernel, named for it; a kernel
// this CPU does not run skips its sub-test, saying so.
func underEachKernel(t *testing.T, f func(t *testing.T, k kernel)) {
	t.Helper()
	for _, k := range kernels {
		t.Run(k.String(), func(t *testing.T) {
			if !k.runs() {
				t.Skipf("this CPU does not run the %s kernel (it runs %s)", k, distKernel)
			}
			f(t, k)
		})
	}
}

// TestDistKernel names the kernel this CPU dispatched (run it with -v to
// see which), and holds the layout to the dispatch: only under a kernel
// with blocks does a job lay its points out, in whole blocks of eight, the
// last one padded.
func TestDistKernel(t *testing.T) {
	t.Logf("dispatched distance kernel: %s", distKernel)
	pts := randomPoints(1, 9, 3)
	for _, k := range kernels {
		if blocks := kernelBlocks(k, pts, 3); (blocks == nil) != (k == kernelGo) || blocks != nil && len(blocks) != 16*3 {
			t.Errorf("kernelBlocks under %s: %d elements (nil %v), want %d", k, len(blocks), blocks == nil, 16*3)
		}
	}
}

// checkNearest holds nearest under kernel k to scanNearest on one point.
// Under kernelGo it also holds every block of four centroids' sqDist4
// lanes to sqDist, in bits (sameFloat). Under a kernel with blocks, where
// nearest is one argminBlocks call over every block, it holds that call
// to never answer a spare lane; it holds every spare lane of kernelBlocks'
// last block to NaN coordinates; and it makes one sqDistBlocks call over
// all the blocks — every pass the AVX kernel admits — and holds every
// real lane to sqDist, every spare lane to a NaN (+0 at dimension 0) and
// the call to writing nothing past its out.
func checkNearest(t *testing.T, k kernel, p []float64, centroids [][]float64) {
	t.Helper()
	n, dim := len(centroids), len(p)
	want := scanNearest(p, centroids)
	blocks := kernelBlocks(k, centroids, dim)
	got := nearest(k, p, centroids, blocks)
	if got >= n {
		t.Fatalf("k %d, dim %d: nearest (%s) = %d, a spare lane (p %v)", n, dim, k, got, p)
	}
	if got != want {
		t.Fatalf("k %d, dim %d: nearest (%s) = %d, the scan finds %d (p %v)", n, dim, k, got, want, p)
	}
	if k == kernelGo {
		for c := 0; c+4 <= n; c += 4 {
			var lanes [4]float64
			lanes[0], lanes[1], lanes[2], lanes[3] = sqDist4(p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
			for j, got := range lanes {
				if want := sqDist(p, centroids[c+j]); !sameFloat(got, want) {
					t.Fatalf("k %d, dim %d: sqDist4 lane %d of block %d = %v, sqDist = %v", n, dim, j, c, got, want)
				}
			}
		}
		return
	}
	m := wholeBlocks(n)
	for c := n; c < m; c++ {
		for i := 0; i < dim; i++ {
			if v := blocks[c/8*8*dim+8*i+c%8]; !math.IsNaN(v) {
				t.Fatalf("k %d, dim %d: spare lane %d holds %v at coordinate %d, want NaN", n, dim, c, v, i)
			}
		}
	}
	const sentinel = -1.5
	lanes := make([]float64, m+8)
	for i := range lanes {
		lanes[i] = sentinel
	}
	sqDistBlocks(p, blocks, lanes[:m])
	for c, got := range lanes[:m] {
		if c >= n {
			if dim > 0 && !math.IsNaN(got) || dim == 0 && math.Float64bits(got) != 0 {
				t.Fatalf("k %d, dim %d: sqDistBlocks spare lane %d = %v, want NaN (+0 at dimension 0)", n, dim, c, got)
			}
			continue
		}
		if want := sqDist(p, centroids[c]); !sameFloat(got, want) {
			t.Fatalf("k %d, dim %d: sqDistBlocks lane %d (block %d) = %v, sqDist = %v", n, dim, c, c/8, got, want)
		}
	}
	for i, v := range lanes[m:] {
		if v != sentinel {
			t.Fatalf("k %d, dim %d: sqDistBlocks of %d lanes wrote %v at lane %d", n, dim, m, v, m+i)
		}
	}
}

// TestNearestMatchesScan: under each kernel, the blocked argmin picks the
// scan's centroid — ties to the lowest index, NaN distances never winning,
// a NaN at centroid 0 keeping it, a spare lane never — at every count mod
// eight (the last block padded) and mod four, with the AVX kernel's four-block pass and the AVX-512 kernel's
// eight-block pass run zero to four times and followed by up to seven
// one-block passes, over random coordinates, duplicated centroids,
// coordinates drawn from NaN, ±Inf and ±0, and distances drawn from a few
// values (0, 1, 2, 4, +Inf, NaN: ties within a lane, across lanes and
// across blocks, NaN at lane 0 and in later lanes).
func TestNearestMatchesScan(t *testing.T) {
	underEachKernel(t, func(t *testing.T, kern kernel) {
		rng := rand.New(rand.NewSource(43))
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}
		// Coordinates whose squares, from a point at 0, are 0, 1, 4, +Inf
		// or NaN.
		few := []float64{0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1), 1e200, math.NaN()}
		ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 97, 120, 127, 128, 129, 130, 136, 191, 192}
		for _, k := range ks {
			for dim := 0; dim <= 67; dim++ {
				for trial := 0; trial < 8; trial++ {
					coord := func() float64 { return rng.NormFloat64() }
					switch trial {
					case 2: // a few exact zeros and a coarse grid: many equal distances
						coord = func() float64 { return float64(rng.Intn(3)) }
					case 3, 4: // specials, sparse and dense
						rate := 0.02 * float64(trial*trial)
						coord = func() float64 {
							if rng.Float64() < rate {
								return specials[rng.Intn(len(specials))]
							}
							return rng.NormFloat64()
						}
					case 6, 7: // few distances, a NaN or an Inf now and then
						coord = func() float64 {
							if rng.Intn(16) == 0 {
								return few[len(few)-1-rng.Intn(4)]
							}
							return few[rng.Intn(len(few)-4)]
						}
					}
					p := make([]float64, dim)
					for i := range p {
						if trial < 6 {
							p[i] = coord()
						}
					}
					centroids := make([][]float64, k)
					for c := range centroids {
						if c > 0 && (trial == 1 || trial == 5) && rng.Intn(2) == 0 {
							// A duplicate of an earlier centroid: the same
							// distance, which must go to the lower index.
							centroids[c] = centroids[rng.Intn(c)]
							continue
						}
						centroids[c] = make([]float64, dim)
						for i := range centroids[c] {
							centroids[c][i] = coord()
						}
					}
					switch {
					case trial == 5 && dim > 0:
						// The same duplicates, with the point and centroid 0
						// poisoned by NaN: centroid 0 keeps the point.
						p[rng.Intn(dim)] = math.NaN()
					case trial == 7 && dim > 0:
						// A NaN at centroid 0 alone, later lanes numbers or
						// NaN: centroid 0 keeps the point.
						centroids[0][rng.Intn(dim)] = math.NaN()
					}
					checkNearest(t, kern, p, centroids)
				}
			}
		}
	})
}

// FuzzNearest holds nearest, sqDist4, sqDistBlocks and the padding to the
// scan and to sqDist over raw float bits (checkNearest), under every
// kernel this CPU runs: the input's 8-byte words are the point's
// coordinates, then each centroid's, cycling when the input runs out. k
// reaches 136: two eight-block passes and a one-block pass.
func FuzzNearest(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(5), uint8(3), word(1, 2, 3, 1, 2, 3, 0, 0))
	f.Add(uint8(9), uint8(7), word(math.NaN(), 1, math.Inf(1), -1, 0.5))
	f.Add(uint8(64), uint8(50), word(0.25, 0.75))
	f.Add(uint8(4), uint8(0), []byte{})
	f.Add(uint8(129), uint8(1), word(0, math.NaN(), 1, 1, math.Inf(1), 2, 0))
	f.Add(uint8(135), uint8(2), word(0, 0, 1, math.NaN(), -1, 2, math.Inf(-1), 0))
	f.Fuzz(func(t *testing.T, kByte, dimByte uint8, data []byte) {
		n := 1 + int(kByte)%136
		d := int(dimByte) % 68
		words := len(data) / 8
		w := 0
		next := func() float64 {
			if words == 0 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(w%words):]))
			w++
			return v
		}
		p := make([]float64, d)
		for i := range p {
			p[i] = next()
		}
		centroids := make([][]float64, n)
		for c := range centroids {
			centroids[c] = make([]float64, d)
			for i := range centroids[c] {
				centroids[c][i] = next()
			}
		}
		for _, k := range kernels {
			if k.runs() {
				checkNearest(t, k, p, centroids)
			}
		}
	})
}

// TestSqDistBlocksRefusesWrongLength: unless out holds whole blocks of
// eight lanes and blk len(out) times the point's dimension, sqDistBlocks
// panics, naming the lengths, and the kernel — which checks no bounds —
// never runs: out keeps what it held. Under each kernel with blocks,
// argminBlocks panics the same way unless it is asked for a positive
// multiple of eight lanes over lanes times the dimension's elements; under
// kernelGo, which has no blocks, it panics whatever the lengths.
func TestSqDistBlocksRefusesWrongLength(t *testing.T) {
	panics := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("panicked with %q, want %q", msg, want)
			}
		}()
		f()
	}
	for _, c := range []struct{ dim, blk, out int }{
		{3, 23, 8}, {3, 25, 8}, {3, 0, 8}, {0, 8, 8}, {50, 8 * 49, 8}, {1, 1, 8},
		{3, 96, 8}, {3, 24, 32}, {2, 14, 7}, {2, 18, 9}, {0, 0, 4}, {4, 4 * 33, 33}, {1, 0, 1},
		{2, 2 * 32, 40}, {2, 2 * 40, 32},
	} {
		p, blk := make([]float64, c.dim), make([]float64, c.blk)
		out := make([]float64, c.out)
		for i := range out {
			out[i] = float64(i + 1)
		}
		want := fmt.Sprintf("sqDistBlocks of %d lanes over %d elements for a point of dimension %d", c.out, c.blk, c.dim)
		panics(t, want, func() { sqDistBlocks(p, blk, out) })
		for i, v := range out {
			if v != float64(i+1) {
				t.Errorf("dim %d, block %d, lanes %d: the kernel wrote %v at lane %d", c.dim, c.blk, c.out, v, i)
			}
		}
	}
	underEachKernel(t, func(t *testing.T, k kernel) {
		if k == kernelGo {
			panics(t, "argminBlocks under go, which has no blocks", func() { argminBlocks(k, make([]float64, 2), make([]float64, 16), 8) })
			return
		}
		for _, c := range []struct{ dim, blk, lanes int }{
			{3, 23, 8}, {3, 25, 8}, {3, 0, 8}, {0, 0, 0}, {2, 0, 0}, {2, 14, 7}, {2, 18, 9},
			{0, 0, -8}, {1, 64, 72}, {1, 72, 64}, {50, 8 * 49, 8},
		} {
			p, blk := make([]float64, c.dim), make([]float64, c.blk)
			want := fmt.Sprintf("argminBlocks of %d lanes over %d elements for a point of dimension %d", c.lanes, c.blk, c.dim)
			panics(t, want, func() { argminBlocks(k, p, blk, c.lanes) })
		}
	})
}

// TestAddFloatsMatchesLoop: every kernel's addFloats writes the bits the
// scalar loop writes, element by element, at every length on either side
// of four and eight lanes, leaves dst past len(src) alone, and panics,
// writing nothing, on a src longer than dst.
func TestAddFloatsMatchesLoop(t *testing.T) {
	underEachKernel(t, func(t *testing.T, k kernel) {
		rng := rand.New(rand.NewSource(5))
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}
		coord := func() float64 {
			if rng.Intn(8) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64() * math.Exp2(float64(rng.Intn(100)-50))
		}
		for n := 0; n <= 70; n++ {
			dst, src := make([]float64, n+3), make([]float64, n)
			for i := range dst {
				dst[i] = coord()
			}
			for i := range src {
				src[i] = coord()
			}
			want := append([]float64(nil), dst...)
			for i, x := range src {
				want[i] += x
			}
			addFloats(k, dst, src)
			for i := range dst {
				if !sameFloat(dst[i], want[i]) {
					t.Fatalf("len %d: element %d = %v, the loop's %v", n, i, dst[i], want[i])
				}
			}
		}
		dst := []float64{1, 2}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a src longer than dst did not panic")
				}
			}()
			addFloats(k, dst, []float64{1, 1, 1})
		}()
		if dst[0] != 1 || dst[1] != 2 {
			t.Errorf("a refused addition wrote %v", dst)
		}
	})
}

// scalarKMeans is K-Means as it was before its map computed four distances
// a pass and its Combine added in vector lanes: the same centroids and
// keys, scanNearest for the argmin, the element-by-element loop for the
// sums.
func scalarKMeans(partitions, k, dim int, seed int64) *mapreduce.Job {
	centroids := randomPoints(seed, k, dim)
	job := KMeans(partitions, k, dim, seed)
	job.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error {
		pt := rec.([]float64)
		sum := make([]float64, len(pt))
		copy(sum, pt)
		emit("c"+strconv.Itoa(scanNearest(pt, centroids)), &CentroidAcc{Sum: sum, Count: 1})
		return nil
	}
	sum := func(values []mapreduce.Value) *CentroidAcc {
		first := values[0].(*CentroidAcc)
		out := &CentroidAcc{Sum: append([]float64(nil), first.Sum...), Count: first.Count}
		for _, v := range values[1:] {
			b := v.(*CentroidAcc)
			out.Count += b.Count
			for i, x := range b.Sum {
				out.Sum[i] += x
			}
		}
		return out
	}
	job.Combine = func(_ string, values []mapreduce.Value) mapreduce.Value { return sum(values) }
	job.Reduce = func(_ string, values []mapreduce.Value) mapreduce.Value { return sum(values).Mean() }
	return job
}

// scalarKNN is KNN as it was before its map computed four distances a
// pass and its Combine folded into one list: one sqDist a query, in query
// order, and a chain of Merge calls.
func scalarKNN(partitions, k int, queries [][]float64) *mapreduce.Job {
	job := KNN(partitions, k, queries)
	job.Map = func(rec mapreduce.Record, emit mapreduce.Emit) error {
		pt := rec.([]float64)
		id := pointID(pt)
		for q, query := range queries {
			d := sqDist(pt, query)
			emit("q"+strconv.Itoa(q), &Neighbors{K: k, List: []Neighbor{{Dist: d, ID: id}}})
		}
		return nil
	}
	chain := func(_ string, values []mapreduce.Value) mapreduce.Value {
		acc := values[0].(*Neighbors)
		for _, v := range values[1:] {
			acc = acc.Merge(v.(*Neighbors))
		}
		return acc
	}
	job.Combine, job.Reduce = chain, chain
	return job
}

// sameBits reports whether two K-Means or KNN output values are equal to
// the bit (sameFloat).
func sameBits(a, b mapreduce.Value) bool {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameFloat(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	switch a := a.(type) {
	case []float64:
		b, ok := b.([]float64)
		return ok && floats(a, b)
	case *Neighbors:
		b, ok := b.(*Neighbors)
		if !ok || a.K != b.K || len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if a.List[i].ID != b.List[i].ID || !floats([]float64{a.List[i].Dist}, []float64{b.List[i].Dist}) {
				return false
			}
		}
		return true
	}
	return false
}

// assertSameBits runs both jobs from scratch over the splits and holds
// their outputs equal, key for key and bit for bit.
func assertSameBits(t *testing.T, name string, job, twin *mapreduce.Job, splits []mapreduce.Split) {
	t.Helper()
	got, want := runScratch(t, job, splits), runScratch(t, twin, splits)
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, the scalar twin has %d", name, len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || !sameBits(g, w) {
			t.Fatalf("%s: key %q = %v, the scalar twin's %v", name, key, g, w)
		}
	}
}

// twinPoints returns four splits of 64 points of dimension dim, and n
// query points of it: the workload's unit-cube points, or at dimension 0,
// which the workload does not generate, empty ones.
func twinPoints(seed int64, dim, n int) ([]mapreduce.Split, [][]float64) {
	if dim > 0 {
		pts := workload.NewPoints(workload.PointsConfig{Seed: seed, PointsPerSplit: 64, Dim: dim})
		return pts.Range(0, 4), pts.QueryPoints(n)
	}
	splits := make([]mapreduce.Split, 4)
	for i := range splits {
		splits[i].ID = "empty" + strconv.Itoa(i)
		for range 64 {
			splits[i].Records = append(splits[i].Records, []float64{})
		}
	}
	return splits, make([][]float64, n)
}

// TestKMeansMatchesScalarTwin: under each kernel the blocked map assigns
// every point as the scan did, so the means are the twin's to the bit, at
// centroid counts of every remainder mod 8 and on either side of an
// eight-block pass, and at dimensions on either side of the unrolling and
// of none.
func TestKMeansMatchesScalarTwin(t *testing.T) {
	underEachKernel(t, func(t *testing.T, kern kernel) {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 20, 64, 72, 77} {
			for _, dim := range []int{0, 1, 2, 5, 50} {
				splits, _ := twinPoints(int64(k*100+dim), dim, 0)
				name := "k" + strconv.Itoa(k) + "/dim" + strconv.Itoa(dim)
				assertSameBits(t, name, kmeans(3, k, dim, 11, kern), scalarKMeans(3, k, dim, 11), splits)
			}
		}
	})
}

// TestKNNMatchesScalarTwin: under each kernel, blocked queries give each
// query the distances, and so the neighbours, the one-query loop gave —
// at query counts of every remainder mod 8 and past one sqDistBlocks call,
// and at dimension 0 — and the one-list fold keeps what a chain of Merge
// calls kept.
func TestKNNMatchesScalarTwin(t *testing.T) {
	underEachKernel(t, func(t *testing.T, kern kernel) {
		for _, queries := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 16, 37, 72} {
			for _, dim := range []int{0, 1, 2, 5, 50} {
				splits, qs := twinPoints(int64(queries*100+dim), dim, queries)
				name := "q" + strconv.Itoa(queries) + "/dim" + strconv.Itoa(dim)
				assertSameBits(t, name, knn(3, 5, qs, kern), scalarKNN(3, 5, qs), splits)
			}
		}
	})
}

// TestPointDimensionIsChecked: a point of another dimension than the job's
// is an error naming the job and both dimensions. A longer point used to
// panic slicing a centroid or query; a shorter one was assigned on its
// first dimensions, and its accumulator then either broke Combine or gave
// a silently wrong mean.
func TestPointDimensionIsChecked(t *testing.T) {
	jobs := []*mapreduce.Job{KMeans(1, 4, 3, 1), KNN(1, 2, [][]float64{{0, 0, 0}, {1, 1, 1}})}
	drop := func(string, mapreduce.Value) {}
	for _, job := range jobs {
		if err := job.Map([]float64{0.1, 0.2, 0.3}, drop); err != nil {
			t.Fatalf("%s: a point of the job's dimension: %v", job.Name, err)
		}
		for _, pt := range [][]float64{{0.5}, {0.1, 0.2, 0.3, 0.4}, {}} {
			err := job.Map(pt, drop)
			want := fmt.Sprintf("%s: record has dimension %d, the job's points have 3", job.Name, len(pt))
			if err == nil || err.Error() != want {
				t.Fatalf("%s: a point of dimension %d: error %v, want %q", job.Name, len(pt), err, want)
			}
		}
	}
	// Through the kernel, the short point of the report fails the task
	// instead of skewing c0's mean.
	splits := []mapreduce.Split{{ID: "s0", Records: []mapreduce.Record{[]float64{0.1, 0.2, 0.3}, []float64{0.5}}}}
	if _, err := mapreduce.RunScratch(KMeans(1, 1, 3, 1), splits, 0, nil); err == nil {
		t.Fatal("a split holding a point of another dimension mapped without error")
	}
}

// TestKNNMapAllocs pins what KNN's map function allocates per point: one
// array of neighbour lists and one of neighbours, two allocations however
// many queries there are (a list and its one-element slice a query, 32
// with 16 queries, before the values shared them). The keys are built
// once, by the job, and read as before.
func TestKNNMapAllocs(t *testing.T) {
	const queries, dim = 16, 50
	gen := workload.NewPoints(workload.PointsConfig{Seed: 7, PointsPerSplit: 256, Dim: dim})
	job := KNN(1, 4, gen.QueryPoints(queries))
	pts := gen.Split(0).Records
	var keys []string
	if err := job.Map(pts[0], func(key string, _ mapreduce.Value) { keys = append(keys, key) }); err != nil {
		t.Fatal(err)
	}
	for q, key := range keys {
		if key != "q"+strconv.Itoa(q) {
			t.Fatalf("emit %d has key %q, want q%d", q, key, q)
		}
	}
	if len(keys) != queries {
		t.Fatalf("a point emitted %d times, want one per query (%d)", len(keys), queries)
	}
	drop := func(string, mapreduce.Value) {}
	i := 0
	allocs := testing.AllocsPerRun(len(pts), func() {
		if err := job.Map(pts[i%len(pts)], drop); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 2 {
		t.Fatalf("the map function allocates %.1f times per point, want 2 (the lists, the neighbours)", allocs)
	}
}

// BenchmarkKMeansMap is K-Means' map function in ns a point at the
// benchmark's shape, 64 centroids of 50 dimensions, one sub-benchmark a
// kernel this CPU runs (go, avx, avx512).
func BenchmarkKMeansMap(b *testing.B) {
	benchEachKernel(b, func(b *testing.B, k kernel) {
		benchMap(b, kmeans(1, 64, 50, 7, k))
	})
}

// BenchmarkKNNMap is KNN's map function in ns a point with 64 queries of
// 50 dimensions, as many distances a point as K-Means at its benchmark
// shape, one sub-benchmark a kernel this CPU runs.
func BenchmarkKNNMap(b *testing.B) {
	gen := workload.NewPoints(workload.PointsConfig{Seed: 7, Dim: 50})
	benchEachKernel(b, func(b *testing.B, k kernel) {
		benchMap(b, knn(1, 8, gen.QueryPoints(64), k))
	})
}

// benchEachKernel runs f as one sub-benchmark a kernel, named for it; a
// kernel this CPU does not run skips its sub-benchmark, saying so.
func benchEachKernel(b *testing.B, f func(b *testing.B, k kernel)) {
	for _, k := range kernels {
		b.Run(k.String(), func(b *testing.B) {
			if !k.runs() {
				b.Skipf("this CPU does not run the %s kernel (it runs %s)", k, distKernel)
			}
			f(b, k)
		})
	}
}

func benchMap(b *testing.B, job *mapreduce.Job) {
	pts := workload.NewPoints(workload.PointsConfig{Seed: 7, PointsPerSplit: 256, Dim: 50}).Split(0).Records
	drop := func(string, mapreduce.Value) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job.Map(pts[i%len(pts)], drop); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKNNTaskAllocs pins what KNN's Combine allocates: one fresh
// list and its header a call, however many values it folds — 2 for a
// key's 256 values, and in a map task over a 256-point split of 16 queries
// 2 a Combine call, counted as the task's allocations less
// those of the same task whose Combine keeps a key's first value and
// allocates nothing. The task calls Combine twice a key here (when 2 048
// values are pending, and at its end), so the fold's share is 64 of the
// task's 582 allocations, 512 of them the map function's two arrays a
// point. A chain of Merge calls allocated a list and its header a merge:
// 8 160 for the keys' 4 080 merges.
func TestKNNTaskAllocs(t *testing.T) {
	gen := workload.NewPoints(workload.PointsConfig{Seed: 7, PointsPerSplit: 256, Dim: 50})
	job := KNN(1, 4, gen.QueryPoints(16))
	split := gen.Split(0)
	values := make([]mapreduce.Value, len(split.Records))
	for i, rec := range split.Records {
		if err := job.Map(rec, func(key string, v mapreduce.Value) {
			if key == "q0" {
				values[i] = v
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { job.Combine("q0", values) }); allocs != 2 {
		t.Fatalf("Combine of %d values allocates %.1f times, want 2: one list and its header", len(values), allocs)
	}
	if israce.Enabled {
		t.Skip("the race detector drops the map task's pooled scratch at random")
	}
	calls := 0
	counted := *job
	counted.Combine = func(key string, values []mapreduce.Value) mapreduce.Value {
		calls++
		return job.Combine(key, values)
	}
	if _, err := mapreduce.RunMapTask(&counted, split); err != nil {
		t.Fatal(err)
	}
	taskAllocs := func(job *mapreduce.Job) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := mapreduce.RunMapTask(job, split); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := *job
	bare.Combine = func(_ string, values []mapreduce.Value) mapreduce.Value { return values[0] }
	all, rest := taskAllocs(job), taskAllocs(&bare)
	if fold := all - rest; fold != float64(2*calls) {
		t.Fatalf("the fold allocates %.0f times in a task (%.0f in all, %.0f without it) over %d Combine calls, want %d: one list and its header a call",
			fold, all, rest, calls, 2*calls)
	}
}

// refMerge is Merge as it was written before the fold shared its loop:
// the k nearest of a ∪ b in a fresh list, b's first of equal neighbors.
func refMerge(a, b *Neighbors) *Neighbors {
	k := max(a.K, b.K)
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

// TestMergeNeighborsMatchesChain: Merge keeps what it kept, and KNN's
// one-list fold keeps what a chain of those merges kept, neighbor for neighbor and bit for bit, over lists
// of mixed capacities (the capacity grows along the chain), equal
// distances and equal IDs (which Merge orders b's first), NaN distances
// (which no order ranks, so only the same comparisons in the same order
// give the same list) and capacities past the fold's stack scratch; a lone
// list comes back as it is.
func TestMergeNeighborsMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := []float64{0, 1, 1, 2, 3, math.Inf(1), math.NaN()}
	list := func() *Neighbors {
		k := 1 + rng.Intn(6)
		if rng.Intn(8) == 0 {
			k = 17 + rng.Intn(8)
		}
		l := make([]Neighbor, rng.Intn(k+1))
		for i := range l {
			l[i] = Neighbor{Dist: dists[rng.Intn(len(dists))], ID: uint64(rng.Intn(4))}
		}
		sort.SliceStable(l, func(i, j int) bool { return less(l[i], l[j]) })
		return &Neighbors{K: k, List: l}
	}
	for trial := 0; trial < 2000; trial++ {
		values := make([]mapreduce.Value, 1+rng.Intn(12))
		for i := range values {
			values[i] = list()
		}
		want := values[0].(*Neighbors)
		for _, v := range values[1:] {
			b := v.(*Neighbors)
			if got, ref := want.Merge(b), refMerge(want, b); !sameBits(got, ref) {
				t.Fatalf("trial %d: Merge = %+v, the two-way merge's %+v", trial, *got, *ref)
			}
			want = refMerge(want, b)
		}
		got := mergeNeighbors(values)
		if !sameBits(got, want) {
			t.Fatalf("trial %d: the fold of %d lists = %+v, the chain's %+v", trial, len(values), *got, *want)
		}
		if len(values) == 1 && got != values[0] {
			t.Fatalf("trial %d: a lone list came back as a copy", trial)
		}
	}
}

// TestKMeansReduceMatchesMean: K-Means' Reduce is the mean of Combine's
// fold, bit for bit — counts of zero, one value, NaN and ±Inf included —
// and allocates the mean alone and its interface header, where the mean
// of a fresh accumulator allocated that accumulator too once the fold
// stopped being inlined into the Reduce. Combine allocates the
// accumulator and its sum.
func TestKMeansReduceMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	job := KMeans(1, 8, 50, 3)
	for trial := 0; trial < 500; trial++ {
		values := make([]mapreduce.Value, 1+rng.Intn(9))
		for i := range values {
			acc := &CentroidAcc{Sum: make([]float64, 50), Count: int64(rng.Intn(3))}
			for d := range acc.Sum {
				acc.Sum[d] = rng.NormFloat64()
				if rng.Intn(64) == 0 {
					acc.Sum[d] = specials[rng.Intn(len(specials))]
				}
			}
			values[i] = acc
		}
		want := sumCentroidAccs(values).Mean()
		if got := job.Reduce("c0", values); !sameBits(got, want) {
			t.Fatalf("trial %d: Reduce of %d accumulators = %v, the mean of their sum %v", trial, len(values), got, want)
		}
	}
	values := []mapreduce.Value{
		&CentroidAcc{Sum: make([]float64, 50), Count: 1},
		&CentroidAcc{Sum: make([]float64, 50), Count: 2},
		&CentroidAcc{Sum: make([]float64, 50), Count: 3},
	}
	for name, c := range map[string]struct {
		f    func(string, []mapreduce.Value) mapreduce.Value
		want float64
	}{"Combine": {job.Combine, 2}, "Reduce": {job.Reduce, 2}} {
		if allocs := testing.AllocsPerRun(20, func() { c.f("c0", values) }); allocs != c.want {
			t.Errorf("%s of %d accumulators allocates %.1f times, want %.0f", name, len(values), allocs, c.want)
		}
	}
}
