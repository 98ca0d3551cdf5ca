package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

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

// checkNearest holds nearest to scanNearest on one point, through the Go
// loops (no blocks) and, where this CPU runs sqDistBlocks' kernel, through
// the kernel over kernelBlocks' blocks; and every block of four centroids'
// sqDist4 lanes and every sqDistBlocks lane to sqDist, in bits (sameFloat).
// The lanes come from one sqDistBlocks call over all the blocks — four a
// pass while four remain, then one — and the call writes nothing past its
// out.
func checkNearest(t *testing.T, p []float64, centroids [][]float64) {
	t.Helper()
	want := scanNearest(p, centroids)
	if got := nearest(p, centroids, nil); got != want {
		t.Fatalf("k %d, dim %d: nearest (Go loops) = %d, the scan finds %d (p %v)", len(centroids), len(p), got, want, p)
	}
	for c := 0; c+4 <= len(centroids); c += 4 {
		var lanes [4]float64
		lanes[0], lanes[1], lanes[2], lanes[3] = sqDist4(p, centroids[c], centroids[c+1], centroids[c+2], centroids[c+3])
		for j, got := range lanes {
			if want := sqDist(p, centroids[c+j]); !sameFloat(got, want) {
				t.Fatalf("k %d, dim %d: sqDist4 lane %d of block %d = %v, sqDist = %v", len(centroids), len(p), j, c, got, want)
			}
		}
	}
	blocks := kernelBlocks(centroids, len(p))
	if blocks == nil {
		return // no kernel on this CPU
	}
	if got := nearest(p, centroids, blocks); got != want {
		t.Fatalf("k %d, dim %d: nearest (sqDistBlocks) = %d, the scan finds %d (p %v)", len(centroids), len(p), got, want, p)
	}
	m := len(centroids) &^ 7
	const sentinel = -1.5
	lanes := make([]float64, m+8)
	for i := range lanes {
		lanes[i] = sentinel
	}
	sqDistBlocks(p, blocks, lanes[:m])
	for c, got := range lanes[:m] {
		if want := sqDist(p, centroids[c]); !sameFloat(got, want) {
			t.Fatalf("k %d, dim %d: sqDistBlocks lane %d (block %d) = %v, sqDist = %v", len(centroids), len(p), c, c/8, got, want)
		}
	}
	for i, v := range lanes[m:] {
		if v != sentinel {
			t.Fatalf("k %d, dim %d: sqDistBlocks of %d lanes wrote %v at lane %d", len(centroids), len(p), m, v, m+i)
		}
	}
}

// TestNearestMatchesScan: the blocked argmin picks the scan's centroid —
// ties to the lowest index, NaN distances never winning, a NaN at
// centroid 0 keeping it — at every tail of a block of eight and of four,
// with the kernel's four-block pass run zero to three times and followed
// by up to three one-block passes, over random coordinates, duplicated
// centroids and coordinates drawn from NaN, ±Inf and ±0, through the Go
// loops and the kernel alike.
func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 97}
	for _, k := range ks {
		for dim := 0; dim <= 67; dim++ {
			for trial := 0; trial < 6; trial++ {
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
				}
				p := make([]float64, dim)
				for i := range p {
					p[i] = coord()
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
				if trial == 5 && dim > 0 {
					// The same duplicates, with the point and centroid 0
					// poisoned by NaN: centroid 0 keeps the point.
					p[rng.Intn(dim)] = math.NaN()
				}
				checkNearest(t, p, centroids)
			}
		}
	}
}

// FuzzNearest holds the blocked argmin, sqDist4 and sqDistBlocks to the
// scan over raw float bits (checkNearest): the input's 8-byte words are the
// point's coordinates, then each centroid's, cycling when the input runs
// out. k reaches 104, past three four-block passes.
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
	f.Fuzz(func(t *testing.T, k, dim uint8, data []byte) {
		n := 1 + int(k)%104
		d := int(dim) % 68
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
		checkNearest(t, p, centroids)
	})
}

// TestSqDistBlocksRefusesWrongLength: unless out holds whole blocks of
// eight lanes and blk len(out) times the point's dimension, the wrapper
// panics, naming the lengths, and the kernel — which checks no bounds —
// never runs: out keeps what it held.
func TestSqDistBlocksRefusesWrongLength(t *testing.T) {
	for _, c := range []struct{ dim, blk, out int }{
		{3, 23, 8}, {3, 25, 8}, {3, 0, 8}, {0, 8, 8}, {50, 8 * 49, 8}, {1, 1, 8},
		{3, 96, 8}, {3, 24, 32}, {2, 14, 7}, {2, 18, 9}, {0, 0, 4}, {4, 4 * 33, 33}, {1, 0, 1},
	} {
		p, blk := make([]float64, c.dim), make([]float64, c.blk)
		out := make([]float64, c.out)
		for i := range out {
			out[i] = float64(i + 1)
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("sqDistBlocks of %d lanes over %d elements for a point of dimension %d", c.out, c.blk, c.dim)
				if !strings.Contains(msg, want) {
					t.Errorf("dim %d, block %d, lanes %d: panicked with %q, want %q", c.dim, c.blk, c.out, msg, want)
				}
			}()
			sqDistBlocks(p, blk, out)
		}()
		for i, v := range out {
			if v != float64(i+1) {
				t.Errorf("dim %d, block %d, lanes %d: the kernel wrote %v at lane %d", c.dim, c.blk, c.out, v, i)
			}
		}
	}
}

// scalarKMeans is K-Means as it was before its map computed four distances
// a pass: the same centroids and keys, scanNearest for the argmin.
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
	return job
}

// scalarKNN is KNN as it was before its map computed four distances a
// pass: one sqDist a query, in query order.
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

// TestKMeansMatchesScalarTwin: the blocked map assigns every point as the
// scan did, so the means are the twin's to the bit, at centroid counts on
// either side of a block and dimensions on either side of the unrolling.
func TestKMeansMatchesScalarTwin(t *testing.T) {
	for _, k := range []int{1, 3, 4, 7, 64} {
		for _, dim := range []int{1, 2, 5, 50} {
			pts := workload.NewPoints(workload.PointsConfig{Seed: int64(k*100 + dim), PointsPerSplit: 64, Dim: dim})
			name := "k" + strconv.Itoa(k) + "/dim" + strconv.Itoa(dim)
			assertSameBits(t, name, KMeans(3, k, dim, 11), scalarKMeans(3, k, dim, 11), pts.Range(0, 4))
		}
	}
}

// TestKNNMatchesScalarTwin: four queries a pass give each query the
// distances, and so the neighbours, the one-query loop gave.
func TestKNNMatchesScalarTwin(t *testing.T) {
	for _, queries := range []int{0, 1, 3, 4, 9, 16} {
		for _, dim := range []int{1, 2, 5, 50} {
			pts := workload.NewPoints(workload.PointsConfig{Seed: int64(queries*100 + dim), PointsPerSplit: 64, Dim: dim})
			qs := pts.QueryPoints(queries)
			name := "q" + strconv.Itoa(queries) + "/dim" + strconv.Itoa(dim)
			assertSameBits(t, name, KNN(3, 5, qs), scalarKNN(3, 5, qs), pts.Range(0, 4))
		}
	}
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
// benchmark's shape: 64 centroids of 50 dimensions.
func BenchmarkKMeansMap(b *testing.B) {
	benchMap(b, KMeans(1, 64, 50, 7))
}

// BenchmarkKNNMap is KNN's map function in ns a point with 64 queries of
// 50 dimensions: as many distances a point as K-Means at its benchmark
// shape.
func BenchmarkKNNMap(b *testing.B) {
	gen := workload.NewPoints(workload.PointsConfig{Seed: 7, Dim: 50})
	benchMap(b, KNN(1, 8, gen.QueryPoints(64)))
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
