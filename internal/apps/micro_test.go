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

// TestSqDistMatchesIndexOrderSum: the unrolled loop adds in index order,
// so it agrees with the plain loop to the last bit at every length on
// either side of the unrolling step.
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
			want += diff * diff
		}
		if got := sqDist(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("len %d: sqDist = %v, index-order sum = %v", n, got, want)
		}
	}
}

// TestKMeansMapAllocs pins what K-Means' map function allocates per point:
// the accumulator and its copy of the point, two allocations. The key names
// the nearest centroid with a string the job built once, so a point costs
// no key of its own (it cost a third allocation while the key was
// concatenated per point), and the keys read as before.
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
	if allocs != 2 {
		t.Fatalf("the map function allocates %.1f times per point, want 2 (accumulator, point copy)", allocs)
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

// checkNearest holds nearest to scanNearest on one point and every block of
// four centroids' sqDist4 lanes to sqDist, in bits (sameFloat).
func checkNearest(t *testing.T, p []float64, centroids [][]float64) {
	t.Helper()
	if got, want := nearest(p, centroids), scanNearest(p, centroids); got != want {
		t.Fatalf("k %d, dim %d: nearest = %d, the scan finds %d (p %v)", len(centroids), len(p), got, want, p)
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
}

// TestNearestMatchesScan: the blocked argmin picks the scan's centroid —
// ties to the lowest index, NaN distances never winning, a NaN at
// centroid 0 keeping it — at every block tail, over random coordinates,
// duplicated centroids and coordinates drawn from NaN, ±Inf and ±0.
func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
	for _, k := range ks {
		for dim := 0; dim <= 51; dim++ {
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

// FuzzNearest holds the blocked argmin and sqDist4 to the scan over raw
// float bits: the input's 8-byte words are the point's coordinates, then
// each centroid's, cycling when the input runs out.
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
		n := 1 + int(k)%70
		d := int(dim) % 60
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

// TestKNNMapAllocs pins what KNN's map function allocates per point: a
// neighbour list and its one-element slice per query. The keys are built
// once, by the job (a point cost a third allocation a query while each key
// was concatenated), and read as before.
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
	if allocs != 2*queries {
		t.Fatalf("the map function allocates %.1f times per point, want %d (2 a query)", allocs, 2*queries)
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
