package apps

import (
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
