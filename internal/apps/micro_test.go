package apps

import (
	"math"
	"math/rand"
	"testing"
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
