//go:build !amd64

package apps

// haveSqDist8 is false off amd64: there is no kernel, no job lays out
// blocks, and K-Means and KNN run the Go loops.
const haveSqDist8 = false

func sqDist8AVX(p, blk []float64, out *[8]float64) {
	panic("apps: sqDist8 has no kernel on this architecture")
}
