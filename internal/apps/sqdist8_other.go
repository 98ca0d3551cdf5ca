//go:build !amd64

package apps

// haveSqDist8 is false off amd64: there is no kernel, no job lays out
// blocks, and K-Means and KNN run the Go loops.
const haveSqDist8 = false

func sqDistBlocksAVX(p, blk, out []float64) {
	panic("apps: sqDistBlocks has no kernel on this architecture")
}
