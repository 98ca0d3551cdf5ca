//go:build !amd64

package apps

// distKernel is the Go loops off amd64: there is no kernel, no job lays
// out blocks, and K-Means and KNN run sqDist4 and sqDist.
const distKernel = kernelGo

func sqDistBlocksAVX(p, blk, out []float64) { noKernel() }

func argminBlocksAVX512(p, blk []float64, lanes int) int { noKernel(); return 0 }

func addFloatsAVX512(dst, src []float64) { noKernel() }

func noKernel() { panic("apps: no distance kernel on this architecture") }
