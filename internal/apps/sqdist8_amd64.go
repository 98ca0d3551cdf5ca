package apps

// haveSqDist8 says whether this CPU runs sqDistBlocks' AVX kernel: it has AVX
// (CPUID leaf 1, ECX bit 28) and the operating system saves the YMM
// registers across context switches (OSXSAVE, ECX bit 27, and XCR0's SSE
// and AVX state bits). Decided once, at start-up.
var haveSqDist8 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	return xgetbv0()&xmmYmm == xmmYmm
}()

// sqDistBlocksAVX is the kernel behind sqDistBlocks (sqdist8_amd64.s). It
// reads len(p) elements of p and len(out)*len(p) of blk, and writes
// len(out) of out, unchecked.
//
//go:noescape
func sqDistBlocksAVX(p, blk, out []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
