package apps

// distKernel is the widest kernel this CPU runs, decided once, at
// start-up:
//
//   - kernelAVX512 where it has AVX-512F (CPUID leaf 7, EBX bit 16) and the
//     operating system saves the ZMM registers and the opmask registers
//     across context switches (XCR0 bits 5, 6 and 7), besides what AVX
//     needs;
//   - kernelAVX where it has AVX (CPUID leaf 1, ECX bit 28) and the
//     operating system saves the YMM registers (OSXSAVE, ECX bit 27, and
//     XCR0's SSE and AVX state, bits 1 and 2);
//   - kernelGo otherwise.
var distKernel = func() kernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return kernelGo
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return kernelGo
	}
	xcr0 := xgetbv0()
	const xmmYmm = 1<<1 | 1<<2
	if xcr0&xmmYmm != xmmYmm {
		return kernelGo
	}
	if maxLeaf < 7 {
		return kernelAVX
	}
	const avx512f = 1 << 16
	const opmaskZmm = 1<<5 | 1<<6 | 1<<7
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 || xcr0&opmaskZmm != opmaskZmm {
		return kernelAVX
	}
	return kernelAVX512
}()

// The kernels behind sqDistBlocks, argminBlocks and addFloats
// (sqdist_avx_amd64.s, sqdist_avx512_amd64.s). They read and write what
// their wrappers checked, unchecked.

//go:noescape
func sqDistBlocksAVX(p, blk, out []float64)

//go:noescape
func argminBlocksAVX512(p, blk []float64, lanes int) (best int)

//go:noescape
func addFloatsAVX512(dst, src []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
