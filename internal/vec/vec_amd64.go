package vec

import "math"

// cpuWidth is the lanes per instruction of the widest kernels the CPU and
// the OS allow, 8, 4, or 0 for the Go loops, from CPUID's largest standard
// leaf, leaf 1's ECX, leaf 7's EBX (subleaf 0) and XCR0. AVX needs OSXSAVE
// and AVX in leaf 1 and XCR0's SSE and AVX state bits (1, 2); AVX-512F
// needs leaf 7's bit 16 besides, and XCR0's opmask, ZMM_Hi256 and
// Hi16_ZMM state bits (5–7), without which the OS does not save those
// registers across a context switch.
func cpuWidth(maxLeaf, ecx1, ebx7, xcr0 uint32) int {
	const osxsave, avx, avx512f = 1 << 27, 1 << 28, 1 << 16
	const sseAVX, zmmState = 0x6, 0xe0
	switch {
	case maxLeaf < 1 || ecx1&osxsave == 0 || ecx1&avx == 0 || xcr0&sseAVX != sseAVX:
		return 0
	case maxLeaf < 7 || ebx7&avx512f == 0 || xcr0&zmmState != zmmState:
		return 4
	}
	return 8
}

// width is cpuWidth of this CPU. XGETBV faults unless OSXSAVE is set, and
// a leaf past the largest reads another leaf's words, so each word is read
// only where the ones before it allow.
var width = func() int {
	maxLeaf, _, _, _ := cpuid(0, 0)
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf >= 1 {
		_, _, ecx1, _ = cpuid(1, 0)
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbv()
	}
	return cpuWidth(maxLeaf, ecx1, ebx7, xcr0)
}()

// haveAVX reports whether the CPU has AVX and the OS saves the YMM
// registers; haveAVX512 whether it has AVX-512F and the OS saves the ZMM
// and opmask registers too.
var haveAVX, haveAVX512 = width >= 4, width == 8

// haveFMA reports whether the CPU has FMA besides AVX (CPUID.1:ECX.FMA),
// which the exp kernel needs.
var haveFMA = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return haveAVX && ecx&(1<<12) != 0
}()

// haveExp reports whether expAVX returns math.Exp's bits here: the kernel
// ports math.Exp's FMA branch, which math takes by internal/cpu's flags,
// and GODEBUG's cpu.fma=off or cpu.avx=off overrides those. So the choice
// is read from math.Exp itself: on each probe input its two branches differ
// in the last bit, and the kernel must give math.Exp's bits on all four.
var haveExp = haveFMA && func() bool {
	probe := [8]float64{0.375, 2.375, -2.375, 3.625, 0.375, 2.375, -2.375, 3.625}
	var got [8]float64
	g := expGroup()
	if done, out := expAVX(got[:g], probe[:g], formExp); done != g || out != 0 {
		return false
	}
	for l, x := range probe[:g] {
		if math.Float64bits(got[l]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func runAVX(vals []float64, prog []Instr, n int)

//go:noescape
func stepAVX(vals []float64, tail []Product, n int, lr float64)

//go:noescape
func sumAVX(vals []float64, tail []Product, shift, n int)

//go:noescape
func prodAVX(vals []float64, tail []Product, shift, n int)

//go:noescape
func broadcastAVX(dst, src []float64, w int)

//go:noescape
func transposeAVX(dst []float64, w int, src [][]float64, off, count int)

//go:noescape
func addLanesAVX(acc, rows []float64, stride, count int)

//go:noescape
func scaleAVX(dst, x []float64, a float64, d Dest)

//go:noescape
func stepRowAVX(dst, y, x []float64, a, e float64, d Dest)

//go:noescape
func expAVX(dst, src []float64, form expForm) (done, out int)

//go:noescape
func treeAVX(t, a, b []float64) float64
