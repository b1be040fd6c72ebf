package vec

import "math"

// haveAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches: CPUID.1:ECX.OSXSAVE and .AVX, and
// XCR0's SSE and AVX state bits.
var haveAVX = func() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}()

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
	probe := [4]float64{0.375, 2.375, -2.375, 3.625}
	var got [4]float64
	if done, out := expAVX(got[:], probe[:], formExp); done != 4 || out != 0 {
		return false
	}
	for l, x := range probe {
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
