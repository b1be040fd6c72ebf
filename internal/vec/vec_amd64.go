package vec

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
func addLanesAVX(acc, rows []float64, stride, count int)
