//go:build !amd64

package vec

// haveAVX, haveAVX512, haveFMA and haveExp are false: the AVX kernels
// exist on amd64 only, and avx never selects the stubs below.
const haveAVX, haveAVX512, haveFMA, haveExp = false, false, false, false

func runAVX(vals []float64, prog []Instr, n int)                { panic("vec: no AVX kernels") }
func stepAVX(vals []float64, tail []Product, n int, lr float64) { panic("vec: no AVX kernels") }
func sumAVX(vals []float64, tail []Product, shift, n int)       { panic("vec: no AVX kernels") }
func prodAVX(vals []float64, tail []Product, shift, n int)      { panic("vec: no AVX kernels") }
func broadcastAVX(dst, src []float64, w int)                    { panic("vec: no AVX kernels") }
func addLanesAVX(acc, rows []float64, stride, count int)        { panic("vec: no AVX kernels") }
func expAVX(dst, src []float64, form expForm) (done, out int)   { panic("vec: no AVX kernels") }
func scaleAVX(dst, x []float64, a float64, d Dest)              { panic("vec: no AVX kernels") }
func treeAVX(t, a, b []float64) float64                         { panic("vec: no AVX kernels") }

func stepRowAVX(dst, y, x []float64, a, e float64, d Dest) {
	panic("vec: no AVX kernels")
}

func transposeAVX(dst []float64, w int, src [][]float64, off, count int) {
	panic("vec: no AVX kernels")
}
