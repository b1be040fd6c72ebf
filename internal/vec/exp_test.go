package vec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expInputs returns the inputs TestExpMatchesMath runs: the specials, the
// edges of math.Exp's branches (overflow above 709.78… and, on amd64, from
// k = 1024 at 709.44…; denormal results below −708.39…; zero below
// −745.13…) with their neighbours, a dense sweep of [−746, 710], and values
// from raw bits.
func expInputs() []float64 {
	xs := append([]float64(nil), specials...)
	for _, edge := range []float64{
		7.09782712893384e+02, 709.436, 709.0896, -708.3964185322641, -708.39, -709.08956571282405,
		-745.1332191019411, -745.13321910194122, -744.44007192138122, -720, -740,
	} {
		b := math.Float64bits(edge)
		for d := uint64(0); d < 4; d++ {
			xs = append(xs, math.Float64frombits(b+d), math.Float64frombits(b-d))
		}
	}
	for x := -746.0; x <= 710; x += 0.00731 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
		xs = append(xs, (rng.Float64()*2-1)*800, (rng.Float64()*2-1)*30)
	}
	return xs
}

// kernelForms are the three exp kernels with the scalar expression each
// computes lane by lane.
var kernelForms = []struct {
	name   string
	kernel func(dst, src []float64)
	scalar func(x float64) float64
}{
	{"exp", Exp, math.Exp},
	{"sigmoid", Sigmoid, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"gaussian", NegSquareExp, func(x float64) float64 { return math.Exp(-(x * x)) }},
}

// TestExpMatchesMath runs every exp kernel — the Go loop and, where
// math.Exp takes the FMA branch it ports, the AVX kernel at each width the
// CPU has — on rows of 0 … 37 lanes cut from expInputs. Every lane must be the scalar
// expression's bits over math.Exp, and lanes past the row stay untouched.
func TestExpMatchesMath(t *testing.T) {
	if haveExp {
		t.Log("exp kernels: packed")
	} else {
		t.Log("exp kernels: portable")
		// With no GODEBUG cpu setting, math.Exp takes its FMA branch on a
		// CPU with AVX and FMA, so the kernel failed its probe.
		if haveFMA && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
			t.Fatal("the AVX exp kernel disagrees with math.Exp on its probe inputs")
		}
	}
	xs := expInputs()
	for _, im := range impls() {
		if im.lanes > 1 && !haveExp {
			continue
		}
		restore := im.use()
		for _, f := range kernelForms {
			name := fmt.Sprintf("%s %s", f.name, im.name)
			dst := make([]float64, 40)
			for start := 0; start < len(xs); {
				for n := 0; n <= 37 && start < len(xs); n++ {
					src := xs[start:min(start+n, len(xs))]
					for i := range dst {
						dst[i] = 12345
					}
					f.kernel(dst, src)
					for l, x := range src {
						if w := f.scalar(x); math.Float64bits(dst[l]) != math.Float64bits(w) {
							t.Fatalf("%s: lane %d of %d: %v (%#x) gave %v (%#x), want %v (%#x)",
								name, l, len(src), x, math.Float64bits(x),
								dst[l], math.Float64bits(dst[l]), w, math.Float64bits(w))
						}
					}
					for l := len(src); l < len(dst); l++ {
						if dst[l] != 12345 {
							t.Fatalf("%s: %d lanes wrote lane %d", name, len(src), l)
						}
					}
					start += len(src)
				}
			}
			// In place: dst is src.
			row := append([]float64(nil), xs[:37]...)
			f.kernel(row, row)
			for l, x := range xs[:37] {
				if w := f.scalar(x); math.Float64bits(row[l]) != math.Float64bits(w) {
					t.Fatalf("%s in place: lane %d: %v gave %v, want %v", name, l, x, row[l], w)
				}
			}
		}
		restore()
	}
}

// TestExpFollowsMathBranch reruns TestExpMatchesMath with math.Exp forced
// onto its plain branch by GODEBUG, on a CPU where the AVX kernel is in use
// by default. The probe must then leave the kernel off, and every lane
// must still be math.Exp's.
func TestExpFollowsMathBranch(t *testing.T) {
	if !haveExp {
		t.Skip("the AVX exp kernel is not in use on this CPU")
	}
	if testing.Short() {
		t.Skip("runs the test binary again")
	}
	for _, godebug := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpMatchesMath$", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", godebug, err, out)
		}
		if !strings.Contains(string(out), "exp kernels: portable") {
			t.Fatalf("GODEBUG=%s: the AVX exp kernel stayed on\n%s", godebug, out)
		}
	}
}

// BenchmarkExp reports ns per lane of the exp kernels at a node's row
// width, 32 lanes, on arguments a sigmoid layer sees; at each width the CPU
// has and portable.
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]float64, 32), make([]float64, 32)
	for i := range src {
		src[i] = rng.NormFloat64() * 4
	}
	for _, im := range impls() {
		if im.lanes > 1 && !haveExp {
			continue
		}
		for _, f := range kernelForms[:2] {
			b.Run(fmt.Sprintf("%s/%s", f.name, im.name), func(b *testing.B) {
				defer im.use()()
				for i := 0; i < b.N; i++ {
					f.kernel(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/lane")
			})
		}
	}
}
