package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reduceTree is the DFG translator's reduceTree, transcribed over floats:
// fold the top half of the power-of-two prefix onto the bottom half, level
// by level, and add the rest, reduced the same way, at the root. It
// overwrites p.
func reduceTree(p []float64) float64 {
	n := len(p)
	if n == 1 {
		return p[0]
	}
	k := 1
	for k*2 <= n {
		k *= 2
	}
	for half := k / 2; half > 0; half /= 2 {
		for i := 0; i < half; i++ {
			p[i] = p[i] + p[i+half]
		}
	}
	if k == n {
		return p[0]
	}
	return p[0] + reduceTree(p[k:])
}

// wantDot is Dot by definition: the rounded products through reduceTree.
func wantDot(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	p := make([]float64, len(a))
	for i := range p {
		p[i] = float64(a[i] * b[i])
	}
	return reduceTree(p)
}

// dotInputs are the vectors a test Dot runs on: finite values over a wide
// range of magnitudes, whose sums round differently in every other order;
// the same with a sprinkling of specials; and values from raw bits mixed
// with specials, as the other kernels' tests draw them.
var dotInputs = []struct {
	name string
	draw func(*rand.Rand) float64
}{
	{"finite", func(rng *rand.Rand) float64 { return math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20) }},
	{"sprinkled", func(rng *rand.Rand) float64 {
		if rng.Intn(64) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
	}},
	{"bits", draw},
}

// TestDotMatchesReduceTree pins Dot, on the AVX kernel and on its Go twin,
// to reduceTree over the rounded products, bit for bit (NaN payloads
// aside): every n up to 300 (every power-of-two split of the packed passes
// and of the remainder), both sides of 4 096 and of 65 536, with rows
// starting at four consecutive float offsets, on each input family. A
// single product keeps its sign, −0 included, and an empty sum is +0.
func TestDotMatchesReduceTree(t *testing.T) {
	sizes := []int{4095, 4096, 4097, 65535, 65536}
	for n := 0; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, on := range []bool{true, false} {
		if on && !haveAVX {
			continue
		}
		restore := SetAccelerated(on)
		if got := Dot([]float64{-1}, []float64{0}); !math.Signbit(got) || got != 0 {
			t.Errorf("accelerated=%v: Dot([-1], [0]) = %v, want -0", Accelerated(), got)
		}
		if got := Dot(nil, nil); math.Signbit(got) || got != 0 {
			t.Errorf("accelerated=%v: Dot of nothing = %v, want +0", Accelerated(), got)
		}
		rng := rand.New(rand.NewSource(48))
		for _, in := range dotInputs {
			for _, n := range sizes {
				for off := 0; off < 4; off++ {
					a, b := make([]float64, off+n), make([]float64, off+n)
					for i := off; i < off+n; i++ {
						a[i], b[i] = in.draw(rng), in.draw(rng)
					}
					want := wantDot(a[off:], b[off:])
					got := Dot(a[off:], b[off:])
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("accelerated=%v %s n=%d offset %d: Dot = %v (%#x), reduce tree %v (%#x)",
							Accelerated(), in.name, n, off, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
		restore()
	}
}

// TestDotAllocatesNothing: once warm, a Dot long enough to take its work
// space from the free list allocates nothing.
func TestDotAllocatesNothing(t *testing.T) {
	a := make([]float64, 65535)
	if allocs := testing.AllocsPerRun(10, func() { Dot(a, a) }); allocs != 0 {
		t.Errorf("Dot allocates %v times per call", allocs)
	}
}

// dotSink keeps BenchmarkDot's calls live.
var dotSink float64

// BenchmarkDot reports ns per word of Dot at a `tiny` model's width (200
// words), an odd mid size (1 599) and a `wide` model's (65 535): on hot
// rows, read again every call, and on rows streamed from an 8 MB arena,
// each call taking the next two rows; AVX and portable.
func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arena := make([]float64, 1<<20)
	for i := range arena {
		arena[i] = rng.NormFloat64()
	}
	for _, n := range []int{200, 1599, 65535} {
		for _, streamed := range []bool{false, true} {
			for _, on := range []bool{true, false} {
				if on && !haveAVX {
					continue
				}
				name := "portable"
				if on {
					name = "avx"
				}
				rows := "hot"
				if streamed {
					rows = "streamed"
				}
				b.Run(fmt.Sprintf("%d/%s/%s", n, rows, name), func(b *testing.B) {
					defer SetAccelerated(on)()
					off := 0
					for i := 0; i < b.N; i++ {
						if streamed {
							if off += 2 * n; off+2*n > len(arena) {
								off = 0
							}
						}
						dotSink = Dot(arena[off:off+n], arena[off+n:off+2*n])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/word")
				})
			}
		}
	}
}
