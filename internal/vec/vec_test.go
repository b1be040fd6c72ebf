package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values floating point treats specially: signed zeros,
// infinities, NaN, denormals and the largest finite magnitudes.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -2.5e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// draw returns a value from raw bits two times in three, else a special.
func draw(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return math.Float64frombits(rng.Uint64())
}

func fill(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = draw(rng)
	}
	return v
}

// requireBitEqual compares two arenas bit for bit, except that any two
// NaNs are equal: which operand's payload a NaN result carries is the one
// thing the kernels do not pin.
func requireBitEqual(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
			t.Fatalf("%s: float %d: portable %v (%#x), avx %v (%#x)",
				what, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// TestLaneKernelsMatchPortable runs every AVX lane kernel, at each width
// the CPU has (8 and 4 lanes per instruction with AVX-512F, 4 with AVX),
// against its Go loop on the same arena: n = 0 … 37 lanes (every remainder
// of the 8- and 4-lane loops) with rows starting at eight consecutive float
// offsets (every alignment of a 64-byte vector), on values from raw bits and
// on the specials. The whole arena must match, so a kernel that writes past
// its lanes fails too.
func TestLaneKernelsMatchPortable(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this CPU")
	}
	rng := rand.New(rand.NewSource(40))
	const stride = 45 // every row holds 37 lanes from any of the offsets
	for n := 0; n <= 37; n++ {
		for off := 0; off < 8; off++ {
			row := func(r int) int32 { return int32(off + r*stride) }
			arena := fill(rng, 16*stride)
			check := func(what string, kernel func(vals []float64, avx bool)) {
				t.Helper()
				want := append([]float64(nil), arena...)
				kernel(want, false)
				for _, im := range impls() {
					if im.lanes == 1 {
						continue
					}
					got := append([]float64(nil), arena...)
					restore := im.use()
					kernel(got, true)
					restore()
					requireBitEqual(t, fmt.Sprintf("%s %s n=%d offset=%d", what, im.name, n, off), want, got)
				}
			}

			for op := Add; op <= Less; op++ {
				prog := []Instr{{Op: op, D: row(0), A: row(1), B: row(2), C: row(3), E: row(4)}}
				check(fmt.Sprintf("op %d", op), func(vals []float64, avx bool) {
					if avx {
						runAVX(vals, prog, n)
					} else {
						runGo(vals, prog, n)
					}
				})
			}
			// A chain, each instruction reading its predecessor's row.
			var chain []Instr
			for i, op := range []Op{MulMulAdd, Sub, AddMul, Less, Mul, MulAdd, Select, Add, Sub} {
				chain = append(chain, Instr{Op: op, D: row(5 + i%3), A: row(4 + i%3), B: row(1), C: row(2), E: row(3)})
			}
			check("chain", func(vals []float64, avx bool) {
				if avx {
					runAVX(vals, chain, n)
				} else {
					runGo(vals, chain, n)
				}
			})

			tail := []Product{{M: row(0), A: row(2), B: row(3)}, {M: row(1), A: row(3), B: row(4)}, {M: row(0), A: row(4), B: row(2)}}
			for _, lr := range []float64{0.05, 1, -3, draw(rng), math.NaN(), math.Inf(1)} {
				check(fmt.Sprintf("step lr=%v", lr), func(vals []float64, avx bool) {
					if avx {
						stepAVX(vals, tail, n, lr)
					} else {
						stepGo(vals, tail, n, lr)
					}
				})
			}
			shift := 5 * stride
			check("sum", func(vals []float64, avx bool) {
				if avx {
					sumAVX(vals, tail, shift, n)
				} else {
					sumGo(vals, tail, shift, n)
				}
			})
			check("prod", func(vals []float64, avx bool) {
				if avx {
					prodAVX(vals, tail, shift, n)
				} else {
					prodGo(vals, tail, shift, n)
				}
			})

			// Broadcast n rows of width w, and w rows of width n, from off.
			src := fill(rng, 8)
			for _, shape := range [][2]int{{n, 5}, {5, n}} {
				words, w := shape[0], shape[1]
				check(fmt.Sprintf("broadcast %d×%d", words, w), func(vals []float64, avx bool) {
					dst, s := vals[off:], src[:min(words, len(src))]
					if avx {
						broadcastAVX(dst, s, w)
					} else {
						broadcastGo(dst, s, w)
					}
				})
			}

			// n words of count lanes each (every word and lane remainder),
			// rows stride 3…6 floats past count, into accumulators that
			// already hold values.
			for count := 0; count <= min(n, 9); count++ {
				rstride := count + 3 + count%4
				check(fmt.Sprintf("add lanes count=%d", count), func(vals []float64, avx bool) {
					acc, rows := vals[:n], vals[stride+off:]
					if avx {
						addLanesAVX(acc, rows, rstride, count)
					} else {
						addLanesGo(acc, rows, rstride, count)
					}
				})
			}
		}
	}
	// The 4×4 transposes at a node's width: 32 lanes, words past sixteen.
	for _, words := range []int{16, 17, 36, 52} {
		arena := fill(rng, words*32+40)
		want, got := append([]float64(nil), arena...), append([]float64(nil), arena...)
		addLanesGo(want[:words], want[40:], 32, 32)
		addLanesAVX(got[:words], got[40:], 32, 32)
		requireBitEqual(t, fmt.Sprintf("add lanes %d words × 32 lanes", words), want, got)
	}
}

// TestRowKernelsMatchPortable runs every row kernel, under each
// destination, against its Go loop: n = 0 … 37 words with the rows starting
// at four consecutive float offsets, on values from raw bits and on the
// specials, with scalars that are specials too, and in place, dst being y or
// x. The whole arena must match, so a kernel that writes past its words
// fails too.
func TestRowKernelsMatchPortable(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this CPU")
	}
	rng := rand.New(rand.NewSource(46))
	const stride = 41
	scalars := append([]float64{0.05, -3}, specials...)
	for n := 0; n <= 37; n++ {
		for off := 0; off < 4; off++ {
			row := func(arena []float64, r int) []float64 { return arena[off+r*stride:][:n] }
			arena := fill(rng, 4*stride)
			a, e := scalars[rng.Intn(len(scalars))], scalars[rng.Intn(len(scalars))]
			if rng.Intn(2) == 0 {
				a, e = draw(rng), draw(rng)
			}
			check := func(what string, kernel func(vals []float64, avx bool)) {
				t.Helper()
				want, got := append([]float64(nil), arena...), append([]float64(nil), arena...)
				kernel(want, false)
				kernel(got, true)
				requireBitEqual(t, fmt.Sprintf("%s n=%d offset=%d a=%v e=%v", what, n, off, a, e), want, got)
			}
			// dst is row 0, or in place row 1 (y) or row 2 (x).
			for _, dr := range []int{0, 1, 2} {
				for d := Set; d <= Acc; d++ {
					check(fmt.Sprintf("scale d=%d dst=row %d", d, dr), func(vals []float64, avx bool) {
						dst, x := row(vals, dr), row(vals, 2)
						if avx {
							scaleAVX(dst, x, a, d)
						} else {
							scaleGo(dst, x, a, d)
						}
					})
					check(fmt.Sprintf("step d=%d dst=row %d", d, dr), func(vals []float64, avx bool) {
						dst, y, x := row(vals, dr), row(vals, 1), row(vals, 2)
						if avx {
							stepRowAVX(dst, y, x, a, e, d)
						} else {
							stepRowGo(dst, y, x, a, e, d)
						}
					})
				}
			}
		}
	}
}

// TestTransposeMatches pins the bind's transpose on the kernels in use and,
// where those are the AVX ones, on the Go loop: 0 … 9 lanes (every lane
// remainder past a quad) of 0 … 9 words (every word remainder), each source
// a sub-slice at an odd offset read from word 0, 1 or 3, into rows as wide
// as the lanes or wider. Every float written must be its source's bits —
// NaN payloads included, since a move changes none — and every other float
// of the destination must keep its bits.
func TestTransposeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	impls := []bool{false}
	if haveAVX {
		impls = append(impls, true)
	}
	for _, on := range impls {
		restore := SetAccelerated(on)
		for lanes := 0; lanes <= 9; lanes++ {
			for count := 0; count <= 9; count++ {
				for _, w := range []int{lanes, lanes + 3} {
					off := []int{0, 1, 3}[(lanes+count)%3]
					src := make([][]float64, lanes)
					for l := range src {
						src[l] = fill(rng, 2*l+off+count+4)[2*l+1:]
					}
					const start = 3
					all := fill(rng, start+count*w+5)
					want := append([]float64(nil), all...)
					for l, s := range src {
						for j := 0; j < count; j++ {
							want[start+j*w+l] = s[off+j]
						}
					}
					Transpose(all[start:], w, src, off, count)
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(all[i]) {
							t.Fatalf("accelerated=%v %d lanes × %d words, w=%d, off=%d: float %d is %#x, want %#x",
								Accelerated(), lanes, count, w, off, i, math.Float64bits(all[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
		restore()
	}
}

// TestAddLanesAddsInOrder pins the reduce's order: each word adds its lanes
// one at a time from the first, so a later lane cannot cancel an earlier
// one's overflow.
func TestAddLanesAddsInOrder(t *testing.T) {
	for _, on := range []bool{false, true} {
		restore := SetAccelerated(on)
		// Lane order overflows to +Inf; any other grouping of the lanes
		// would let the −MaxFloat64 cancel first.
		rows := make([]float64, 4*8)
		for e := 0; e < 4; e++ {
			copy(rows[e*8:], []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 1, 2, 3, 4, 5})
		}
		acc := make([]float64, 4)
		AddLanes(acc, rows, 8, 8)
		for e, v := range acc {
			if !math.IsInf(v, 1) {
				t.Errorf("accelerated=%v word %d: %v, want +Inf", Accelerated(), e, v)
			}
		}
		restore()
	}
}

// TestAverageIntoMatchesDivision pins the average to v / weight bit for
// bit: the power-of-two weights take the reciprocal multiply, the others
// divide. The weights include a simulated node's thread counts.
func TestAverageIntoMatchesDivision(t *testing.T) {
	vals := append([]float64(nil), specials...)
	vals = append(vals, math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	out := make([]float64, len(vals))
	for _, on := range []bool{false, true} {
		restore := SetAccelerated(on)
		for _, w := range []float64{1, 2, 3, 4, 5, 8, 16, 32} {
			AverageInto(out, vals, w)
			for i, v := range vals {
				if want := v / w; math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("accelerated=%v weight %g: %v (%#x) averaged to %#x, want %#x",
						Accelerated(), w, v, math.Float64bits(v), math.Float64bits(out[i]), math.Float64bits(want))
				}
			}
		}
		restore()
	}
}

// TestKernelsRefuseRowsOutside: the kernels that check their rows panic
// before they read or write outside them.
func TestKernelsRefuseRowsOutside(t *testing.T) {
	for name, call := range map[string]func(){
		"broadcast":        func() { Broadcast(make([]float64, 7), make([]float64, 2), 4) },
		"add lanes rows":   func() { AddLanes(make([]float64, 2), make([]float64, 7), 4, 4) },
		"add lanes stride": func() { AddLanes(make([]float64, 1), make([]float64, 8), 4, 5) },
		"transpose width":  func() { Transpose(make([]float64, 16), 2, make([][]float64, 3), 0, 0) },
		"transpose rows":   func() { Transpose(make([]float64, 5), 4, [][]float64{{1, 2}, {3, 4}}, 0, 2) },
		"transpose source": func() { Transpose(make([]float64, 16), 4, [][]float64{{1, 2}, {3}}, 0, 2) },
		"transpose offset": func() { Transpose(make([]float64, 16), 4, [][]float64{{1, 2}}, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkRowKernels reports ns per word of the row kernels, under each
// destination, at a `tiny` model's width (200 words), a Sigma chunk's (4 096)
// and a `wide` model's (65 535); AVX and portable.
func BenchmarkRowKernels(b *testing.B) {
	kernels := []struct {
		name string
		run  func(dst, y, x []float64)
	}{
		{"scale-set", func(dst, _, x []float64) { ScaleRow(dst, x, 0.5, Set) }},
		{"scale-init", func(dst, _, x []float64) { ScaleRow(dst, x, 0.5, Init) }},
		{"scale-acc", func(dst, _, x []float64) { ScaleRow(dst, x, 0.5, Acc) }},
		{"step-set", func(dst, y, x []float64) { StepRow(dst, y, x, -0.01, 0.3, Set) }},
		{"step-init", func(dst, y, x []float64) { StepRow(dst, y, x, -0.01, 0.3, Init) }},
		{"step-acc", func(dst, y, x []float64) { StepRow(dst, y, x, -0.01, 0.3, Acc) }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{200, 4096, 65535} {
		dst, y, x := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			y[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, k := range kernels {
			for _, on := range []bool{true, false} {
				if on && !haveAVX {
					continue
				}
				name := "portable"
				if on {
					name = "avx"
				}
				b.Run(fmt.Sprintf("%s/%d/%s", k.name, n, name), func(b *testing.B) {
					defer SetAccelerated(on)()
					for i := 0; i < b.N; i++ {
						k.run(dst, y, x)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/word")
				})
			}
		}
	}
}
