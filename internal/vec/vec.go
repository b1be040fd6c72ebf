// Package vec holds the packed float64 kernels of the simulated node and of
// the host trainer. For the node: the lane program's arithmetic, compare and
// select, its exp-based nonlinears, its update tail, the model broadcast,
// the data bind's transpose and the cross-thread reduce. For the trainer and
// the Sigma: the row kernels, ScaleRow (AXPY, Scale, the fold, the master's
// apply), StepRow (the rank-1 SGD step) and AverageInto, and Dot, the
// reference trainer's one Σ of products. Each is a loop over contiguous
// floats. On amd64 CPUs with AVX they run in assembly, four lanes per
// instruction, and Run, Step, Sum, Prod, Broadcast and the exp kernels
// eight with AVX-512F; everywhere else they are the Go loops in this file.
// The CPU alone picks the width, once, at init.
//
// Dot adds in the order of the accelerator's reduce tree, which the DFG
// translator builds for every Σ: the power-of-two prefix of the terms folds
// by halving (term i with term i+h, for h = k/2 down to 1) and the rest,
// reduced the same way, is added at the root. So the reference trainer's
// sums are the simulated accelerator's, bit for bit.
//
// No bit moves between the implementations. A packed VMULPD, VADDPD,
// VSUBPD or VDIVPD, on YMM or ZMM registers, rounds each element exactly as
// the scalar MULSD, ADDSD, SUBSD or DIVSD the Go compiler emits for the
// same expression; no product is ever contracted with the add or subtract
// that follows it (no FMA, in any implementation), except inside Exp,
// Sigmoid and NegSquareExp, which run packed only where math.Exp takes its
// FMA branch and contract exactly where that branch does; every kernel
// applies its operands in the Go expression's order; and all run under the
// MXCSR the Go runtime keeps (round to nearest, no flush to zero). Select,
// Less and Transpose only compare and move floats. Only a NaN's payload may
// differ, where two NaNs meet, as it may between Go builds: IEEE 754 leaves
// that choice open. Within that allowance two identities let one row
// kernel serve several ops: y + v is y + 1·v, and y − s·v is y + (−s)·v,
// since a rounded product negates exactly.
//
// The kernels that take offsets into an arena (Run, Step, Sum and Prod)
// trust them: every row they name must lie inside the arena for the lanes
// they run. The caller checks that once, when it builds the program, and on
// every call that n stays within the rows' width.
package vec

import (
	"math"
	"math/bits"
	"sync"
)

// Op is a packed instruction's arithmetic.
type Op int32

// The packed instructions. A product is rounded before the add that reads
// it, as its own instruction would be.
const (
	Add       Op = iota // d = a + b
	Sub                 // d = a − b
	Mul                 // d = a · b
	MulAdd              // d = a·b + c
	AddMul              // d = a + b·c
	MulMulAdd           // d = a·b + c·e
	Select              // d = b if a ≠ 0 (NaN included), else c
	Less                // d = 1 if a < b (false on NaN), else +0
)

// Instr is one packed instruction. Its operands are offsets into the arena,
// each the first of the lanes' consecutive floats; the ones its op does not
// read are ignored.
type Instr struct {
	Op            Op
	D, A, B, C, E int32
}

// Product is one row of an update tail: the product of the rows at A and B
// steps or lands in the row at M (plus a shift).
type Product struct{ M, A, B int32 }

// avx selects the assembly kernels; it is false on a CPU or OS without AVX
// and on every other GOARCH.
var avx = haveAVX

// zmm turns on the lane kernels' 8-lane loops, on a CPU and OS with
// AVX-512F: the CPU alone sets it. The 4-lane and scalar loops take the
// lanes past the last multiple of eight, and all of them without it.
var zmm = haveAVX512

// Accelerated reports whether the AVX kernels are in use.
func Accelerated() bool { return avx }

// SetAccelerated turns the AVX kernels on or off, so a test can run both
// implementations, and returns a func that restores the previous choice.
// Turning them on has no effect where they cannot run. It must not race
// with a kernel call.
func SetAccelerated(on bool) (restore func()) {
	prev := avx
	avx = on && haveAVX
	return func() { avx = prev }
}

// Run executes prog in order on lanes [0, n) of vals.
func Run(vals []float64, prog []Instr, n int) {
	if avx {
		runAVX(vals, prog, n)
		return
	}
	runGo(vals, prog, n)
}

// Step applies the SGD step m ← m − lr·(a·b) of every tail row to lanes
// [0, n).
func Step(vals []float64, tail []Product, n int, lr float64) {
	if avx {
		stepAVX(vals, tail, n, lr)
		return
	}
	stepGo(vals, tail, n, lr)
}

// Sum adds every tail row's product a·b to the row shift floats past M, in
// lanes [0, n).
func Sum(vals []float64, tail []Product, shift, n int) {
	if avx {
		sumAVX(vals, tail, shift, n)
		return
	}
	sumGo(vals, tail, shift, n)
}

// Prod writes every tail row's product a·b to the row shift floats past M,
// in lanes [0, n).
func Prod(vals []float64, tail []Product, shift, n int) {
	if avx {
		prodAVX(vals, tail, shift, n)
		return
	}
	prodGo(vals, tail, shift, n)
}

// Transpose writes count words of every source, from src[l][off] on, down
// column l of dst: src[l][off+j] to dst[j·w+l], for every lane l of src and
// word j < count. Each source is one lane's vector, and each row of dst, w
// floats apart, one word of every lane: the data bind of a lane arena. It
// panics unless every source holds its words and the columns fit in dst
// side by side.
func Transpose(dst []float64, w int, src [][]float64, off, count int) {
	if off < 0 || count < 0 || len(src) > w || count > 0 && len(src) > 0 && (count-1)*w+len(src) > len(dst) {
		panic("vec: transpose columns outside the destination")
	}
	for _, s := range src {
		if len(s)-off < count {
			panic("vec: transpose source shorter than its words")
		}
	}
	if avx {
		transposeAVX(dst, w, src, off, count)
		return
	}
	transposeGo(dst, w, src, off, count)
}

// expForm is the function an exp kernel applies to each lane.
type expForm int

const (
	formExp          expForm = iota // e^x
	formSigmoid                     // 1 / (1 + e^−x)
	formNegSquareExp                // e^−(x·x)
)

// Exp writes math.Exp(src[l]) to dst[l] for every lane of src. dst may be
// src but must not otherwise overlap it.
func Exp(dst, src []float64) { expRow(dst, src, formExp) }

// Sigmoid writes 1 / (1 + math.Exp(−src[l])) to dst[l] for every lane of
// src. dst may be src but must not otherwise overlap it.
func Sigmoid(dst, src []float64) { expRow(dst, src, formSigmoid) }

// NegSquareExp writes the Gaussian math.Exp(−(src[l]·src[l])) to dst[l]
// for every lane of src. dst may be src but must not otherwise overlap it.
func NegSquareExp(dst, src []float64) { expRow(dst, src, formNegSquareExp) }

// expRow runs the AVX kernel only where it returns math.Exp's bits
// (haveExp); everywhere else, the Go loop over math.Exp.
func expRow(dst, src []float64, form expForm) {
	dst = dst[:len(src)]
	if !avx || !haveExp {
		expGo(dst, src, form)
		return
	}
	g := expGroup()
	n := len(src) &^ (g - 1)
	expGroups(dst[:n], src[:n], form, g)
	if n < len(src) {
		// The last lanes run as one group, padded with zeros.
		var in, out [8]float64
		copy(in[:], src[n:])
		expGroups(out[:g], in[:g], form, g)
		copy(dst[n:], out[:])
	}
}

// expGroup is the lanes of the exp kernel's group: 8 where the 8-lane loops
// run, else 4.
func expGroup() int {
	if zmm {
		return 8
	}
	return 4
}

// expGroups runs the packed kernel over lanes in groups of g. Each lane
// the kernel leaves unwritten, outside its domain, gets the Go loop's
// scalar math.Exp, so its bits are math.Exp's by definition.
func expGroups(dst, src []float64, form expForm, g int) {
	for i := 0; i < len(src); {
		done, out := expAVX(dst[i:], src[i:], form)
		i += done
		for l := i - g; out != 0; l, out = l+1, out>>1 {
			if out&1 != 0 {
				expGo(dst[l:l+1], src[l:l+1], form)
			}
		}
	}
}

// Broadcast fills row e of dst, the w floats from e·w, with src[e], for
// every element of src.
func Broadcast(dst, src []float64, w int) {
	if w < 0 || len(src)*w > len(dst) {
		panic("vec: broadcast rows outside the destination")
	}
	if avx {
		broadcastAVX(dst, src, w)
		return
	}
	broadcastGo(dst, src, w)
}

// AddLanes adds to each acc[e] the first count floats of row e of rows, the
// stride floats from e·stride, one at a time in ascending order: acc[e] +
// rows[e·stride] + rows[e·stride+1] + … with each add rounded, as a scalar
// loop adds them.
func AddLanes(acc, rows []float64, stride, count int) {
	if count < 0 || count > stride || len(acc) > 0 && (len(acc)-1)*stride+count > len(rows) {
		panic("vec: lane rows outside the source")
	}
	if avx {
		addLanesAVX(acc, rows, stride, count)
		return
	}
	addLanesGo(acc, rows, stride, count)
}

// Dest is how a row kernel lands its value v in dst[i].
type Dest int

// The row kernels' destinations.
const (
	Set  Dest = iota // dst[i] = v
	Init             // dst[i] = 0 + v: −0 lands as +0, as if added to a cleared row
	Acc              // dst[i] = dst[i] + v
)

// ScaleRow lands a·x[i] in dst[i] for every i < len(x), as d says: Set is
// Scale, Acc is AXPY and, with a = 1 or −s, the fold's y + v and the apply's
// y − s·v. dst may be x but must not otherwise overlap it.
func ScaleRow(dst, x []float64, a float64, d Dest) {
	dst = dst[:len(x)]
	if avx {
		scaleAVX(dst, x, a, d)
		return
	}
	scaleGo(dst, x, a, d)
}

// StepRow lands the SGD step y[i] + a·(e·x[i]) in dst[i] for every i <
// len(x), as d says; e·x[i] is rounded before a multiplies it. dst may be y
// or x but must not otherwise overlap either.
func StepRow(dst, y, x []float64, a, e float64, d Dest) {
	dst, y = dst[:len(x)], y[:len(x)]
	if avx {
		stepRowAVX(dst, y, x, a, e, d)
		return
	}
	stepRowGo(dst, y, x, a, e, d)
}

// AverageInto writes span / weight into out, which is span's length. A weight
// that is a power of two in the normal range has an exact reciprocal, and v
// times it rounds the same real number v / weight does, so that weight is
// applied as a multiply: the same bits for every v, signed zeros,
// denormals, infinities and NaN included. Any other weight divides.
func AverageInto(out, span []float64, weight float64) {
	const expMask, fracMask = 0x7ff << 52, 1<<52 - 1
	if b := math.Float64bits(weight); b&fracMask == 0 && b&expMask != 0 && b&expMask != expMask {
		ScaleRow(out, span, 1/weight, Set)
		return
	}
	out = out[:len(span)]
	for j, v := range span {
		out[j] = v / weight
	}
}

// Dot returns the sum of the rounded products a[i]·b[i], i < len(a), in the
// order the accelerator's reduce tree adds them (the DFG translator's
// reduceTree). With k the largest power of two ≤ n, the first k products
// are folded by halving, for h = k/2, k/4, …, 1 setting t[i] = t[i] + t[i+h]
// for every i < h; the rest, p[k:n], is summed the same way, right-nested,
// and added at the root: Dot(p[0:n]) = T(p[0:k]) + Dot(p[k:n]). An empty
// sum is +0 and a single product is returned as it is, −0 included. b must
// hold at least len(a) floats.
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	if n == 0 {
		return 0
	}
	// A block of k products folds its first levels into k/8 partial sums
	// (treeAVX) or k/4 (treeGo). The kernels keep up to frameSums of them
	// on their own stack; the first block, the largest, may need more.
	m := (1 << (bits.Len(uint(n)) - 1)) / 8
	if !avx {
		m *= 2
	}
	var spill []float64
	if m > frameSums {
		spill = getScratch(m)
	}
	// Blocks are the set bits of n, largest first; sum them from the last.
	s := 0.0
	for end := n; end > 0; end &= end - 1 {
		k := end & -end
		v := tree(spill, a[end-k:end], b[end-k:end])
		if end == n {
			s = v
		} else {
			s = v + s
		}
	}
	if spill != nil {
		putScratch(spill)
	}
	return s
}

// frameSums is how many partial sums treeAVX and treeGo hold on their own
// stack (treeAVX's 512-byte frame); past that they work in the t they are
// given.
const frameSums = 64

// tree returns T(p[0:k]) of the products of a and b, k = len(a) a power of
// two, with t as its work space when k/8 > frameSums.
func tree(t, a, b []float64) float64 {
	switch k := len(a); {
	case k == 1:
		return float64(a[0] * b[0])
	case k == 2:
		return float64(a[0]*b[0]) + float64(a[1]*b[1])
	case k == 4:
		return (float64(a[0]*b[0]) + float64(a[2]*b[2])) + (float64(a[1]*b[1]) + float64(a[3]*b[3]))
	case avx:
		return treeAVX(t, a, b)
	default:
		return treeGo(t, a, b)
	}
}

// scratch is a free list of work spaces for the Dots whose partial sums
// outgrow the kernels' own stack: a mutex-guarded stack, not a sync.Pool,
// so a warm caller allocates nothing under the race detector too, which
// drops pool entries.
var scratch struct {
	mu   sync.Mutex
	free [][]float64
}

// getScratch returns a work space of at least m floats.
func getScratch(m int) []float64 {
	scratch.mu.Lock()
	var t []float64
	if k := len(scratch.free); k > 0 {
		t, scratch.free = scratch.free[k-1], scratch.free[:k-1]
	}
	scratch.mu.Unlock()
	if len(t) < m {
		t = make([]float64, m)
	}
	return t
}

// putScratch returns a work space to the free list, which keeps at most
// 64 of them.
func putScratch(t []float64) {
	scratch.mu.Lock()
	if len(scratch.free) < 64 {
		scratch.free = append(scratch.free, t)
	}
	scratch.mu.Unlock()
}

// The portable kernels. The explicit float64 conversions round each
// product before the add or subtract that reads it, and forbid the
// compiler from contracting the pair into an FMA on any GOARCH.

func runGo(vals []float64, prog []Instr, n int) {
	row := func(off int32) []float64 { return vals[off:][:n] }
	for i := range prog {
		in := &prog[i]
		d, a, b := row(in.D), row(in.A), row(in.B)
		switch in.Op {
		case Add:
			for l := range d {
				d[l] = a[l] + b[l]
			}
		case Sub:
			for l := range d {
				d[l] = a[l] - b[l]
			}
		case Mul:
			for l := range d {
				d[l] = a[l] * b[l]
			}
		case MulAdd:
			c := row(in.C)
			for l := range d {
				d[l] = float64(a[l]*b[l]) + c[l]
			}
		case AddMul:
			c := row(in.C)
			for l := range d {
				d[l] = a[l] + float64(b[l]*c[l])
			}
		case MulMulAdd:
			c, e := row(in.C), row(in.E)
			for l := range d {
				d[l] = float64(a[l]*b[l]) + float64(c[l]*e[l])
			}
		case Select:
			c := row(in.C)
			for l := range d {
				if a[l] != 0 {
					d[l] = b[l]
				} else {
					d[l] = c[l]
				}
			}
		case Less:
			for l := range d {
				v := 0.0
				if a[l] < b[l] {
					v = 1
				}
				d[l] = v
			}
		}
	}
}

func stepGo(vals []float64, tail []Product, n int, lr float64) {
	for i := range tail {
		p := &tail[i]
		m, a, b := vals[p.M:][:n], vals[p.A:][:n], vals[p.B:][:n]
		for l := range m {
			m[l] -= float64(lr * float64(a[l]*b[l]))
		}
	}
}

func sumGo(vals []float64, tail []Product, shift, n int) {
	for i := range tail {
		p := &tail[i]
		s, a, b := vals[int(p.M)+shift:][:n], vals[p.A:][:n], vals[p.B:][:n]
		for l := range s {
			s[l] += float64(a[l] * b[l])
		}
	}
}

func prodGo(vals []float64, tail []Product, shift, n int) {
	for i := range tail {
		p := &tail[i]
		d, a, b := vals[int(p.M)+shift:][:n], vals[p.A:][:n], vals[p.B:][:n]
		for l := range d {
			d[l] = a[l] * b[l]
		}
	}
}

func scaleGo(dst, x []float64, a float64, d Dest) {
	dst = dst[:len(x)]
	switch d {
	case Set:
		for i, v := range x {
			dst[i] = a * v
		}
	case Init:
		for i, v := range x {
			dst[i] = 0 + float64(a*v)
		}
	default:
		for i, v := range x {
			dst[i] += float64(a * v)
		}
	}
}

func stepRowGo(dst, y, x []float64, a, e float64, d Dest) {
	dst, y = dst[:len(x)], y[:len(x)]
	switch d {
	case Set:
		for i, v := range x {
			dst[i] = y[i] + float64(a*float64(e*v))
		}
	case Init:
		for i, v := range x {
			dst[i] = 0 + (y[i] + float64(a*float64(e*v)))
		}
	default:
		for i, v := range x {
			dst[i] += y[i] + float64(a*float64(e*v))
		}
	}
}

func expGo(dst, src []float64, form expForm) {
	dst = dst[:len(src)]
	switch form {
	case formExp:
		for l, x := range src {
			dst[l] = math.Exp(x)
		}
	case formSigmoid:
		for l, x := range src {
			dst[l] = 1 / (1 + math.Exp(-x))
		}
	default:
		for l, x := range src {
			dst[l] = math.Exp(-(x * x))
		}
	}
}

func broadcastGo(dst, src []float64, w int) {
	for e, v := range src {
		row := dst[e*w:][:w]
		for l := range row {
			row[l] = v
		}
	}
}

func transposeGo(dst []float64, w int, src [][]float64, off, count int) {
	for l, s := range src {
		for j, v := range s[off : off+count] {
			dst[j*w+l] = v
		}
	}
}

func addLanesGo(acc, rows []float64, stride, count int) {
	for e := range acc {
		s := acc[e]
		for _, v := range rows[e*stride:][:count] {
			s += v
		}
		acc[e] = s
	}
}

// treeGo is treeAVX's twin: T of the k = len(a) products, k a power of
// two of at least eight. One pass runs the tree's first two levels over
// four streams q = k/4 apart (stream j pairs with j+2, then j+1) into q
// partial sums, held locally while q ≤ frameSums, else in t; then they
// halve down to t[0]. Each stream is a slice of its own, as long as the
// sums, so the loops index without bounds checks.
func treeGo(t, a, b []float64) float64 {
	q := len(a) / 4
	var local [frameSums]float64
	if q <= frameSums {
		t = local[:q]
	}
	t = t[:q]
	a0, a1, a2, a3 := a[:q], a[q:][:q], a[2*q:][:q], a[3*q:][:q]
	b0, b1, b2, b3 := b[:q], b[q:][:q], b[2*q:][:q], b[3*q:][:q]
	for i := range t {
		t[i] = (float64(a0[i]*b0[i]) + float64(a2[i]*b2[i])) + (float64(a1[i]*b1[i]) + float64(a3[i]*b3[i]))
	}
	for h := q / 2; h > 0; h /= 2 {
		lo, hi := t[:h], t[h:][:h]
		for i := range lo {
			lo[i] += hi[i]
		}
	}
	return t[0]
}
