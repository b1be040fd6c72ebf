package dfg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vec"
)

// eachKernel runs f on the kernels in use and, where those are the AVX
// ones, again as subtest "portable" on their Go loops, so neither
// implementation can rot.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	f(t)
	if vec.Accelerated() {
		t.Run("portable", func(t *testing.T) {
			defer vec.SetAccelerated(false)()
			f(t)
		})
	}
}

// symVecs resolves a binding map in a lane arena's binding order (a
// missing symbol is a nil vector).
func symVecs(names []string, m map[string][]float64) [][]float64 {
	vecs := make([][]float64, len(names))
	for i, name := range names {
		vecs[i] = m[name]
	}
	return vecs
}

// laneOutputs gathers one lane's gradient outputs from the arena rows.
func laneOutputs(g *Graph, la *Lanes, lane int) map[string][]float64 {
	out := map[string][]float64{}
	for name, ids := range g.Outputs {
		vec := make([]float64, len(ids))
		for i, id := range ids {
			vec[i] = la.Row(int(id))[lane]
		}
		out[name] = vec
	}
	return out
}

// TestLanesMatchScalarArenaAllOps pins the lane kernel to its scalar twin:
// every op — comparisons, select, each nonlinear — on every pairing of the
// inputs floating point treats specially, each lane holding different data
// and a different model value, must come out bit-equal to Arena.Eval and to
// Graph.Eval at every width.
func TestLanesMatchScalarArenaAllOps(t *testing.T) {
	g := allOpsGraph() // leaves x[0], x[1], w[0]
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	var wSlot int
	for i := range g.Nodes {
		if g.Nodes[i].Op == OpModel {
			wSlot = i
		}
	}
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, -2.25, 710, -746,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
		math.MaxFloat64, -math.MaxFloat64, 1e300, 1e-300,
		// The edges of math.Exp's branches, which the packed exp kernels
		// leave to math.Exp: overflow above 709.78…, k = 1024 from 709.44…,
		// denormal results below −708.39… and zero below −745.13…; the
		// Gaussian reaches the last two from ±26.6… and 27.3….
		7.09782712893384e+02, 709.5, -708.3964185322641, -708.4, -745.1332191019411, -745.2,
		26.6157, -27.2972,
	}
	var cases [][3]float64 // {x0, x1, w0}
	for i, a := range special {
		for j, b := range special {
			cases = append(cases, [3]float64{a, b, special[(i+j)%len(special)]})
		}
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 64; i++ {
		cases = append(cases, [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}

	eachKernel(t, func(t *testing.T) {
		arena := tape.NewArena()
		for _, width := range []int{1, 3, 16, 32} {
			t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
				la := tape.NewLanes(width, LaneLayout{})
				for at := 0; at < len(cases); at += width {
					n := min(width, len(cases)-at)
					// The broadcast gives every lane one model; each lane then
					// gets its own through the leaf's row, its model block row.
					if err := la.BindModel(symVecs(tape.ModelSymbols(), map[string][]float64{"w": {7}})); err != nil {
						t.Fatal(err)
					}
					vecs := make([][][]float64, n)
					for l := range vecs {
						c := cases[at+l]
						vecs[l] = symVecs(tape.DataSymbols(), map[string][]float64{"x": {c[0], c[1]}})
						la.Row(wSlot)[l] = c[2]
					}
					if err := la.BindData(0, vecs); err != nil {
						t.Fatal(err)
					}
					la.Eval(n, UpdateNone, 0)
					for l := 0; l < n; l++ {
						c := cases[at+l]
						b := Bindings{
							Data:  map[string][]float64{"x": {c[0], c[1]}},
							Model: map[string][]float64{"w": {c[2]}},
						}
						got := laneOutputs(g, la, l)
						want, err := arena.EvalBindings(b)
						if err != nil {
							t.Fatal(err)
						}
						requireBitEqual(t, want, got)
						want, err = g.Eval(b)
						if err != nil {
							t.Fatal(err)
						}
						requireBitEqual(t, want, got)
					}
				}
			})
		}
	})
}

// TestLanesMatchArenaOnBenchmarks runs every DSL benchmark program with a
// different random binding set on each lane, reusing one lane arena across
// trials, and evaluates only a prefix of the lanes: the lanes past it must
// keep what they held.
func TestLanesMatchArenaOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const width, live = 5, 3
	for name, u := range benchmarkPrograms(t) {
		t.Run(name, func(t *testing.T) {
			g, err := Translate(u)
			if err != nil {
				t.Fatal(err)
			}
			tape, err := g.CompileTape()
			if err != nil {
				t.Fatal(err)
			}
			arena, la := tape.NewArena(), tape.NewLanes(width, LaneLayout{})
			for trial := 0; trial < 5; trial++ {
				binds := make([]Bindings, width)
				for l := range binds {
					binds[l] = randomBindings(u, rng)
				}
				if err := la.BindModel(symVecs(tape.ModelSymbols(), binds[0].Model)); err != nil {
					t.Fatal(err)
				}
				vecs := make([][][]float64, width)
				for l, b := range binds {
					vecs[l] = symVecs(tape.DataSymbols(), b.Data)
					b.Model = binds[0].Model
					binds[l] = b
				}
				if err := la.BindData(0, vecs); err != nil {
					t.Fatal(err)
				}
				la.Eval(width, UpdateNone, 0)
				idle := laneOutputs(g, la, live)
				if err := la.BindData(live, [][][]float64{symVecs(tape.DataSymbols(), binds[0].Data)}); err != nil {
					t.Fatal(err)
				}
				la.Eval(live, UpdateNone, 0)
				for l := 0; l < live; l++ {
					want, err := arena.EvalBindings(binds[l])
					if err != nil {
						t.Fatal(err)
					}
					requireBitEqual(t, want, laneOutputs(g, la, l))
				}
				requireBitEqual(t, idle, laneOutputs(g, la, live))
			}
		})
	}
}

// TestLanesBindingErrors: a lane arena rejects what a scalar arena rejects,
// with the same message.
func TestLanesBindingErrors(t *testing.T) {
	tape, err := allOpsGraph().CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	arena, la := tape.NewArena(), tape.NewLanes(2, LaneLayout{})
	for _, data := range []map[string][]float64{{}, {"x": {1}}, {"x": {1, 2}}} {
		want, got := arena.BindData(data), la.BindData(1, [][][]float64{symVecs(tape.DataSymbols(), data)})
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("BindData(%v): lanes %v, arena %v", data, got, want)
		}
	}
	for _, model := range []map[string][]float64{{}, {"w": {}}, {"w": {1}}} {
		want, got := arena.BindModel(model), la.BindModel(symVecs(tape.ModelSymbols(), model))
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("BindModel(%v): lanes %v, arena %v", model, got, want)
		}
	}
}

// runsGraph outputs data leaves that load x[3], x[0], x[1], x[2], x[5],
// x[1] again, y[1] and y[0], in that slot order, and returns their slots.
func runsGraph(t *testing.T) (*Graph, *Tape, []int32) {
	t.Helper()
	g := &Graph{Symbols: []string{"", "x", "y"}, Outputs: map[string][]int32{}}
	var leaves []int32
	for _, ld := range [][2]int32{{1, 3}, {1, 0}, {1, 1}, {1, 2}, {1, 5}, {1, 1}, {2, 1}, {2, 0}} {
		g.Nodes = append(g.Nodes, Node{Op: OpData, Sym: ld[0], Index: ld[1]})
		leaves = append(leaves, int32(len(g.Nodes)-1))
	}
	g.Outputs["g"] = leaves
	g.OutputOrder = []string{"g"}
	g.Link()
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	return g, tape, leaves
}

// TestLanesBindRuns: a bind writes every load of every symbol, whatever
// runs the loads make. x's leaves take rows in slot order but load a run of
// three, two of one past a gap and a repeat; y's load a falling pair. Lanes
// 1 … 3 of five are bound in one call, lanes 0 and 4 must keep what they
// held, and the arena must keep none of the caller's vectors.
func TestLanesBindRuns(t *testing.T) {
	g, tape, leaves := runsGraph(t)
	eachKernel(t, func(t *testing.T) {
		const width = 5
		la := tape.NewLanes(width, LaneLayout{})
		if len(la.runs) != 6 {
			t.Errorf("%d runs, want 6: x[0:3], x[1], x[3], x[5], y[0], y[1]", len(la.runs))
		}
		for _, slot := range leaves {
			for l := range width {
				la.Row(int(slot))[l] = -1
			}
		}
		vecs := make([][][]float64, 3)
		for l := range vecs {
			x := []float64{10, 11, 12, 13, 14, 15}
			y := []float64{20, 21}
			for i := range x {
				x[i] += float64(100 * l)
			}
			for i := range y {
				y[i] += float64(100 * l)
			}
			vecs[l] = symVecs(tape.DataSymbols(), map[string][]float64{"x": x, "y": y})
		}
		if err := la.BindData(1, vecs); err != nil {
			t.Fatal(err)
		}
		for _, c := range la.cols {
			if c != nil {
				t.Fatal("the bind kept a caller's vector")
			}
		}
		for i, slot := range leaves {
			n := g.Nodes[slot]
			for l := range width {
				want := -1.0
				if l >= 1 && l <= 3 {
					want = 10*float64(n.Sym) + float64(n.Index) + float64(100*(l-1))
				}
				if got := la.Row(int(slot))[l]; got != want {
					t.Errorf("leaf %d (%s[%d]) lane %d: %v, want %v", i, g.Symbols[n.Sym], n.Index, l, got, want)
				}
			}
		}
	})
}

// TestLanesBindErrorBindsNothing: a bind with failing lanes writes no lane
// and returns the lowest failing lane's first error, as a scalar arena
// binding that lane alone would — lane 1's short y, though lane 2's short x
// comes first in symbol order.
func TestLanesBindErrorBindsNothing(t *testing.T) {
	_, tape, _ := runsGraph(t)
	la := tape.NewLanes(4, LaneLayout{})
	before := append([]float64(nil), la.vals...)
	x, y := make([]float64, 6), make([]float64, 2)
	lanes := []map[string][]float64{{"x": x, "y": y}, {"x": x, "y": y[:1]}, {"x": x[:5], "y": y}, {"x": x, "y": y}}
	vecs := make([][][]float64, len(lanes))
	for l, data := range lanes {
		vecs[l] = symVecs(tape.DataSymbols(), data)
	}
	got := la.BindData(0, vecs)
	want := tape.NewArena().BindData(lanes[1])
	if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BindData: %v, want lane 1's %v", got, want)
	}
	requireRowsBitEqual(t, "arena after a failed bind", before, la.vals)
}

// TestLanesBindPanicsPastWidth: a bind whose lanes run past the arena's
// width, or start before lane 0, panics before it writes anything.
func TestLanesBindPanicsPastWidth(t *testing.T) {
	tape, err := allOpsGraph().CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	la := tape.NewLanes(4, LaneLayout{})
	data := symVecs(tape.DataSymbols(), map[string][]float64{"x": {1, 2}})
	before := append([]float64(nil), la.vals...)
	for _, c := range []struct{ first, n int }{{4, 1}, {-1, 1}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "4-lane arena") {
					t.Errorf("BindData(%d, %d lanes): panic %q, want one naming the width", c.first, c.n, msg)
				}
			}()
			vecs := make([][][]float64, c.n)
			for l := range vecs {
				vecs[l] = data
			}
			la.BindData(c.first, vecs)
		}()
	}
	requireRowsBitEqual(t, "arena after refused binds", before, la.vals)
	if err := la.BindData(4, nil); err != nil {
		t.Errorf("BindData(4, no lanes): %v", err)
	}
}

// TestLanesSteadyStateAllocFree: after construction, bind+eval must not
// allocate.
func TestLanesSteadyStateAllocFree(t *testing.T) {
	g := allOpsGraph()
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	la := tape.NewLanes(4, LaneLayout{})
	data := symVecs(tape.DataSymbols(), map[string][]float64{"x": {1.5, -2.25}})
	vecs := [][][]float64{data, data, data, data}
	model := symVecs(tape.ModelSymbols(), map[string][]float64{"w": {0.75}})
	allocs := testing.AllocsPerRun(100, func() {
		if err := la.BindModel(model); err != nil {
			t.Fatal(err)
		}
		if err := la.BindData(0, vecs); err != nil {
			t.Fatal(err)
		}
		la.Eval(4, UpdateNone, 0)
	})
	if allocs != 0 {
		t.Errorf("steady-state bind+eval allocates %v objects per run", allocs)
	}
}

// fusionProgram has one gradient per lane-program shape, each built on its
// own product so hash-consing shares nothing between them: the three fused
// product-sums, and a product read twice, a product that is itself an
// output, and add(m, m), which must all stay unfused.
const fusionProgram = `
model_input a1; model_input b1; model_input a2; model_input b2;
model_input a3; model_input b3; model_input a4; model_input b4;
model_input a5; model_input b5; model_input a6; model_input b6;
model_input c; model_input one;
gradient mulx; gradient xmul; gradient mulmul;
gradient twice1; gradient twice2; gradient out; gradient outsum; gradient self;
mulx = a1 * b1 + c;
xmul = c + a2 * b2;
mulmul = a3 * b3 + c * one;
p = a4 * b4;
twice1 = p + c;
twice2 = p * c;
out = a5 * b5;
outsum = a5 * b5 + c;
self = a6 * b6 + a6 * b6;
aggregator sum;
`

// TestLanesFuseProductSums pins the lane program's fusion: which adds absorb
// their products, and that the fused code rounds each product before the
// add. With a = 1+2⁻³⁰, b = 1−2⁻³⁰ and c = −1 the product a·b rounds to 1,
// so a·b + c is 0 — where an FMA would give −2⁻⁶⁰ — and every lane must
// equal the scalar Arena and the interpreter bit for bit.
func TestLanesFuseProductSums(t *testing.T) {
	u, err := dsl.ParseAndAnalyze(fusionProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	la := tape.NewLanes(3, LaneLayout{})
	prog := laneProgram(la)
	ops := map[Op]int{}
	for _, in := range prog {
		ops[in.op]++
	}
	want := map[Op]int{
		opMulAdd: 1, opAddMul: 1, opMulMulAdd: 1, // mulx, xmul, mulmul
		// p (read twice), twice2, out's product (an output) and self's
		// product (read twice by one add).
		OpMul: 4,
		OpAdd: 3, // twice1, outsum, self
	}
	for op, n := range want {
		if ops[op] != n {
			t.Errorf("lane program has %d %v, want %d (all: %v)", ops[op], op, n, ops)
		}
	}
	if len(prog) != tape.NumInstrs()-4 {
		t.Errorf("lane program has %d instructions, tape %d: want 4 products fused away", len(prog), tape.NumInstrs())
	}

	hi, lo := 1+math.Ldexp(1, -30), 1-math.Ldexp(1, -30)
	data := map[string][]float64{"c": {-1}, "one": {1}}
	for _, k := range []string{"1", "2", "3", "4", "5", "6"} {
		data["a"+k], data["b"+k] = []float64{hi}, []float64{lo}
	}
	rng := rand.New(rand.NewSource(46))
	lanes := []map[string][]float64{data}
	for l := 1; l < 3; l++ {
		other := map[string][]float64{}
		for name := range data {
			other[name] = []float64{rng.NormFloat64()}
		}
		lanes = append(lanes, other)
	}
	for l, d := range lanes {
		if err := la.BindData(l, [][][]float64{symVecs(tape.DataSymbols(), d)}); err != nil {
			t.Fatal(err)
		}
	}
	la.Eval(len(lanes), UpdateNone, 0)
	arena := tape.NewArena()
	for l, d := range lanes {
		b := Bindings{Data: d, Model: map[string][]float64{}}
		got := laneOutputs(g, la, l)
		wantOut, err := arena.EvalBindings(b)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, wantOut, got)
		wantOut, err = g.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, wantOut, got)
	}
	for _, name := range []string{"mulx", "xmul", "mulmul", "twice1", "outsum"} {
		if v := laneOutputs(g, la, 0)[name][0]; math.Float64bits(v) != 0 {
			t.Errorf("%s = %g, want +0: the product was not rounded before the add", name, v)
		}
	}
}

// laneStepLR is the learning rate the update checks step with: not a power
// of two, so lr·g rounds.
const laneStepLR = 0.3

// trainerLayout lays a lane arena out as a trainer does: one model span per
// model/gradient pair, in pair order, each row stepped by the matching
// element of the pair's gradient.
func trainerLayout(t testing.TB, g *Graph) LaneLayout {
	t.Helper()
	pairs, err := g.Unit.ModelGradientPairs()
	if err != nil {
		t.Fatal(err)
	}
	var layout LaneLayout
	for _, pr := range pairs {
		outs := g.Outputs[pr[1].Name]
		layout.Model = append(layout.Model, ModelSpan{Name: pr[0].Name, Words: len(outs)})
		for _, o := range outs {
			layout.Grads = append(layout.Grads, int(o))
		}
	}
	return layout
}

// checkLaneUpdates runs a lane arena of the given width and layout under
// every update for a few steps, each evaluating a shorter prefix of the
// lanes on fresh data, and requires every lane to hold what a scalar Arena
// followed by an explicit step holds, bit for bit: its model block (stepped
// under UpdateStep, the broadcast model otherwise) and its gradient block
// (the last gradients under UpdateNone, their running sums under
// UpdateSum). Lanes past the prefix must keep what they held. draw supplies
// every model and data value.
func checkLaneUpdates(t testing.TB, tape *Tape, layout LaneLayout, width int, draw func() float64) {
	t.Helper()
	words := len(layout.Grads)
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	// bind cuts a flat model block into its spans' vectors, by name.
	bind := func(block []float64) map[string][]float64 {
		m := map[string][]float64{}
		for _, sp := range layout.Model {
			m[sp.Name], block = block[:sp.Words], block[sp.Words:]
		}
		return m
	}
	lane := func(rows []float64, l int) []float64 {
		v := make([]float64, words)
		for r := range v {
			v[r] = rows[r*width+l]
		}
		return v
	}
	for _, up := range []Update{UpdateNone, UpdateStep, UpdateSum} {
		la := tape.NewLanes(width, layout)
		broadcast := fill(words)
		spans, vecs := bind(broadcast), make([][]float64, len(layout.Model))
		for i, sp := range layout.Model {
			vecs[i] = spans[sp.Name]
		}
		if err := la.BindModel(vecs); err != nil {
			t.Fatal(err)
		}
		clear(la.Grads())
		models, grads := make([][]float64, width), make([][]float64, width)
		for l := range models {
			models[l], grads[l] = append([]float64(nil), broadcast...), make([]float64, words)
		}
		arena := tape.NewArena()
		for step := 0; step < 4; step++ {
			n := max(1, width-step)
			vecs := make([][][]float64, n)
			for l := range vecs {
				data := map[string][]float64{}
				for _, sb := range tape.data {
					data[sb.name] = fill(sb.minLen)
				}
				vecs[l] = symVecs(tape.DataSymbols(), data)
				if err := arena.Bind(Bindings{Data: data, Model: bind(models[l])}); err != nil {
					t.Fatal(err)
				}
				arena.Eval()
				for r, slot := range layout.Grads {
					g := arena.vals[slot]
					switch up {
					case UpdateNone:
						grads[l][r] = g
					case UpdateStep:
						models[l][r] -= float64(laneStepLR * g)
					case UpdateSum:
						grads[l][r] += g
					}
				}
			}
			if err := la.BindData(0, vecs); err != nil {
				t.Fatal(err)
			}
			la.Eval(n, up, laneStepLR)
			for l := 0; l < width; l++ {
				requireRowsBitEqual(t, fmt.Sprintf("update %d step %d lane %d model", up, step, l), models[l], lane(la.Model(), l))
				if up != UpdateStep {
					requireRowsBitEqual(t, fmt.Sprintf("update %d step %d lane %d gradients", up, step, l), grads[l], lane(la.Grads(), l))
				}
			}
		}
	}
}

// requireRowsBitEqual compares rows bit for bit, except that any two NaNs
// are equal: Go, like IEEE 754, leaves which operand's payload and sign a
// NaN result carries unspecified, and the compiler orders a commutative
// op's operands as it likes — the lane program's fused product-sums already
// pick other NaNs than Arena when two different NaNs meet.
func requireRowsBitEqual(t testing.TB, what string, want, got []float64) {
	t.Helper()
	for r := range want {
		if math.Float64bits(want[r]) != math.Float64bits(got[r]) && !(math.IsNaN(want[r]) && math.IsNaN(got[r])) {
			t.Fatalf("%s row %d: arena + step %v (%#x), lanes %v (%#x)",
				what, r, want[r], math.Float64bits(want[r]), got[r], math.Float64bits(got[r]))
		}
	}
}

// laneSpecials are the inputs floating point treats specially.
var laneSpecials = []float64{
	math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -2.5e-310, math.MaxFloat64, 1, -1,
}

// specialDraw draws mostly normal values and, one time in six, a special.
func specialDraw(rng *rand.Rand) func() float64 {
	return func() float64 {
		if rng.Intn(6) == 0 {
			return laneSpecials[rng.Intn(len(laneSpecials))]
		}
		return rng.NormFloat64()
	}
}

// gradRows builds nodes with mk over the leaves w[0], w[1], x[0] and x[1],
// and returns the slot of each of w's two gradient rows.
type gradRows func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32

// fallbackGraph builds a graph of a two-element model w and data x with
// the gradient rows build makes, and its trainer layout.
func fallbackGraph(build gradRows) (*Graph, LaneLayout) {
	g := &Graph{Symbols: []string{"", "x", "w"}, Outputs: map[string][]int32{}}
	mk := func(n Node, args ...int32) int32 {
		n.Arity = uint8(copy(n.Arg[:], args))
		g.Nodes = append(g.Nodes, n)
		return int32(len(g.Nodes) - 1)
	}
	var w, x [2]int32
	for i := range x {
		x[i] = mk(Node{Op: OpData, Sym: 1, Index: int32(i)})
		w[i] = mk(Node{Op: OpModel, Sym: 2, Index: int32(i)})
	}
	grads := build(mk, w, x)
	g.Outputs["g"] = grads[:]
	g.OutputOrder = []string{"g"}
	g.Link()
	return g, LaneLayout{Model: []ModelSpan{{Name: "w", Words: 2}}, Grads: []int{int(grads[0]), int(grads[1])}}
}

// TestLanesFusedUpdateMatchesArena pins the update tail: on every Table 1
// program, and on hand-built graphs whose gradient rows must fall back, a
// lane arena under each update equals a scalar Arena plus an explicit step
// bit for bit, with NaN, ±0, ±Inf and denormal inputs, at widths 1, 3, 16,
// 32 (a node's AccelEngine at the `deep` workload's plan) and 33 (not a
// power of two). Each hand-built graph also has a row that fuses, so a
// fallback row reads its gradient while the tail rewrites the model block.
func TestLanesFusedUpdateMatchesArena(t *testing.T) {
	type laneCase struct {
		g      *Graph
		layout LaneLayout
		tail   int // the gradient rows that fuse
	}
	cases := map[string]laneCase{}
	for name, u := range benchmarkPrograms(t) {
		g, err := Translate(u)
		if err != nil {
			t.Fatal(err)
		}
		layout := trainerLayout(t, g)
		tail := len(layout.Grads)
		if name == "svm" {
			tail = 0 // its gradient is a select
		}
		cases[name] = laneCase{g: g, layout: layout, tail: tail}
	}
	mul := func(mk func(Node, ...int32) int32, a, b int32) int32 { return mk(Node{Op: OpMul}, a, b) }
	for name, build := range map[string]gradRows{
		// w[0]'s gradient is the leaf w[1], read after the tail steps w[1].
		"model-leaf": func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
			return [2]int32{w[1], mul(mk, x[0], x[1])}
		},
		"read-by-node": func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
			p := mul(mk, x[0], x[1])
			return [2]int32{p, mul(mk, p, x[0])}
		},
		"two-rows": func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
			p := mul(mk, x[0], x[1])
			return [2]int32{p, p}
		},
		"reads-model": func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
			h := mk(Node{Op: OpSigmoid}, mk(Node{Op: OpAdd}, mul(mk, w[0], x[0]), w[1]))
			return [2]int32{mul(mk, w[1], h), mul(mk, h, x[1])}
		},
		"not-mul": func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
			d := mk(Node{Op: OpSub}, mul(mk, w[0], x[0]), x[1])
			return [2]int32{mk(Node{Op: OpAdd}, mul(mk, d, x[0]), x[1]), mul(mk, d, x[1])}
		},
	} {
		g, layout := fallbackGraph(build)
		tail := 1
		if name == "two-rows" {
			tail = 0
		}
		cases[name] = laneCase{g: g, layout: layout, tail: tail}
	}

	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for name, c := range cases {
			t.Run(name, func(t *testing.T) {
				tape, err := c.g.CompileTape()
				if err != nil {
					t.Fatal(err)
				}
				for _, width := range []int{1, 3, 16, 32, 33} {
					if la := tape.NewLanes(width, c.layout); len(la.tail) != c.tail {
						t.Fatalf("%d gradient rows fused, want %d", len(la.tail), c.tail)
					}
					checkLaneUpdates(t, tape, c.layout, width, specialDraw(rng))
				}
			})
		}
	})
}

// TestLanesRowRefusesTemporaries: a slot whose row later values reuse has
// no row to return.
func TestLanesRowRefusesTemporaries(t *testing.T) {
	g, layout := fallbackGraph(func(mk func(Node, ...int32) int32, w, x [2]int32) [2]int32 {
		h := mk(Node{Op: OpSigmoid}, x[0])
		return [2]int32{mk(Node{Op: OpMul}, h, x[1]), mk(Node{Op: OpMul}, h, x[0])}
	})
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	la := tape.NewLanes(2, layout)
	for _, slot := range append(g.Outputs["g"], 0, 1, 2, 3) {
		la.Row(int(slot)) // leaves and gradients are addressable
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "temporary") {
			t.Errorf("Row of a temporary: panic %q, want one naming a temporary", msg)
		}
	}()
	la.Row(4) // the sigmoid
}
