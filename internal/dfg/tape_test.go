package dfg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsl"
)

// benchmarkPrograms instantiates every DSL benchmark program (plus the
// extensibility softmax) at small geometries for differential testing.
func benchmarkPrograms(t *testing.T) map[string]*dsl.Unit {
	t.Helper()
	srcs := map[string]struct {
		src    string
		params map[string]int
	}{
		"linreg":   {dsl.SourceLinearRegression, map[string]int{"M": 13}},
		"logistic": {dsl.SourceLogisticRegression, map[string]int{"M": 11}},
		"svm":      {dsl.SourceSVM, map[string]int{"M": 9}},
		"backprop": {dsl.SourceBackprop, map[string]int{"IN": 7, "HID": 5, "OUT": 3}},
		"cf":       {dsl.SourceCollaborativeFiltering, map[string]int{"NU": 4, "NV": 5, "K": 3}},
		"softmax":  {dsl.SourceSoftmax, map[string]int{"M": 6, "C": 4}},
	}
	units := map[string]*dsl.Unit{}
	for name, s := range srcs {
		u, err := dsl.ParseAndAnalyze(s.src, s.params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units[name] = u
	}
	return units
}

// randomBindings draws a full binding set for the unit's input/output/model
// symbols.
func randomBindings(u *dsl.Unit, rng *rand.Rand) Bindings {
	b := Bindings{Data: map[string][]float64{}, Model: map[string][]float64{}}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, s := range u.SymbolsOfKind(dsl.KindModelInput) {
		b.Data[s.Name] = vec(s.Size())
	}
	for _, s := range u.SymbolsOfKind(dsl.KindModelOutput) {
		b.Data[s.Name] = vec(s.Size())
	}
	for _, s := range u.SymbolsOfKind(dsl.KindModel) {
		b.Model[s.Name] = vec(s.Size())
	}
	return b
}

// requireBitEqual compares two gradient output maps for exact bit equality
// (NaNs produced by the same operation compare equal by bits).
func requireBitEqual(t *testing.T, want, got map[string][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output symbols: %d (interpreter) vs %d (tape)", len(want), len(got))
	}
	for name, wv := range want {
		gv, ok := got[name]
		if !ok {
			t.Fatalf("tape missing output %s", name)
		}
		if len(wv) != len(gv) {
			t.Fatalf("%s: length %d vs %d", name, len(wv), len(gv))
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s[%d]: interpreter %v (%#x) vs tape %v (%#x)",
					name, i, wv[i], math.Float64bits(wv[i]), gv[i], math.Float64bits(gv[i]))
			}
		}
	}
}

// TestTapeMatchesInterpreterOnBenchmarks: the compiled tape must agree with
// Graph.Eval bit-for-bit on every DSL benchmark program, with a single
// arena reused across trials (exercising the scratch-state reset story).
func TestTapeMatchesInterpreterOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
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
			if tape.NumInstrs() != g.NumOps() {
				t.Fatalf("tape has %d instrs for %d compute ops", tape.NumInstrs(), g.NumOps())
			}
			arena := tape.NewArena()
			for trial := 0; trial < 20; trial++ {
				b := randomBindings(u, rng)
				want, err := g.Eval(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := arena.EvalBindings(b)
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, want, got)
			}
		})
	}
}

// allOpsGraph hand-builds a graph exercising every DFG op — all comparisons,
// select, and every EvalNonlinear case — none of which appear together in
// any single benchmark program.
func allOpsGraph() *Graph {
	g := &Graph{Symbols: []string{"", "x", "w"}, Outputs: map[string][]int32{}}
	mk := func(n Node, args ...int32) int32 {
		n.Arity = uint8(copy(n.Arg[:], args))
		g.Nodes = append(g.Nodes, n)
		return int32(len(g.Nodes) - 1)
	}
	x0 := mk(Node{Op: OpData, Sym: 1, Index: 0})
	x1 := mk(Node{Op: OpData, Sym: 1, Index: 1})
	w0 := mk(Node{Op: OpModel, Sym: 2, Index: 0})
	half := mk(Node{Op: OpConst, Const: 0.5})

	var outs []int32
	out := func(id int32) { outs = append(outs, id) }
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpGT, OpLT, OpGE, OpLE, OpEQ, OpNE} {
		out(mk(Node{Op: op}, x0, x1))
	}
	out(mk(Node{Op: OpNeg}, x0))
	cond := mk(Node{Op: OpGT}, x0, half)
	out(mk(Node{Op: OpSelect}, cond, x1, w0))
	for _, op := range []Op{OpSigmoid, OpGaussian, OpLog, OpExp, OpSqrt, OpTanh, OpRelu, OpAbs, OpSign} {
		out(mk(Node{Op: op}, x0))
	}
	// A second layer mixing model values through nonlinear results.
	out(mk(Node{Op: OpMul}, outs[len(outs)-1], w0))
	g.Outputs["g"] = outs
	g.OutputOrder = []string{"g"}
	g.Link()
	return g
}

// TestTapeMatchesInterpreterAllOps covers every op, including the edge
// inputs the benchmarks never produce: zero (sign/select), equal operands
// (EQ/NE/GE/LE), and negatives under log/sqrt (NaN results must match by
// bits).
func TestTapeMatchesInterpreterAllOps(t *testing.T) {
	g := allOpsGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	arena := tape.NewArena()
	cases := [][]float64{ // {x0, x1, w0}
		{1.5, -2.25, 0.75},
		{-1.5, -1.5, 2}, // equal operands, negative log/sqrt
		{0, 3, -1},      // sign(0), select false branch
		{0.5, 0.5, 0.5}, // GT boundary at the const
		{1e300, -1e300, 1e-300},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		cases = append(cases, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	for _, c := range cases {
		b := Bindings{
			Data:  map[string][]float64{"x": {c[0], c[1]}},
			Model: map[string][]float64{"w": {c[2]}},
		}
		want, err := g.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := arena.EvalBindings(b)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, want, got)
	}
}

// TestTapeBindingErrors: binding validation happens once per Bind, and
// reports missing symbols and short vectors.
func TestTapeBindingErrors(t *testing.T) {
	g := allOpsGraph()
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	arena := tape.NewArena()
	if err := arena.BindData(map[string][]float64{}); err == nil {
		t.Error("expected missing-symbol error")
	}
	if err := arena.BindData(map[string][]float64{"x": {1}}); err == nil {
		t.Error("expected short-vector error")
	}
	if err := arena.BindData(map[string][]float64{"x": {1, 2}}); err != nil {
		t.Errorf("valid data binding rejected: %v", err)
	}
	if err := arena.BindModel(map[string][]float64{}); err == nil {
		t.Error("expected missing-model error")
	}
}

// TestTapeRejectsUnknownOp: op validity is a compile-time check, not an
// evaluation-time one.
func TestTapeRejectsUnknownOp(t *testing.T) {
	g := &Graph{Nodes: []Node{{Op: Op(97)}}, Outputs: map[string][]int32{"g": {0}}}
	if _, err := g.CompileTape(); err == nil {
		t.Error("expected unsupported-op compile error")
	}
	// Wrong arity is also a compile error.
	g2 := &Graph{
		Nodes:   []Node{{Op: OpConst}, {Op: OpAdd, Arity: 1}},
		Outputs: map[string][]int32{"g": {1}},
	}
	if _, err := g2.CompileTape(); err == nil {
		t.Error("expected arity compile error")
	}
}

// TestTapeEvalSteadyStateAllocFree: after arena construction, bind+eval
// must not allocate.
func TestTapeEvalSteadyStateAllocFree(t *testing.T) {
	u, err := dsl.ParseAndAnalyze(dsl.SourceBackprop, map[string]int{"IN": 7, "HID": 5, "OUT": 3})
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
	arena := tape.NewArena()
	b := randomBindings(u, rand.New(rand.NewSource(43)))
	if _, err := arena.EvalBindings(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := arena.Bind(b); err != nil {
			t.Fatal(err)
		}
		arena.Eval()
	})
	if allocs != 0 {
		t.Errorf("steady-state bind+eval allocates %v objects per run", allocs)
	}
}
