package dfg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsl"
)

func mustGraph(t *testing.T, src string, params map[string]int) *Graph {
	t.Helper()
	u, err := dsl.ParseAndAnalyze(src, params)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTranslateLinearRegressionStructure(t *testing.T) {
	g := mustGraph(t, dsl.SourceLinearRegression, map[string]int{"M": 8})
	// Per element: one multiply for w*x, one for e*x; the reduction tree has
	// M-1 adds; one subtract for e.
	census := g.OpCensus()
	if census[OpMul] != 16 {
		t.Errorf("multiplies = %d, want 16", census[OpMul])
	}
	if census[OpAdd] != 7 {
		t.Errorf("adds = %d, want 7", census[OpAdd])
	}
	if census[OpSub] != 1 {
		t.Errorf("subs = %d, want 1", census[OpSub])
	}
	if g.DataWords() != 9 { // x[8] + y
		t.Errorf("data words = %d, want 9", g.DataWords())
	}
	if g.ModelWords() != 8 {
		t.Errorf("model words = %d, want 8", g.ModelWords())
	}
	if g.GradientWords() != 8 {
		t.Errorf("gradient words = %d, want 8", g.GradientWords())
	}
}

func TestReductionTreeIsLogDepth(t *testing.T) {
	g := mustGraph(t, dsl.SourceLinearRegression, map[string]int{"M": 64})
	// Chain: mul -> log2(64)=6 adds -> sub -> mul = 9 ops at levels 0..8.
	if cp := g.CriticalPath(); cp != 8 {
		t.Errorf("critical path = %d, want 8", cp)
	}
}

func TestCSESharesLeavesAndSubexpressions(t *testing.T) {
	g := mustGraph(t, `
model_input x[4];
model w[4];
gradient g[4];
iterator i[0:4];
a = sum[i](w[i] * x[i]);
b = sum[i](w[i] * x[i]);
g[i] = (a + b) * x[i];
aggregator sum;
`, nil)
	// a and b are identical: the reduction must be built once.
	census := g.OpCensus()
	if census[OpMul] != 8 { // 4 for w*x, 4 for (a+b)*x
		t.Errorf("multiplies = %d, want 8", census[OpMul])
	}
	if census[OpAdd] != 4 { // 3 reduction adds + a+b
		t.Errorf("adds = %d, want 4", census[OpAdd])
	}
}

func TestConstantFolding(t *testing.T) {
	g := mustGraph(t, `gradient g; g = 2 * 3 + 1; aggregator sum;`, nil)
	if g.NumOps() != 0 {
		t.Errorf("constant program has %d compute ops", g.NumOps())
	}
	out, err := g.Eval(Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	if out["g"][0] != 7 {
		t.Errorf("g = %g, want 7", out["g"][0])
	}
}

func TestEvalSelectAndComparisons(t *testing.T) {
	g := mustGraph(t, `
model_input x;
model w;
gradient g;
g = (x * w > 1) ? x : (0 - x);
aggregator sum;
`, nil)
	eval := func(x, w float64) float64 {
		out, err := g.Eval(Bindings{
			Data:  map[string][]float64{"x": {x}},
			Model: map[string][]float64{"w": {w}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out["g"][0]
	}
	if got := eval(3, 1); got != 3 {
		t.Errorf("eval(3,1) = %g, want 3", got)
	}
	if got := eval(0.5, 1); got != -0.5 {
		t.Errorf("eval(0.5,1) = %g, want -0.5", got)
	}
}

func TestEvalNonlinears(t *testing.T) {
	cases := []struct {
		op   Op
		x    float64
		want float64
	}{
		{OpSigmoid, 0, 0.5},
		{OpGaussian, 0, 1},
		{OpLog, math.E, 1},
		{OpExp, 1, math.E},
		{OpSqrt, 9, 3},
		{OpTanh, 0, 0},
		{OpRelu, -2, 0},
		{OpRelu, 2, 2},
		{OpAbs, -3, 3},
		{OpSign, -3, -1},
		{OpSign, 0, 0},
		{OpSign, 5, 1},
	}
	for _, c := range cases {
		got, err := EvalNonlinear(c.op, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%g) = %g, want %g", c.op, c.x, got, c.want)
		}
	}
	if _, err := EvalNonlinear(OpAdd, 1); err == nil {
		t.Error("EvalNonlinear(OpAdd) should fail")
	}
}

func TestLevelsAreMonotone(t *testing.T) {
	g := mustGraph(t, dsl.SourceBackprop, map[string]int{"IN": 6, "HID": 4, "OUT": 3})
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, a := range n.Args() {
			if g.Nodes[a].Level > n.Level {
				t.Fatalf("node %d level %d < arg %d level %d", i, n.Level, a, g.Nodes[a].Level)
			}
		}
	}
	// Heights: every non-sink node's height is 1 + max consumer height.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		cons := g.Consumers(int32(i))
		if len(cons) == 0 {
			if n.Height != 0 {
				t.Fatalf("sink node %d has height %d", i, n.Height)
			}
			continue
		}
		var want int32
		for _, c := range cons {
			want = max(want, g.Nodes[c].Height+1)
		}
		if n.Height != want {
			t.Fatalf("node %d height %d, want %d", i, n.Height, want)
		}
	}
}

func TestWidthProfileSumsToOps(t *testing.T) {
	g := mustGraph(t, dsl.SourceSVM, map[string]int{"M": 16})
	total := 0
	for _, w := range g.WidthProfile() {
		total += w
	}
	if total != g.NumOps() {
		t.Errorf("width profile sums to %d, NumOps = %d", total, g.NumOps())
	}
	if g.MaxWidth() <= 0 || g.AvgWidth() <= 0 {
		t.Errorf("degenerate widths: max %d avg %g", g.MaxWidth(), g.AvgWidth())
	}
}

func TestStorageWordsCountsAllClasses(t *testing.T) {
	g := mustGraph(t, dsl.SourceLogisticRegression, map[string]int{"M": 8})
	want := g.DataWords() + g.ModelWords() + g.NumOps()
	if got := g.StorageWords(); got != want {
		t.Errorf("storage = %d, want %d", got, want)
	}
}

func TestUnassignedGradientElementsDefaultToZero(t *testing.T) {
	g := mustGraph(t, `
gradient g[4];
iterator i[0:2];
model_input x[2];
g2 = 0;
gpartial[i] = x[i];
g[i] = gpartial[i];
aggregator sum;
`, nil)
	_ = g2Guard
	out, err := g.Eval(Bindings{Data: map[string][]float64{"x": {5, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if out["g"][0] != 5 || out["g"][1] != 7 || out["g"][2] != 0 || out["g"][3] != 0 {
		t.Errorf("g = %v", out["g"])
	}
}

// g2Guard exists only to keep the test above honest about unused interims.
var g2Guard = struct{}{}

func TestLHSIteratorOverflowRejected(t *testing.T) {
	u, err := dsl.ParseAndAnalyze(`
model w[16];
gradient g[8];
iterator i[0:9];
g[i] = w[i];
aggregator sum;
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(u); err == nil {
		t.Error("expected out-of-range error for iterator spilling past the dimension")
	}
}

func TestIndexOutOfRangeRejected(t *testing.T) {
	u, err := dsl.ParseAndAnalyze(`
model w[4];
gradient g;
iterator i[0:4];
g = sum[i](w[i + 1]);
aggregator sum;
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(u); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestAffineIndexing(t *testing.T) {
	g := mustGraph(t, `
model w[8];
gradient g[4];
iterator i[0:4];
g[i] = w[2 * i] + w[2 * i + 1];
aggregator sum;
`, nil)
	model := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	out, err := g.Eval(Bindings{Model: map[string][]float64{"w": model}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 11, 15}
	for i := range want {
		if out["g"][i] != want[i] {
			t.Errorf("g[%d] = %g, want %g", i, out["g"][i], want[i])
		}
	}
}

// TestEvalDeterministic is a property test: evaluation is a pure function of
// its bindings.
func TestEvalDeterministic(t *testing.T) {
	g := mustGraph(t, dsl.SourceSVM, map[string]int{"M": 5})
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 5)
		w := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		b := Bindings{
			Data:  map[string][]float64{"x": x, "y": {1}},
			Model: map[string][]float64{"w": w},
		}
		o1, err1 := g.Eval(b)
		o2, err2 := g.Eval(b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range o1["g"] {
			if o1["g"][i] != o2["g"][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEvalMissingBindings(t *testing.T) {
	g := mustGraph(t, dsl.SourceSVM, map[string]int{"M": 3})
	if _, err := g.Eval(Bindings{}); err == nil {
		t.Error("expected missing-binding error")
	}
}

func TestSummary(t *testing.T) {
	g := mustGraph(t, dsl.SourceLogisticRegression, map[string]int{"M": 8})
	s := g.Summary()
	if !s.Nonlinear {
		t.Error("logreg should report nonlinear ops")
	}
	if s.ComputeOps != g.NumOps() || s.CriticalPath != g.CriticalPath() {
		t.Error("summary disagrees with direct queries")
	}
	if s.MulOps == 0 || s.AddSubOps == 0 {
		t.Errorf("census: %+v", s)
	}
}
