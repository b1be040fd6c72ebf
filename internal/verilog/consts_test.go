package verilog

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// signedZeroNaNSource divides by w·(−0) and w·(+0), whose infinities cancel
// to NaN only when the two zeros stay distinct immediates, and adds a NaN
// constant (folded from ∞ − ∞) that must reach the ALU as NaN.
const signedZeroNaNSource = `
model_input x[M];
model_output y;
model w[M];
gradient g[M];
gradient h[M];
iterator i[0:M];

g[i] = 1/(w[i]*-0) + 0*x[i] + 1/(w[i]*0);
h[i] = x[i] + (1e308*10 - 1e308*10);

aggregator average;
minibatch 1;
learning_rate = 0.1;
`

// TestMachineKeepsSignedZeroAndNaNImmediates: the immediate table keeps −0
// and +0 apart and gives a NaN constant its own entry, so the encoded
// program computes what the graph computes, bit for bit.
func TestMachineKeepsSignedZeroAndNaNImmediates(t *testing.T) {
	got, want := runMachineAndGraph(t, signedZeroNaNSource,
		map[string][]float64{"x": {0.5, -2}, "y": {1}}, map[string][]float64{"w": {3, 0.25}})
	requireNaNBitsEqual(t, got, want, "g", "h")
}

// gaussianSource applies the Gaussian to a product that passes a NaN input
// through with its sign.
const gaussianSource = `
model_input x[M];
model_output y;
model w[M];
gradient g[M];
iterator i[0:M];

g[i] = gaussian(x[i]*w[i]);

aggregator average;
minibatch 1;
learning_rate = 0.1;
`

// TestMachineGaussianKeepsNaNSign: the machine's Gaussian is exp(−(x·x)),
// as Graph.Eval's is, so a NaN input of either sign comes out with the
// graph's bits; (−x)·x would take the sign from whichever operand the
// multiply returns.
func TestMachineGaussianKeepsNaNSign(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000001)
	got, want := runMachineAndGraph(t, gaussianSource,
		map[string][]float64{"x": {negNaN, math.NaN()}, "y": {1}}, map[string][]float64{"w": {1, 1}})
	requireNaNBitsEqual(t, got, want, "g")
}

// runMachineAndGraph compiles src at M = 2, runs the encoded program on the
// machine over one vector and evaluates the graph on the same bindings.
func runMachineAndGraph(t *testing.T, src string, data, model map[string][]float64) (got, want map[string][]float64) {
	t.Helper()
	u, err := dsl.ParseAndAnalyze(src, map[string]int{"M": 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	plan := arch.Plan{Chip: fpgaChip, Columns: fpgaChip.Columns(), Threads: 1, RowsPerThread: 1}
	prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Encode(prog)
	if err != nil {
		t.Fatal(err)
	}

	mach := NewMachine(img)
	stream := make([]float64, len(prog.DataStream))
	for k, id := range prog.DataStream {
		if id >= 0 {
			stream[k] = data[g.Var(int32(id))][g.Nodes[id].Index]
		}
	}
	words := make([]float64, len(prog.ModelStream))
	for k, id := range prog.ModelStream {
		words[k] = model[g.Var(int32(id))][g.Nodes[id].Index]
	}
	if err := mach.LoadVector(stream); err != nil {
		t.Fatal(err)
	}
	if err := mach.LoadModel(words); err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if got, err = mach.Gradient(); err != nil {
		t.Fatal(err)
	}
	if want, err = g.Eval(dfg.Bindings{Data: data, Model: model}); err != nil {
		t.Fatal(err)
	}
	return got, want
}

// requireNaNBitsEqual requires every element of the named gradients to be a
// NaN in the graph and the same bits from the machine.
func requireNaNBitsEqual(t *testing.T, got, want map[string][]float64, names ...string) {
	t.Helper()
	for _, name := range names {
		for i, wv := range want[name] {
			if !math.IsNaN(wv) {
				t.Fatalf("%s[%d] = %g from the graph; the program should produce NaN", name, i, wv)
			}
			if math.Float64bits(got[name][i]) != math.Float64bits(wv) {
				t.Errorf("%s[%d] = %#x from the machine, %#x from the graph",
					name, i, math.Float64bits(got[name][i]), math.Float64bits(wv))
			}
		}
	}
}
