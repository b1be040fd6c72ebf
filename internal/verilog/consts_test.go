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
	u, err := dsl.ParseAndAnalyze(signedZeroNaNSource, map[string]int{"M": 2})
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

	data := map[string][]float64{"x": {0.5, -2}, "y": {1}}
	model := map[string][]float64{"w": {3, 0.25}}
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
	got, err := mach.Gradient()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Eval(dfg.Bindings{Data: data, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g", "h"} {
		for i, wv := range want[name] {
			if !math.IsNaN(wv) {
				t.Fatalf("%s[%d] = %g from the graph; the program should produce NaN", name, i, wv)
			}
			if math.Float64bits(got[name][i]) != math.Float64bits(wv) {
				t.Errorf("%s[%d] = %g from the machine, %g from the graph", name, i, got[name][i], wv)
			}
		}
	}
}
