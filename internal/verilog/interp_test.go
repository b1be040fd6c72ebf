package verilog

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/ml"
)

// packStream lays a sample out in the training vector's memory order.
func packStream(img *Image, alg ml.Algorithm, s ml.Sample) []float64 {
	prog := img.Prog
	bind := alg.PackSample(s)
	stream := make([]float64, len(prog.DataStream))
	for k, id := range prog.DataStream {
		if id < 0 {
			continue
		}
		stream[k] = bind[prog.Graph.Var(int32(id))][prog.Graph.Nodes[id].Index]
	}
	return stream
}

// packBroadcast lays the model out in broadcast order.
func packBroadcast(img *Image, alg ml.Algorithm, model []float64) []float64 {
	prog := img.Prog
	bind := alg.PackModel(model)
	words := make([]float64, len(prog.ModelStream))
	for k, id := range prog.ModelStream {
		words[k] = bind[prog.Graph.Var(int32(id))][prog.Graph.Nodes[id].Index]
	}
	return words
}

// TestMachineMatchesDFGEvaluation is the circuit layer's end-to-end proof:
// executing the *encoded control programs* (the exact content of the
// microcode ROMs / FSMs) over loaded buffers reproduces the DFG evaluator's
// gradients bit for bit, for every algorithm family.
func TestMachineMatchesDFGEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	algs := []ml.Algorithm{
		&ml.LinearRegression{M: 16},
		&ml.LogisticRegression{M: 12},
		&ml.SVM{M: 16},
		&ml.MLP{In: 6, Hid: 4, Out: 2},
		&ml.CF{NU: 4, NV: 6, K: 3},
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			img := imageFor(t, alg, fpgaChip, 1, 2)
			mach := NewMachine(img)
			for trial := 0; trial < 5; trial++ {
				model := alg.InitModel(rng)
				s := sampleFor(alg, rng)

				if err := mach.LoadModel(packBroadcast(img, alg, model)); err != nil {
					t.Fatal(err)
				}
				if err := mach.LoadVector(packStream(img, alg, s)); err != nil {
					t.Fatal(err)
				}
				if err := mach.Run(); err != nil {
					t.Fatal(err)
				}
				got, err := mach.Gradient()
				if err != nil {
					t.Fatal(err)
				}
				want, err := img.Prog.Graph.Eval(dfg.Bindings{
					Data:  alg.PackSample(s),
					Model: alg.PackModel(model),
				})
				if err != nil {
					t.Fatal(err)
				}
				for name, wv := range want {
					for i := range wv {
						if got[name][i] != wv[i] {
							t.Fatalf("trial %d: %s[%d] = %g from microcode, %g from DFG",
								trial, name, i, got[name][i], wv[i])
						}
					}
				}
			}
		})
	}
}

// TestMachineAccumulatesAcrossVectors: the Acc tail builds Σ gradients over
// a batch, matching the reference accumulation.
func TestMachineAccumulatesAcrossVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	alg := &ml.SVM{M: 12}
	img := imageFor(t, alg, fpgaChip, 1, 1)
	mach := NewMachine(img)

	model := alg.InitModel(rng)
	if err := mach.LoadModel(packBroadcast(img, alg, model)); err != nil {
		t.Fatal(err)
	}
	batch := make([]ml.Sample, 6)
	for i := range batch {
		batch[i] = sampleFor(alg, rng)
	}
	for _, s := range batch {
		if err := mach.LoadVector(packStream(img, alg, s)); err != nil {
			t.Fatal(err)
		}
		if err := mach.Run(); err != nil {
			t.Fatal(err)
		}
		if err := mach.Accumulate(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mach.Accumulated()
	if err != nil {
		t.Fatal(err)
	}
	want := ml.AccumulateGradients(alg, model, batch)
	flat := alg.UnpackGradient(got)
	for i := range want {
		if math.Abs(flat[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("Σg[%d] = %g from microcode, %g from reference", i, flat[i], want[i])
		}
	}
}

func TestMachineLoadValidation(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 8}, fpgaChip, 1, 1)
	mach := NewMachine(img)
	if err := mach.LoadVector(make([]float64, 3)); err == nil {
		t.Error("short vector accepted")
	}
	if err := mach.LoadModel(make([]float64, 3)); err == nil {
		t.Error("short model accepted")
	}
}

func TestMicrocodeBusRoutingWords(t *testing.T) {
	ins := Instruction{
		Opc: OpcAdd,
		Srcs: []Operand{
			{Class: ClsInterim, Index: 1},
			{Class: ClsBus, Index: 7, SrcPE: 42, SrcClass: ClsInterim},
		},
		Dst: 2,
	}
	words := ins.AppendMicrocode(nil)
	if len(words) != 3 {
		t.Fatalf("bus operand should add a routing word: got %d words", len(words))
	}
	route := words[2]
	if OperandClass(route>>29) != ClsInterim {
		t.Errorf("routing class = %v", OperandClass(route>>29))
	}
	if pe := route >> 16 & 0x1fff; pe != 42 {
		t.Errorf("routing PE = %d", pe)
	}
	if slot := route & 0xffff; slot != 7 {
		t.Errorf("routing slot = %d", slot)
	}
}

// sampleFor generates a valid random sample for any family.
func sampleFor(alg ml.Algorithm, rng *rand.Rand) ml.Sample {
	s := ml.Sample{X: make([]float64, alg.FeatureSize()), Y: make([]float64, alg.OutputSize())}
	switch a := alg.(type) {
	case *ml.CF:
		s.X[rng.Intn(a.NU)] = 1
		s.X[a.NU+rng.Intn(a.NV)] = 1
		s.Y[0] = 1 + 4*rng.Float64()
	case *ml.SVM:
		for j := range s.X {
			s.X[j] = rng.NormFloat64()
		}
		s.Y[0] = float64(2*rng.Intn(2) - 1)
	default:
		for j := range s.X {
			s.X[j] = rng.NormFloat64()
		}
		for k := range s.Y {
			s.Y[k] = rng.Float64()
		}
	}
	return s
}

// TestMicrocodeRoundTrip: Disassemble(AppendMicrocode(x)) == x for every
// instruction of every PE's control program, across algorithm families.
func TestMicrocodeRoundTrip(t *testing.T) {
	algs := []ml.Algorithm{
		&ml.SVM{M: 16},
		&ml.MLP{In: 6, Hid: 4, Out: 2},
		&ml.Softmax{M: 6, C: 3},
	}
	for _, alg := range algs {
		img := imageFor(t, alg, pasicChip, 2, 1)
		for pe, p := range img.PEs {
			var words []uint32
			for _, ins := range p.Instructions {
				words = ins.AppendMicrocode(words)
			}
			got, err := Disassemble(words)
			if err != nil {
				t.Fatalf("%s PE %d: %v", alg.Name(), pe, err)
			}
			if len(got) != len(p.Instructions) {
				t.Fatalf("%s PE %d: %d instructions decoded, want %d",
					alg.Name(), pe, len(got), len(p.Instructions))
			}
			for k, want := range p.Instructions {
				if !instructionsEqual(got[k], want) {
					t.Fatalf("%s PE %d ins %d:\n got  %v\n want %v",
						alg.Name(), pe, k, got[k], want)
				}
			}
		}
	}
}

func instructionsEqual(a, b Instruction) bool {
	if a.Opc != b.Opc || a.Dst != b.Dst || len(a.Srcs) != len(b.Srcs) {
		return false
	}
	for i := range a.Srcs {
		x, y := a.Srcs[i], b.Srcs[i]
		if x.Class != y.Class || x.Index != y.Index {
			return false
		}
		if x.Class == ClsBus && (x.SrcPE != y.SrcPE || x.SrcClass != y.SrcClass) {
			return false
		}
	}
	return true
}

func TestDisassembleRejectsGarbage(t *testing.T) {
	if _, err := Disassemble([]uint32{0xff000002}); err == nil {
		t.Error("unknown opcode accepted")
	}
	if _, err := Disassemble([]uint32{uint32(OpcAdd) << 24}); err == nil {
		t.Error("truncated instruction accepted")
	}
	// A bus operand with no routing word.
	w0 := uint32(OpcAdd)<<24 | uint32(ClsBus)<<21 | 1
	if _, err := Disassemble([]uint32{w0, 0}); err == nil {
		t.Error("missing routing word accepted")
	}
}

func TestInstructionString(t *testing.T) {
	ins := Instruction{
		Opc: OpcMul,
		Srcs: []Operand{
			{Class: ClsData, Index: 3},
			{Class: ClsBus, Index: 9, SrcPE: 7, SrcClass: ClsInterim},
		},
		Dst: 5,
	}
	s := ins.String()
	for _, want := range []string{"MUL", "DATA[3]", "BUS(pe7.INTERIM[9])", "INTERIM[5]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
