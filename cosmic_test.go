package cosmic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ml"
)

func TestCompileEndToEnd(t *testing.T) {
	prog, err := Compile(SourceSVM, map[string]int{"M": 64}, UltraScalePlus, Options{MiniBatch: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Plan().Threads < 1 || prog.Plan().Columns != 128 {
		t.Errorf("plan = %v", prog.Plan())
	}
	if prog.MiniBatch() != 10000 { // declared in the DSL source
		t.Errorf("mini-batch = %d", prog.MiniBatch())
	}
	if s := prog.Stats(); s.ComputeOps == 0 || s.DataWords != 65 {
		t.Errorf("stats = %+v", s)
	}
	if d := prog.Describe(); !strings.Contains(d, "CoSMIC") {
		t.Errorf("Describe() = %q", d)
	}
	est, err := prog.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.BatchCycles(10) <= 0 {
		t.Error("estimate degenerate")
	}
}

func TestCompileVerilogBothKinds(t *testing.T) {
	for _, chip := range []Chip{UltraScalePlus, PASICF} {
		prog, err := Compile(SourceLogisticRegression, map[string]int{"M": 32}, chip, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rtl, err := prog.Verilog()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rtl, "module cosmic_top") {
			t.Errorf("%s: RTL missing top module", chip.Name)
		}
	}
}

func TestCompileTABLABaseline(t *testing.T) {
	prog, err := Compile(SourceSVM, map[string]int{"M": 32}, UltraScalePlus, Options{TABLABaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Plan().Threads != 1 {
		t.Errorf("TABLA baseline must be single-threaded, got %d threads", prog.Plan().Threads)
	}
	if !strings.Contains(prog.Describe(), "TABLA") {
		t.Errorf("Describe() = %q", prog.Describe())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("this is not DSL", nil, UltraScalePlus, Options{}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Compile(SourceSVM, nil, UltraScalePlus, Options{}); err == nil {
		t.Error("expected missing-parameter error")
	}
}

func TestTrainDistributedQuickstart(t *testing.T) {
	bench, err := BenchmarkByName("face")
	if err != nil {
		t.Fatal(err)
	}
	alg := bench.Algorithm(0.02) // scaled geometry for a fast test
	data := bench.Generate(alg, 240, 1)
	model := alg.InitModel(rand.New(rand.NewSource(7)))

	res, err := Train(alg, data, model, ClusterConfig{
		Nodes: 4, Groups: 2, Threads: 2,
		MiniBatch:    80,
		LearningRate: bench.DefaultLR(alg),
		Average:      true,
		Rounds:       20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("training did not reduce loss: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
	if res.Rounds != 20 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

// TestTrainOnSimulatedAccelerator drives the whole stack end to end: DSL →
// plan → schedule → cycle-level simulator as each node's compute engine →
// distributed aggregation over TCP.
func TestTrainOnSimulatedAccelerator(t *testing.T) {
	bench, err := BenchmarkByName("tumor")
	if err != nil {
		t.Fatal(err)
	}
	alg := bench.Algorithm(0.008) // tiny geometry: the simulator is cycle-level
	prog, err := Compile(SourceLogisticRegression, alg.DSLParams(), UltraScalePlus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := bench.Generate(alg, 96, 2)
	model := alg.InitModel(rand.New(rand.NewSource(8)))

	res, err := Train(alg, data, model, ClusterConfig{
		Nodes: 2, Groups: 1,
		MiniBatch:    48,
		LearningRate: bench.DefaultLR(alg),
		Average:      true,
		UseSimulator: true,
		Prog:         prog,
		Rounds:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.InitialLoss {
		t.Errorf("simulated training did not reduce loss: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
	if res.AccelCycles <= 0 {
		t.Errorf("no accelerator cycles recorded")
	}
}

func TestTrainValidatesConfig(t *testing.T) {
	bench, _ := BenchmarkByName("face")
	alg := bench.Algorithm(0.02)
	if _, err := Train(alg, nil, make([]float64, alg.ModelSize()),
		ClusterConfig{UseSimulator: true}); err == nil {
		t.Error("expected error: simulator without program")
	}
}

// TestNewModelThroughWholeStack demonstrates the extensibility claim: a
// model the paper never benchmarked (softmax regression) compiles, plans,
// simulates and verifies with no changes to any stack layer.
func TestNewModelThroughWholeStack(t *testing.T) {
	alg := &ml.Softmax{M: 8, C: 3}
	prog, err := Compile(SourceSoftmax, alg.DSLParams(), UltraScalePlus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Stats().Nonlinear {
		t.Error("softmax must use the nonlinear unit (exp, divide)")
	}
	rtl, err := prog.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtl, "cosmic_nl_lut") {
		t.Error("softmax RTL must instantiate the LUT unit")
	}

	// Simulate a batch and verify against the reference gradients.
	rng := rand.New(rand.NewSource(77))
	model := alg.InitModel(rng)
	batch := make([]ml.Sample, 8)
	for i := range batch {
		s := ml.Sample{X: make([]float64, alg.M), Y: make([]float64, alg.C)}
		for j := range s.X {
			s.X[j] = rng.NormFloat64()
		}
		s.Y[rng.Intn(alg.C)] = 1
		batch[i] = s
	}
	threads := prog.Plan().Threads
	parts := make([][]map[string][]float64, threads)
	for ti, part := range ml.Partition(batch, threads) {
		for _, smp := range part {
			parts[ti] = append(parts[ti], alg.PackSample(smp))
		}
	}
	res, err := prog.Simulator().RunBatch(alg.PackModel(model), parts, 0.1, dsl.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	want := ml.AccumulateGradients(alg, model, batch)
	got := alg.UnpackGradient(res.Partial)
	// A tolerance, not bits: the sum aggregator's partial adds the threads'
	// gradient sums where the reference adds every sample's in one chain,
	// and softmax's normalizing Σ of exps is a serial sum in the reference.
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("Σg[%d] = %g simulated, %g reference", i, got[i], want[i])
		}
	}
}
