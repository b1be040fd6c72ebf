package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/dsl"
)

// testAlgorithms returns one small instance of every family.
func testAlgorithms() []Algorithm {
	return []Algorithm{
		&LinearRegression{M: 7},
		&LogisticRegression{M: 7},
		&SVM{M: 7},
		&MLP{In: 5, Hid: 4, Out: 3},
		&CF{NU: 4, NV: 5, K: 3},
	}
}

func randomSample(a Algorithm, rng *rand.Rand) Sample {
	s := Sample{X: make([]float64, a.FeatureSize()), Y: make([]float64, a.OutputSize())}
	switch alg := a.(type) {
	case *CF:
		// One-hot user and item plus a rating.
		s.X[rng.Intn(alg.NU)] = 1
		s.X[alg.NU+rng.Intn(alg.NV)] = 1
		s.Y[0] = 1 + 4*rng.Float64()
	case *SVM:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		s.Y[0] = float64(2*rng.Intn(2) - 1) // ±1
	case *LogisticRegression:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		s.Y[0] = float64(rng.Intn(2))
	default:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		for k := range s.Y {
			s.Y[k] = rng.Float64()
		}
	}
	return s
}

// TestGradientMatchesFiniteDifference validates every family's analytic
// gradient against a central finite difference of its loss.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range testAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				model := a.InitModel(rng)
				s := randomSample(a, rng)
				if a.Name() == "svm" {
					// The hinge subgradient is discontinuous at margin 1;
					// keep the test point away from the kink.
					if math.Abs(1-s.Y[0]*Dot(model, s.X)) < 1e-3 {
						continue
					}
				}
				grad := make([]float64, a.ModelSize())
				a.Gradient(model, s, grad)
				const h = 1e-6
				for i := 0; i < a.ModelSize(); i++ {
					orig := model[i]
					model[i] = orig + h
					lp := a.Loss(model, s)
					model[i] = orig - h
					lm := a.Loss(model, s)
					model[i] = orig
					num := (lp - lm) / (2 * h)
					if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("trial %d: dL/dw[%d]: analytic %g, numeric %g", trial, i, grad[i], num)
					}
				}
			}
		})
	}
}

// TestGradientMatchesDFG checks that the hand-written gradients agree with
// functional evaluation of the DSL program's dataflow graph — i.e. that the
// DSL programs faithfully express the same algorithms.
func TestGradientMatchesDFG(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, a := range testAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			unit, err := dsl.ParseAndAnalyze(a.DSLSource(), a.DSLParams())
			if err != nil {
				t.Fatal(err)
			}
			graph, err := dfg.Translate(unit)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.Validate(); err != nil {
				t.Fatal(err)
			}
			tape, err := graph.CompileTape()
			if err != nil {
				t.Fatal(err)
			}
			arena := tape.NewArena()
			for trial := 0; trial < 10; trial++ {
				model := a.InitModel(rng)
				s := randomSample(a, rng)
				want := make([]float64, a.ModelSize())
				a.Gradient(model, s, want)
				bind := dfg.Bindings{
					Data:  a.PackSample(s),
					Model: a.PackModel(model),
				}
				outs, err := graph.Eval(bind)
				if err != nil {
					t.Fatal(err)
				}
				// The compiled tape must reproduce the interpreter
				// bit-for-bit.
				tapeOuts, err := arena.EvalBindings(bind)
				if err != nil {
					t.Fatal(err)
				}
				for name, ov := range outs {
					for i := range ov {
						if math.Float64bits(ov[i]) != math.Float64bits(tapeOuts[name][i]) {
							t.Fatalf("trial %d: tape %s[%d] = %g, interpreter %g",
								trial, name, i, tapeOuts[name][i], ov[i])
						}
					}
				}
				got := a.UnpackGradient(outs)
				if len(got) != len(want) {
					t.Fatalf("gradient length %d, want %d", len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("trial %d: g[%d] = %g via DFG, %g via reference", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestPartitionProperties(t *testing.T) {
	check := func(n uint8, parts uint8) bool {
		p := int(parts%16) + 1
		samples := make([]Sample, int(n))
		out := Partition(samples, p)
		if len(out) != p {
			return false
		}
		total := 0
		minLen, maxLen := len(samples), 0
		for _, part := range out {
			total += len(part)
			if len(part) < minLen {
				minLen = len(part)
			}
			if len(part) > maxLen {
				maxLen = len(part)
			}
		}
		// All samples covered exactly once and balanced within one.
		return total == len(samples) && maxLen-minLen <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAggregateAverageIdentity: averaging identical partials returns the
// partial itself.
func TestAggregateAverageIdentity(t *testing.T) {
	check := func(vals []float64, n uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		k := int(n%5) + 1
		partials := make([][]float64, k)
		for i := range partials {
			partials[i] = vals
		}
		cfg := SGDConfig{Aggregator: dsl.AggAverage}
		out := AggregateModels(cfg, make([]float64, len(vals)), partials)
		for i := range vals {
			if math.Abs(out[i]-vals[i]) > 1e-9*(1+math.Abs(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestParallelSGDSingleWorkerMatchesSequential: with one worker and the
// averaging aggregator, a parallel batch is exactly sequential local SGD.
func TestParallelSGDSingleWorkerMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := &LinearRegression{M: 6}
	model := a.InitModel(rng)
	batch := make([]Sample, 32)
	for i := range batch {
		batch[i] = randomSample(a, rng)
	}
	cfg := SGDConfig{LearningRate: 0.05, Aggregator: dsl.AggAverage}
	got := ParallelSGDBatch(a, cfg, model, batch, 1)
	want := LocalSGD(a, model, batch, 0.05)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("w[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestTrainConverges: every family's loss decreases over training on
// learnable synthetic data.
func TestTrainConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, a := range testAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			truth := a.InitModel(rng)
			// Make the ground truth meaningful for linear families.
			for i := range truth {
				truth[i] = rng.NormFloat64()
			}
			data := make([]Sample, 256)
			for i := range data {
				s := randomSample(a, rng)
				// Relabel from the ground-truth model so the problem is
				// learnable.
				switch a.(type) {
				case *LinearRegression:
					s.Y[0] = Dot(truth, s.X)
				case *LogisticRegression:
					if sigmoid(Dot(truth, s.X)) > 0.5 {
						s.Y[0] = 1
					} else {
						s.Y[0] = 0
					}
				case *SVM:
					if Dot(truth, s.X) >= 0 {
						s.Y[0] = 1
					} else {
						s.Y[0] = -1
					}
				}
				data[i] = s
			}
			model := a.InitModel(rng)
			lr := 0.05
			if a.Name() == "backprop" {
				lr = 0.5
			}
			cfg := SGDConfig{LearningRate: lr, MiniBatch: 64, Aggregator: dsl.AggAverage}
			res := Train(a, cfg, model, data, 4, 8)
			first, last := res.LossPerEpoch[0], res.LossPerEpoch[len(res.LossPerEpoch)-1]
			initial := MeanLoss(a, model, data)
			if last >= initial {
				t.Errorf("loss did not improve: initial %g, epochs %v", initial, res.LossPerEpoch)
			}
			if last > first {
				t.Errorf("loss increased across epochs: %g -> %g", first, last)
			}
		})
	}
}

// TestAggregatorSumMode checks the batched-gradient-descent path performs
// the θ − μ/b Σg update.
func TestAggregatorSumMode(t *testing.T) {
	a := &LinearRegression{M: 3}
	model := []float64{1, 2, 3}
	batch := []Sample{
		{X: []float64{1, 0, 0}, Y: []float64{0}},
		{X: []float64{0, 1, 0}, Y: []float64{0}},
	}
	cfg := SGDConfig{LearningRate: 0.1, MiniBatch: 2, Aggregator: dsl.AggSum}
	got := ParallelSGDBatch(a, cfg, model, batch, 2)
	// Gradients: sample0 -> (w·x − y)x = (1,0,0); sample1 -> (0,2,0).
	// Update: θ − 0.1/2 · Σg = (1−0.05, 2−0.1, 3).
	want := []float64{0.95, 1.9, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("w[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Errorf("Dot = %g", d)
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestMeanLossEmpty(t *testing.T) {
	a := &SVM{M: 2}
	if l := MeanLoss(a, []float64{0, 0}, nil); l != 0 {
		t.Errorf("MeanLoss(empty) = %g", l)
	}
}

// TestWorkspaceKernelsMatchOracleBitwise: the *Into kernels run the oracle's
// passes in the oracle's order through reused memory, so for every family,
// aggregator and worker count the result must equal ParallelSGDBatch /
// AccumulateGradients bit for bit — on a fresh workspace and on one that
// still holds another batch's vectors.
func TestWorkspaceKernelsMatchOracleBitwise(t *testing.T) {
	eachKernel(t, testWorkspaceKernelsMatchOracle)
}

func testWorkspaceKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, a := range testAlgorithms() {
		var ws Workspace
		for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
			for workers := 1; workers <= 4; workers++ {
				cfg := SGDConfig{LearningRate: 0.03, MiniBatch: 2 * workers, Aggregator: agg}
				model := a.InitModel(rng)
				batch := make([]Sample, 9)
				for i := range batch {
					batch[i] = randomSample(a, rng)
				}
				want := ParallelSGDBatch(a, cfg, model, batch, workers)
				if got := ParallelSGDBatchInto(&ws, a, cfg, model, batch, workers); !same(got, want) {
					t.Errorf("%s, %v, %d workers: ParallelSGDBatchInto differs from ParallelSGDBatch", a.Name(), agg, workers)
				}
				want = AccumulateGradients(a, model, batch)
				if got := AccumulateGradientsInto(&ws, a, model, batch); !same(got, want) {
					t.Errorf("%s: AccumulateGradientsInto differs from AccumulateGradients", a.Name())
				}
			}
		}
	}
}

// TestUnpackModelRoundTrip: PackModel followed by UnpackModel is the
// identity on the flat layout.
func TestUnpackModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, a := range testAlgorithms() {
		model := a.InitModel(rng)
		back := UnpackModel(a, a.PackModel(model))
		for i := range model {
			if model[i] != back[i] {
				t.Fatalf("%s: θ[%d] = %g after round trip, want %g", a.Name(), i, back[i], model[i])
			}
		}
	}
}
