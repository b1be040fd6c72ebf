package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vec"
)

// The pass oracle runs SGD as separate passes over a gradient vector — copy,
// Gradient into scratch, AXPY, fold, Scale — each a scalar loop of its own,
// not a vec kernel. Every kernel, the fused rank-1 ones included, must
// produce its bits.

func oracleAXPY(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

func oracleScale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// eachKernel runs f on the vec kernels in use and, where those are the AVX
// ones, again as subtest "portable" on their Go loops.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	f(t)
	if vec.Accelerated() {
		t.Run("portable", func(t *testing.T) {
			defer vec.SetAccelerated(false)()
			f(t)
		})
	}
}

func oracleLocalSGD(a Algorithm, model []float64, samples []Sample, lr float64) []float64 {
	local := append([]float64(nil), model...)
	scratch := make([]float64, len(model))
	for _, s := range samples {
		a.Gradient(local, s, scratch)
		oracleAXPY(-lr, scratch, local)
	}
	return local
}

func oracleAccumulate(a Algorithm, model []float64, samples []Sample) []float64 {
	acc := make([]float64, len(model))
	scratch := make([]float64, len(model))
	for _, s := range samples {
		a.Gradient(model, s, scratch)
		oracleAXPY(1, scratch, acc)
	}
	return acc
}

func oracleParallel(a Algorithm, cfg SGDConfig, model []float64, batch []Sample, workers int) []float64 {
	out := make([]float64, len(model))
	if cfg.Aggregator == dsl.AggSum {
		copy(out, model)
	}
	scale := -cfg.LearningRate
	if cfg.MiniBatch > 0 {
		scale /= float64(cfg.MiniBatch)
	}
	for _, part := range Partition(batch, workers) {
		switch cfg.Aggregator {
		case dsl.AggAverage:
			oracleAXPY(1, oracleLocalSGD(a, model, part, cfg.LearningRate), out)
		case dsl.AggSum:
			oracleAXPY(scale, oracleAccumulate(a, model, part), out)
		}
	}
	if cfg.Aggregator == dsl.AggAverage {
		oracleScale(1/float64(workers), out)
	}
	return out
}

// edgeValue draws a weight or feature: mostly N(0, 1), often ±0, and, at
// the given level, denormals (level ≥ 1) and ±Inf and NaN (level 2).
func edgeValue(rng *rand.Rand, level int) float64 {
	switch r := rng.Intn(100); {
	case r < 12:
		return 0
	case r < 24:
		return math.Copysign(0, -1)
	case r < 30 && level >= 1:
		// Down to a few ulps of the smallest denormal, so that products
		// with it underflow to ±0.
		return math.Ldexp(float64(2*rng.Intn(2)-1)*float64(1+rng.Intn(4)), -1074+40*rng.Intn(2))
	case r < 31 && level >= 2:
		return math.Inf(2*rng.Intn(2) - 1)
	case r < 32 && level >= 2:
		return math.NaN()
	}
	return rng.NormFloat64()
}

// edgeBatch draws n samples for a, with edge values in the features of the
// linear families. SVM samples fall below its margin, exactly at it (a
// weight set to 0.5 and a feature to 2y, all others ±0) or far above it.
func edgeBatch(rng *rand.Rand, a Algorithm, model []float64, n, level int) []Sample {
	batch := make([]Sample, n)
	for i := range batch {
		s := randomSample(a, rng)
		switch a.(type) {
		case *MLP, *CF:
		case *SVM:
			y := s.Y[0]
			switch rng.Intn(3) {
			case 0:
				for j := range s.X {
					s.X[j] = edgeValue(rng, level)
				}
			case 1:
				k := rng.Intn(len(model))
				model[k] = 0.5
				for j := range s.X {
					s.X[j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
				s.X[k] = 2 * y
			case 2:
				for j := range s.X {
					s.X[j] = 1e6 * y * model[j]
				}
			}
		default:
			for j := range s.X {
				s.X[j] = edgeValue(rng, level)
			}
		}
		batch[i] = s
	}
	return batch
}

// TestKernelsMatchPassOracleBitwise: LocalSGD, AccumulateGradients,
// ParallelSGDBatch and both *Into kernels equal the pass oracle bit for bit,
// for every family, both aggregators, 1–4 workers and 0–9 samples (so some
// partitions are empty), on inputs holding ±0, denormals, ±Inf and NaN. A
// negative learning rate pins the rank-1 path's gate: its zero-gradient skip
// would not be exact there.
func TestKernelsMatchPassOracleBitwise(t *testing.T) { eachKernel(t, testKernelsMatchPassOracle) }

func testKernelsMatchPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Bits must be equal, NaN payloads aside: the compiler may put either
	// operand of a commutative add first, and that picks which NaN survives.
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, a := range testAlgorithms() {
		var ws Workspace
		for level := 0; level <= 2; level++ {
			for _, lr := range []float64{0.03, -0.03} {
				for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
					for workers := 1; workers <= 4; workers++ {
						for n := 0; n <= 9; n++ {
							model := a.InitModel(rng)
							if _, ok := a.(rank1); ok {
								for j := range model {
									model[j] = 0.01 * edgeValue(rng, level)
								}
							}
							batch := edgeBatch(rng, a, model, n, level)
							cfg := SGDConfig{LearningRate: lr, MiniBatch: 2 * workers, Aggregator: agg}
							where := fmt.Sprintf("%s, level %d, lr %g, %v, %d workers, %d samples", a.Name(), level, lr, agg, workers, n)
							if !same(LocalSGD(a, model, batch, lr), oracleLocalSGD(a, model, batch, lr)) {
								t.Errorf("%s: LocalSGD differs from the pass oracle", where)
							}
							want := oracleAccumulate(a, model, batch)
							if !same(AccumulateGradients(a, model, batch), want) {
								t.Errorf("%s: AccumulateGradients differs from the pass oracle", where)
							}
							if !same(AccumulateGradientsInto(&ws, a, model, batch), want) {
								t.Errorf("%s: AccumulateGradientsInto differs from the pass oracle", where)
							}
							want = oracleParallel(a, cfg, model, batch, workers)
							if !same(ParallelSGDBatch(a, cfg, model, batch, workers), want) {
								t.Errorf("%s: ParallelSGDBatch differs from the pass oracle", where)
							}
							if !same(ParallelSGDBatchInto(&ws, a, cfg, model, batch, workers), want) {
								t.Errorf("%s: ParallelSGDBatchInto differs from the pass oracle", where)
							}
						}
					}
				}
			}
		}
	}
}
