package accel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dsl"
	"repro/internal/ml"
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

// oracleRunBatch is RunBatch's functional contract written the slow, obvious
// way: every simulated thread runs alone on its own scalar dfg.Arena over its
// own copy of the model, and the threads are then reduced in ascending order.
// It returns the partial, or the lowest-indexed thread's error.
func oracleRunBatch(t *testing.T, prog *compiler.Program, model map[string][]float64,
	parts [][]map[string][]float64, lr float64, agg dsl.AggregatorKind) (map[string][]float64, error) {

	t.Helper()
	tape, err := prog.Graph.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := prog.Graph.Unit.ModelGradientPairs()
	if err != nil {
		t.Fatal(err)
	}
	threads := len(parts)
	locals := make([]map[string][]float64, threads)
	sums := make([]map[string][]float64, threads)
	for th := range parts {
		locals[th] = map[string][]float64{}
		for name, v := range model {
			locals[th][name] = slices.Clone(v)
		}
		sums[th] = map[string][]float64{}
		for name, outs := range prog.Graph.Outputs {
			sums[th][name] = make([]float64, len(outs))
		}
		arena := tape.NewArena()
		if err := arena.BindModel(locals[th]); err != nil {
			return nil, err
		}
		for _, data := range parts[th] {
			if err := arena.BindData(data); err != nil {
				return nil, err
			}
			grads := arena.Eval()
			switch agg {
			case dsl.AggAverage:
				for _, pr := range pairs {
					m, g := locals[th][pr[0].Name], grads[pr[1].Name]
					for i := range m {
						m[i] -= lr * g[i]
					}
				}
				if err := arena.BindModel(locals[th]); err != nil {
					return nil, err
				}
			case dsl.AggSum:
				// cosmic:ordered — each key accumulates into its own vector.
				for name, g := range grads {
					for i := range g {
						sums[th][name][i] += g[i]
					}
				}
			}
		}
	}
	partial := map[string][]float64{}
	for _, pr := range pairs {
		per, name := locals, pr[0].Name
		if agg == dsl.AggSum {
			per, name = sums, pr[1].Name
		}
		out := make([]float64, len(per[0][name]))
		for th := 0; th < threads; th++ {
			for i, v := range per[th][name] {
				out[i] += v
			}
		}
		if agg == dsl.AggAverage {
			for i := range out {
				out[i] /= float64(threads)
			}
		}
		partial[name] = out
	}
	return partial, nil
}

// dealCounts cuts batch into sub-partitions of the given sizes.
func dealCounts(alg ml.Algorithm, batch []ml.Sample, counts []int) [][]map[string][]float64 {
	parts := make([][]map[string][]float64, len(counts))
	for th, n := range counts {
		for _, s := range batch[:n] {
			parts[th] = append(parts[th], alg.PackSample(s))
		}
		batch = batch[n:]
	}
	return parts
}

// TestRunBatchUnevenPartitions: for every Table 1 family, both aggregators
// and every worker count, RunBatch equals the per-thread scalar-arena oracle
// bit for bit on the sub-partition shapes the lockstep lanes have to get
// right — threads with no vectors, counts that differ by one in no
// particular thread order (what ml.Partition deals when the batch does not
// divide), counts that differ by a lot, one vector, none. One Sim per family
// runs every shape, so lanes also start from whatever the last batch left.
func TestRunBatchUnevenPartitions(t *testing.T) {
	const threads = 32
	ragged := make([]int, threads)
	for th, n := range []int{3, 0, 1, 5, 0, 0, 2, 1, 4, 0, 1} {
		ragged[th*3%threads] = n
	}
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, alg := range []ml.Algorithm{
			&ml.LinearRegression{M: 10},
			&ml.LogisticRegression{M: 9},
			&ml.SVM{M: 11},
			&ml.MLP{In: 6, Hid: 4, Out: 3},
			&ml.CF{NU: 4, NV: 5, K: 2},
		} {
			t.Run(alg.Name(), func(t *testing.T) {
				prog := compileOn(t, arch.UltraScalePlus, alg, threads, 1, compiler.StyleCoSMIC)
				model := alg.PackModel(alg.InitModel(rng))
				batch := randomBatch(alg, 64, rng)
				shapes := map[string][][]map[string][]float64{
					"partition-16": packParts(alg, batch[:16], threads),
					"partition-37": packParts(alg, batch[:37], threads),
					"partition-64": packParts(alg, batch, threads),
					"one-vector":   packParts(alg, batch[:1], threads),
					"empty":        packParts(alg, nil, threads),
					"ragged":       dealCounts(alg, batch, ragged),
				}
				sim := New(prog)
				for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
					for name, parts := range shapes {
						want, err := oracleRunBatch(t, prog, model, parts, 0.05, agg)
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 2, 3, 0} {
							sim.SetWorkers(workers)
							got, err := sim.RunBatch(model, parts, 0.05, agg)
							if err != nil {
								t.Fatalf("%s agg %v workers %d: %v", name, agg, workers, err)
							}
							requirePartialBitEqual(t, want, got.Partial)
							for th, p := range parts {
								if got.ThreadVectors[th] != len(p) {
									t.Fatalf("%s: ThreadVectors[%d] = %d, want %d", name, th, got.ThreadVectors[th], len(p))
								}
							}
						}
					}
				}
			})
		}
	})
}

// TestRunBatchLowestThreadErrorWins: when several threads hit a bad binding
// at different vectors, the error returned is the one the lowest-indexed
// failing thread would have hit first, whatever the worker count; a bad
// model is reported before any vector, even by an empty batch.
func TestRunBatchLowestThreadErrorWins(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alg := &ml.SVM{M: 8}
	const threads = 4
	prog := compileFor(t, alg, threads, 1, compiler.StyleCoSMIC)
	model := alg.PackModel(alg.InitModel(rng))
	parts := dealCounts(alg, randomBatch(alg, 12, rng), []int{2, 4, 3, 3})
	// Thread 3 fails on its first vector, thread 1 on its third and again
	// on its fourth (a different way), thread 2 on its last.
	// Only thread 1's first failure is a missing y; the others lack x.
	parts[3][0] = map[string][]float64{"y": {1}}
	parts[1][2] = map[string][]float64{"x": parts[1][2]["x"]}
	parts[1][3] = map[string][]float64{"x": {1, 2}, "y": {1}}
	parts[2][2] = map[string][]float64{}

	_, want := oracleRunBatch(t, prog, model, parts, 0.05, dsl.AggAverage)
	if want == nil {
		t.Fatal("oracle accepted the bad bindings")
	}
	_, modelWant := oracleRunBatch(t, prog, map[string][]float64{}, parts, 0.05, dsl.AggAverage)
	if modelWant == nil || modelWant.Error() == want.Error() {
		t.Fatalf("oracle model error %v, data error %v", modelWant, want)
	}
	sim := New(prog)
	for _, workers := range []int{1, 2, 3, 4, 0} {
		sim.SetWorkers(workers)
		for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
			if _, err := sim.RunBatch(model, parts, 0.05, agg); err == nil || err.Error() != want.Error() {
				t.Errorf("workers %d agg %v: error %v, want %v", workers, agg, err, want)
			}
			if _, err := sim.RunBatch(map[string][]float64{}, parts, 0.05, agg); err == nil || err.Error() != modelWant.Error() {
				t.Errorf("workers %d agg %v: bad model: error %v, want %v", workers, agg, err, modelWant)
			}
		}
		empty := make([][]map[string][]float64, threads)
		if _, err := sim.RunBatch(map[string][]float64{}, empty, 0.05, dsl.AggAverage); err == nil || err.Error() != modelWant.Error() {
			t.Errorf("workers %d: empty batch, bad model: error %v, want %v", workers, err, modelWant)
		}
		// The failed batches leave nothing behind.
		good := dealCounts(alg, randomBatch(alg, 12, rand.New(rand.NewSource(23))), []int{2, 4, 3, 3})
		wantPartial, err := oracleRunBatch(t, prog, model, good, 0.05, dsl.AggAverage)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunBatch(model, good, 0.05, dsl.AggAverage)
		if err != nil {
			t.Fatal(err)
		}
		requirePartialBitEqual(t, wantPartial, got.Partial)
	}

	long := map[string][]float64{}
	for name, v := range model {
		long[name] = make([]float64, len(v)+1)
	}
	if _, err := sim.RunBatch(long, parts, 0.05, dsl.AggAverage); err == nil {
		t.Error("a model longer than its gradient was accepted")
	}
}

// TestRunBatchSteadyStateAllocs: a detached simulator's steady state
// allocates only what it returns — the BatchResult, its ThreadVectors, the
// Partial map and one vector per model symbol — plus, with more than one
// worker, the extra goroutines' start-up.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	sim, model, parts := obsTestSim(t) // 2 threads, 1 model symbol
	for _, tc := range []struct {
		workers int
		max     float64
	}{
		{workers: 1, max: 5}, // result, thread vectors, map header + buckets, one partial
		{workers: 2, max: 7}, // + the second worker's closure and goroutine
	} {
		for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
			sim.SetWorkers(tc.workers)
			run := func() {
				if _, err := sim.RunBatch(model, parts, 0.05, agg); err != nil {
					t.Fatal(err)
				}
			}
			run() // builds the lane arenas
			if got := testing.AllocsPerRun(50, run); got > tc.max {
				t.Errorf("workers %d agg %v: %v allocations per batch, want at most %v",
					tc.workers, agg, got, tc.max)
			}
		}
	}
}

// TestRunBatchRetainsNoVectors: the lanes' per-step vectors alias the
// caller's, so none is left behind when a batch returns.
func TestRunBatchRetainsNoVectors(t *testing.T) {
	sim, model, parts := obsTestSim(t)
	for _, workers := range []int{1, 2} {
		sim.SetWorkers(workers)
		if _, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
			t.Fatal(err)
		}
		for b := range sim.blocks {
			for l, v := range sim.blocks[b].step {
				if v != nil {
					t.Errorf("workers %d: block %d lane %d still holds a vector", workers, b, l)
				}
			}
		}
	}
}

// TestRunBatchGradientAliasesModel: a gradient output may be another model
// symbol's leaf, and a model symbol may have no leaf at all. The local step
// must read every gradient before it rewrites any leaf, and must carry the
// leafless symbol's local model all the same.
func TestRunBatchGradientAliasesModel(t *testing.T) {
	const src = `
model_input x[M];
model_output y;
model a[M];
model b[M];
model c[M];
gradient ga[M];
gradient gb[M];
gradient gc[M];
iterator i[0:M];
ga[i] = b[i];
gb[i] = a[i];
gc[i] = x[i] * y;
aggregator average;
`
	const threads = 2
	prog := compileSource(t, testChip, src, map[string]int{"M": 3}, threads, 1, compiler.StyleCoSMIC)
	model := map[string][]float64{"a": {1, 2, 3}, "b": {-4, 5, 0.5}, "c": {7, 8, 9}}
	parts := make([][]map[string][]float64, threads)
	for th, n := range []int{3, 2} {
		for v := 0; v < n; v++ {
			f := float64(1 + th + 2*v)
			parts[th] = append(parts[th], map[string][]float64{"x": {f, -f, 0.25 * f}, "y": {f - 2}})
		}
	}
	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		want, err := oracleRunBatch(t, prog, model, parts, 0.3, agg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(prog).RunBatch(model, parts, 0.3, agg)
		if err != nil {
			t.Fatal(err)
		}
		requirePartialBitEqual(t, want, got.Partial)
	}
}

// TestRunBatchReportsPairingError: a program whose model and gradient symbols
// do not pair still gets a simulator — its timing model is intact — and
// learns of the mismatch from RunBatch.
func TestRunBatchReportsPairingError(t *testing.T) {
	const src = `
model_input x[M];
model a[M];
model b[M];
gradient ga[M];
iterator i[0:M];
ga[i] = a[i] * b[i] * x[i];
aggregator average;
`
	const threads = 2
	sim := New(compileSource(t, testChip, src, map[string]int{"M": 3}, threads, 1, compiler.StyleCoSMIC))
	if sim.Interval() < 1 {
		t.Errorf("interval = %d", sim.Interval())
	}
	model := map[string][]float64{"a": {1, 2, 3}, "b": {4, 5, 6}}
	if _, err := sim.RunBatch(model, make([][]map[string][]float64, threads), 0.1, dsl.AggAverage); err == nil {
		t.Error("RunBatch accepted two model symbols with one gradient")
	}
}
