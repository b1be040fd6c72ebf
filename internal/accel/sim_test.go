package accel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
)

var testChip = arch.ChipSpec{
	Name: "test-chip", Kind: arch.FPGA,
	PEBudget: 64, StorageKB: 256,
	MemBandwidthGBps: 3.2, FrequencyMHz: 100,
	TDPWatts: 5,
}

func compileFor(t *testing.T, alg ml.Algorithm, threads, rows int, style compiler.Style) *compiler.Program {
	t.Helper()
	return compileOn(t, testChip, alg, threads, rows, style)
}

func compileOn(t testing.TB, chip arch.ChipSpec, alg ml.Algorithm, threads, rows int, style compiler.Style) *compiler.Program {
	t.Helper()
	return compileSource(t, chip, alg.DSLSource(), alg.DSLParams(), threads, rows, style)
}

func compileSource(t testing.TB, chip arch.ChipSpec, src string, params map[string]int,
	threads, rows int, style compiler.Style) *compiler.Program {

	t.Helper()
	u, err := dsl.ParseAndAnalyze(src, params)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: threads, RowsPerThread: rows}
	prog, err := compiler.Compile(g, plan, style)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func packParts(alg ml.Algorithm, batch []ml.Sample, threads int) [][]map[string][]float64 {
	parts := ml.Partition(batch, threads)
	out := make([][]map[string][]float64, threads)
	for t, part := range parts {
		for _, s := range part {
			out[t] = append(out[t], alg.PackSample(s))
		}
	}
	return out
}

func randomBatch(alg ml.Algorithm, n int, rng *rand.Rand) []ml.Sample {
	batch := make([]ml.Sample, n)
	for i := range batch {
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
		batch[i] = s
	}
	return batch
}

// TestSimMatchesReferenceParallelSGD is the end-to-end functional check: the
// cycle-level simulator's partial update must equal the pure-Go parallel SGD
// reference bit-for-bit (both use float64 and the same operation order per
// thread).
func TestSimMatchesReferenceParallelSGD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	algs := []ml.Algorithm{
		&ml.LinearRegression{M: 16},
		&ml.LogisticRegression{M: 12},
		&ml.SVM{M: 16},
		&ml.MLP{In: 6, Hid: 4, Out: 2},
		&ml.CF{NU: 4, NV: 6, K: 3},
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			const threads = 2
			prog := compileFor(t, alg, threads, 2, compiler.StyleCoSMIC)
			sim := New(prog)
			model := alg.InitModel(rng)
			batch := randomBatch(alg, 12, rng)
			const lr = 0.05

			res, err := sim.RunBatch(alg.PackModel(model), packParts(alg, batch, threads), lr, dsl.AggAverage)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ml.SGDConfig{LearningRate: lr, Aggregator: dsl.AggAverage}
			want := ml.ParallelSGDBatch(alg, cfg, model, batch, threads)

			got := flattenModel(alg, res.Partial)
			if len(got) != len(want) {
				t.Fatalf("partial length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("θ[%d] = %g (sim), %g (reference)", i, got[i], want[i])
				}
			}
			if res.Cycles <= 0 {
				t.Errorf("cycles = %d", res.Cycles)
			}
		})
	}
}

// flattenModel concatenates per-symbol partials in the algorithm's flat
// model layout.
func flattenModel(alg ml.Algorithm, partial map[string][]float64) []float64 {
	packed := alg.PackModel(make([]float64, alg.ModelSize()))
	// Order of symbols follows PackModel's keys; reconstruct via known
	// layout: iterate alg.PackModel on an index-stamped model.
	stamp := make([]float64, alg.ModelSize())
	for i := range stamp {
		stamp[i] = float64(i)
	}
	stamped := alg.PackModel(stamp)
	out := make([]float64, alg.ModelSize())
	for name, vec := range stamped {
		for j, idx := range vec {
			out[int(idx)] = partial[name][j]
		}
	}
	_ = packed
	return out
}

func TestSimSumAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alg := &ml.SVM{M: 16}
	const threads = 2
	prog := compileFor(t, alg, threads, 1, compiler.StyleCoSMIC)
	sim := New(prog)
	model := alg.InitModel(rng)
	batch := randomBatch(alg, 10, rng)

	res, err := sim.RunBatch(alg.PackModel(model), packParts(alg, batch, threads), 0.1, dsl.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	want := ml.AccumulateGradients(alg, model, batch)
	got := alg.UnpackGradient(res.Partial)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("Σg[%d] = %g (sim), %g (reference)", i, got[i], want[i])
		}
	}
}

func TestSimCyclesScaleWithVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alg := &ml.LogisticRegression{M: 24}
	prog := compileFor(t, alg, 1, 2, compiler.StyleCoSMIC)
	sim := New(prog)
	model := alg.PackModel(alg.InitModel(rng))

	run := func(n int) int64 {
		res, err := sim.RunBatch(model, packParts(alg, randomBatch(alg, n, rng), 1), 0.1, dsl.AggAverage)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c4, c16 := run(4), run(16)
	if c16 <= c4 {
		t.Errorf("cycles: 4 vectors -> %d, 16 vectors -> %d", c4, c16)
	}
	// Throughput should be roughly linear in vectors once pipelined: the
	// 16-vector run must cost less than 8× the 4-vector run.
	if c16 >= 8*c4 {
		t.Errorf("no pipelining: %d vs %d", c16, c4)
	}
}

// TestMultiThreadingImprovesThroughput: at equal total work and equal total
// PEs, two threads beat one (the paper's core architectural claim).
func TestMultiThreadingImprovesThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	alg := &ml.SVM{M: 16}
	batch := randomBatch(alg, 32, rng)
	model := alg.InitModel(rng)

	oneT := compileFor(t, alg, 1, 4, compiler.StyleCoSMIC) // T1×R4
	twoT := compileFor(t, alg, 2, 2, compiler.StyleCoSMIC) // T2×R4 total
	r1, err := New(oneT).RunBatch(alg.PackModel(model), packParts(alg, batch, 1), 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(twoT).RunBatch(alg.PackModel(model), packParts(alg, batch, 2), 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles >= r1.Cycles {
		t.Errorf("T2×R2/thread %d cycles, T1×R4 %d cycles: multithreading should win on this DFG",
			r2.Cycles, r1.Cycles)
	}
}

// TestTreeBusBeatsFlatBus: at identical mapping pressure, CoSMIC's template
// should outperform the TABLA-style single shared bus (Figure 17's shape).
func TestTreeBusBeatsFlatBus(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	alg := &ml.MLP{In: 8, Hid: 6, Out: 3}
	batch := randomBatch(alg, 8, rng)
	model := alg.InitModel(rng)

	cosmic := compileFor(t, alg, 1, 4, compiler.StyleCoSMIC)
	tabla := compileFor(t, alg, 1, 4, compiler.StyleTABLA)
	rc, err := New(cosmic).RunBatch(alg.PackModel(model), packParts(alg, batch, 1), 0.1, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(tabla).RunBatch(alg.PackModel(model), packParts(alg, batch, 1), 0.1, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cycles >= rt.Cycles {
		t.Errorf("CoSMIC %d cycles, TABLA %d cycles: tree-bus + data-first mapping should win",
			rc.Cycles, rt.Cycles)
	}
	// Both must compute the same result regardless of template.
	for name, v := range rc.Partial {
		for i := range v {
			if math.Abs(v[i]-rt.Partial[name][i]) > 1e-9 {
				t.Fatalf("partials diverge at %s[%d]", name, i)
			}
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	alg := &ml.LinearRegression{M: 16}
	prog := compileFor(t, alg, 2, 1, compiler.StyleCoSMIC)
	model := alg.PackModel(alg.InitModel(rng))
	batch := randomBatch(alg, 8, rng)
	parts := packParts(alg, batch, 2)

	r1, err := New(prog).RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(prog).RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	// Reusing one Sim must also be deterministic (state fully reset).
	sim := New(prog)
	r3, _ := sim.RunBatch(model, parts, 0.05, dsl.AggAverage)
	r4, _ := sim.RunBatch(model, parts, 0.05, dsl.AggAverage)
	if r3.Cycles != r4.Cycles {
		t.Errorf("reused sim cycles differ: %d vs %d", r3.Cycles, r4.Cycles)
	}
}

func TestSimRejectsWrongPartitionCount(t *testing.T) {
	alg := &ml.SVM{M: 8}
	prog := compileFor(t, &ml.SVM{M: 8}, 2, 1, compiler.StyleCoSMIC)
	sim := New(prog)
	_, err := sim.RunBatch(alg.PackModel(make([]float64, 8)), make([][]map[string][]float64, 3), 0.1, dsl.AggAverage)
	if err == nil {
		t.Error("expected partition-count error")
	}
}

func TestBatchBreakdownPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alg := &ml.LogisticRegression{M: 16}
	prog := compileFor(t, alg, 1, 1, compiler.StyleCoSMIC)
	res, err := New(prog).RunBatch(alg.PackModel(alg.InitModel(rng)),
		packParts(alg, randomBatch(alg, 6, rng), 1), 0.1, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamCycles <= 0 || res.ComputeCycles <= 0 {
		t.Errorf("breakdown: stream %d compute %d", res.StreamCycles, res.ComputeCycles)
	}
	if res.ThreadVectors[0] != 6 {
		t.Errorf("thread vectors = %v", res.ThreadVectors)
	}
}

// TestIntervalLowerBounds: the steady-state interval can never undercut the
// memory interface's delivery time, the busiest PE's occupancy, or the
// busiest bus segment — property-tested over random plan shapes.
func TestIntervalLowerBounds(t *testing.T) {
	check := func(mSeed, shapeSeed uint8) bool {
		m := 8 + int(mSeed%48)
		threads := 1 << (shapeSeed % 2)
		rows := 1 << (shapeSeed % 3)
		if threads*rows > testChip.RowLimit() {
			return true
		}
		alg := &ml.SVM{M: m}
		u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
		if err != nil {
			return false
		}
		g, err := dfg.Translate(u)
		if err != nil {
			return false
		}
		plan := arch.Plan{Chip: testChip, Columns: testChip.Columns(), Threads: threads, RowsPerThread: rows}
		prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
		if err != nil {
			return false
		}
		s := New(prog)
		iv := s.Interval()
		if iv < int64(threads*s.StreamPerVector()) {
			return false
		}
		if iv < s.MaxPELoad() || iv < s.MaxBusLoad() {
			return false
		}
		// The startup latency of a vector can never undercut its critical
		// path or its delivery time.
		if s.Startup() < int64(g.CriticalPath()) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCyclesForRoundsMonotone: more rounds always cost more cycles, and the
// marginal cost is exactly the interval.
func TestCyclesForRoundsMonotone(t *testing.T) {
	prog := compileFor(t, &ml.LogisticRegression{M: 32}, 2, 2, compiler.StyleCoSMIC)
	s := New(prog)
	prev := s.CyclesForRounds(0)
	for r := 1; r <= 32; r *= 2 {
		cur := s.CyclesForRounds(r)
		if cur <= prev {
			t.Fatalf("CyclesForRounds(%d) = %d not above previous %d", r, cur, prev)
		}
		prev = cur
	}
	d1 := s.CyclesForRounds(11) - s.CyclesForRounds(10)
	if d1 != s.Interval() {
		t.Errorf("marginal round cost %d != interval %d", d1, s.Interval())
	}
}

// TestPartialIndependentOfTemplate: the numeric result must not depend on
// the interconnect or thread shape (only timing does) — quick-checked over
// shapes.
func TestPartialIndependentOfTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	alg := &ml.LinearRegression{M: 16}
	model := alg.InitModel(rng)
	batch := randomBatch(alg, 8, rng)
	want := ml.AccumulateGradients(alg, model, batch)

	for _, shape := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 1}} {
		prog := compileFor(t, alg, shape[0], shape[1], compiler.StyleCoSMIC)
		res, err := New(prog).RunBatch(alg.PackModel(model), packParts(alg, batch, shape[0]), 0.1, dsl.AggSum)
		if err != nil {
			t.Fatal(err)
		}
		got := alg.UnpackGradient(res.Partial)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("shape %v: Σg[%d] = %g, want %g", shape, i, got[i], want[i])
			}
		}
	}
}

// TestParallelRunBatchBitIdentical (satellite of the MIMD tentpole): the
// parallel RunBatch must produce byte-identical Partial maps to the
// sequential path for every worker count, GOMAXPROCS setting, and both
// aggregator kinds. Run under -race in CI to also prove the worker
// goroutines share no unsynchronized state.
func TestParallelRunBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	alg := &ml.MLP{In: 10, Hid: 8, Out: 4}
	const threads = 4
	prog := compileFor(t, alg, threads, 1, compiler.StyleCoSMIC)
	model := alg.PackModel(alg.InitModel(rng))
	batch := randomBatch(alg, 24, rng)
	parts := packParts(alg, batch, threads)

	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		seq := New(prog)
		seq.SetWorkers(1)
		want, err := seq.RunBatch(model, parts, 0.05, agg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, workers := range []int{0, 2, 3, threads} {
				par := New(prog)
				par.SetWorkers(workers)
				got, err := par.RunBatch(model, parts, 0.05, agg)
				if err != nil {
					t.Fatal(err)
				}
				requirePartialBitEqual(t, want.Partial, got.Partial)
				if got.Cycles != want.Cycles {
					t.Errorf("agg %v workers %d: cycles %d != sequential %d",
						agg, workers, got.Cycles, want.Cycles)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		// Reusing one Sim (and its per-thread arenas) across batches must
		// also stay bit-identical.
		reused := New(prog)
		for i := 0; i < 3; i++ {
			got, err := reused.RunBatch(model, parts, 0.05, agg)
			if err != nil {
				t.Fatal(err)
			}
			requirePartialBitEqual(t, want.Partial, got.Partial)
		}
	}
}

func requirePartialBitEqual(t *testing.T, want, got map[string][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partial symbols: %d vs %d", len(want), len(got))
	}
	for name, wv := range want {
		gv := got[name]
		if len(wv) != len(gv) {
			t.Fatalf("%s: length %d vs %d", name, len(wv), len(gv))
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s[%d]: %v (%#x) vs %v (%#x)", name, i,
					wv[i], math.Float64bits(wv[i]), gv[i], math.Float64bits(gv[i]))
			}
		}
	}
}

// TestSimMatchesInterpreterEval: the tape-backed RunBatch must agree with a
// direct Graph.Eval interpreter loop bit-for-bit (AggSum makes the
// comparison exact: pure gradient sums, no learning-rate coupling).
func TestSimMatchesInterpreterEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	alg := &ml.SVM{M: 12}
	const threads = 2
	prog := compileFor(t, alg, threads, 1, compiler.StyleCoSMIC)
	model := alg.PackModel(alg.InitModel(rng))
	batch := randomBatch(alg, 10, rng)
	parts := packParts(alg, batch, threads)

	res, err := New(prog).RunBatch(model, parts, 0.1, dsl.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror RunBatch's reduction shape exactly: per-thread gradient sums,
	// then an ordered cross-thread reduction (float addition is not
	// associative, so the shape matters for bit equality).
	perThread := make([]map[string][]float64, threads)
	for th := 0; th < threads; th++ {
		perThread[th] = map[string][]float64{}
		for name, outs := range prog.Graph.Outputs {
			perThread[th][name] = make([]float64, len(outs))
		}
		for _, data := range parts[th] {
			grads, err := prog.Graph.Eval(dfg.Bindings{Data: data, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			// cosmic:ordered — each key accumulates into its own vector, so
			// cross-key iteration order cannot change any element's sum.
			for name, g := range grads {
				for i := range g {
					perThread[th][name][i] += g[i]
				}
			}
		}
	}
	want := map[string][]float64{}
	for name, outs := range prog.Graph.Outputs {
		vec := make([]float64, len(outs))
		for th := 0; th < threads; th++ {
			for i, v := range perThread[th][name] {
				vec[i] += v
			}
		}
		want[name] = vec
	}
	requirePartialBitEqual(t, want, res.Partial)
}

// TestCeilDiv pins the contract: exact ceiling division for positive
// divisors, panic on non-positive ones.
func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {7, 2, 4}, {8, 2, 4}, {9, 2, 5}, {1, 8, 1}, {16, 4, 4},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	for _, b := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ceilDiv(1, %d) did not panic", b)
				}
			}()
			ceilDiv(1, b)
		}()
	}
}
