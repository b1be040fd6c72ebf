package runtime

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/planner"
)

func randomShard(rng *rand.Rand, m, n int) []ml.Sample {
	shard := make([]ml.Sample, n)
	for i := range shard {
		x := make([]float64, m)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		shard[i] = ml.Sample{X: x, Y: []float64{rng.NormFloat64()}}
	}
	return shard
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRefEngineMatchesOracleBitwise: computing through the engine's workspace
// must not move a bit. The oracles are the allocating kernels the engine
// called before it had a workspace — ml.ParallelSGDBatch under the averaging
// aggregator, ml.AccumulateGradients over the whole shard under the summing
// one — and the second call checks that nothing of the first survives in the
// reused memory.
func TestRefEngineMatchesOracleBitwise(t *testing.T) {
	alg := &ml.LogisticRegression{M: 37}
	rng := rand.New(rand.NewSource(5))
	const lr = 0.05
	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		for threads := 1; threads <= 4; threads++ {
			eng := &RefEngine{Alg: alg, Threads: threads, LR: lr, Agg: agg}
			for call := 0; call < 2; call++ {
				model := alg.InitModel(rng)
				shard := randomShard(rng, alg.M, 11)
				for i := range shard {
					shard[i].Y[0] = float64(rng.Intn(2))
				}
				var want []float64
				if agg == dsl.AggAverage {
					want = ml.ParallelSGDBatch(alg, ml.SGDConfig{LearningRate: lr, Aggregator: agg}, model, shard, threads)
				} else {
					want = ml.AccumulateGradients(alg, model, shard)
				}
				got, err := eng.PartialUpdate(model, shard)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got, want) {
					t.Errorf("%v, %d threads, call %d: engine partial differs from the oracle", agg, threads, call)
				}
			}
		}
	}
}

// TestRefEngineSteadyStateAllocs: after its first call sized the workspace,
// a RefEngine partial allocates nothing under either aggregator.
func TestRefEngineSteadyStateAllocs(t *testing.T) {
	alg := &ml.LinearRegression{M: 4096}
	rng := rand.New(rand.NewSource(9))
	model := alg.InitModel(rng)
	shard := randomShard(rng, alg.M, 8)
	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		eng := &RefEngine{Alg: alg, Threads: 3, LR: 0.01, Agg: agg}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.PartialUpdate(model, shard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: PartialUpdate allocates %.0f per call, want 0", agg, allocs)
		}
	}
}

// engineProgram compiles alg for a small FPGA at the given thread count.
func engineProgram(t testing.TB, alg ml.Algorithm, threads int) *compiler.Program {
	t.Helper()
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		t.Fatal(err)
	}
	chip := arch.ChipSpec{
		Name: "engine-test-chip", Kind: arch.FPGA,
		PEBudget: 64, StorageKB: 256,
		MemBandwidthGBps: 3.2, FrequencyMHz: 100, TDPWatts: 5,
	}
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: threads, RowsPerThread: 1}
	prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAccelEngineMatchesRunBatch: the engine's flat boundary — symbols
// sliced out of the flat model and samples, the partial written into the
// flat vector — returns bit for bit what the map form returns through
// PackModel/PackSample, RunBatch and UnpackModel/UnpackGradient, for every
// family, both aggregators, and a shard that does not divide by the thread
// count.
func TestAccelEngineMatchesRunBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const threads, lr = 4, 0.05
	for _, alg := range []ml.Algorithm{
		&ml.LinearRegression{M: 10},
		&ml.LogisticRegression{M: 9},
		&ml.SVM{M: 11},
		&ml.MLP{In: 6, Hid: 4, Out: 3},
		&ml.CF{NU: 4, NV: 5, K: 2},
		&ml.Softmax{M: 5, C: 3},
	} {
		prog := engineProgram(t, alg, threads)
		model := alg.InitModel(rng)
		shard := make([]ml.Sample, 11)
		for i := range shard {
			x, y := make([]float64, alg.FeatureSize()), make([]float64, alg.OutputSize())
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			for j := range y {
				y[j] = rng.NormFloat64()
			}
			shard[i] = ml.Sample{X: x, Y: y}
		}
		parts := make([][]map[string][]float64, threads)
		for th, part := range ml.Partition(shard, threads) {
			for _, s := range part {
				parts[th] = append(parts[th], alg.PackSample(s))
			}
		}
		for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
			res, err := accel.New(prog).RunBatch(alg.PackModel(model), parts, lr, agg)
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			if agg == dsl.AggAverage {
				want = ml.UnpackModel(alg, res.Partial)
			} else {
				want = alg.UnpackGradient(res.Partial)
			}
			got, err := (&AccelEngine{Alg: alg, Prog: prog, LR: lr, Agg: agg}).PartialUpdate(model, shard)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Errorf("%s %v: engine partial differs from RunBatch's", alg.Name(), agg)
			}
		}
	}
}

// deepProgram is a node's engine at the `deep` workload's shape: mnist@0.05
// and the program the Planner picks for it on UltraScale+ at mini-batch 256
// — 32 threads.
func deepProgram(tb testing.TB) (dataset.Benchmark, ml.Algorithm, *compiler.Program) {
	tb.Helper()
	bm, err := dataset.ByName("mnist")
	if err != nil {
		tb.Fatal(err)
	}
	alg := bm.Algorithm(0.05)
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		tb.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		tb.Fatal(err)
	}
	point, err := planner.Plan(g, arch.UltraScalePlus, planner.Options{MiniBatch: 256, Style: compiler.StyleCoSMIC})
	if err != nil {
		tb.Fatal(err)
	}
	return bm, alg, point.Program
}

// mallocsPerCall is testing.AllocsPerRun without its GOMAXPROCS(1) pin,
// which would hide the allocations of a batch's worker goroutines: the
// integer mean of the mallocs over runs calls of f, after one warm call.
func mallocsPerCall(runs int, f func()) uint64 {
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestAccelEngineSteadyStateAllocs: an AccelEngine resolves its symbols once
// and keeps its bindings, the simulator's lane arena and the flattened
// partial from round to round, and runs its simulated threads as one lane
// block on the caller's goroutine whatever GOMAXPROCS is, so a round
// allocates nothing — no batch worker goroutine to start. A reused engine
// must return exactly what a fresh one does, and what a standalone
// simulator spreading the threads over four host workers does.
func TestAccelEngineSteadyStateAllocs(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	bm, alg, prog := deepProgram(t)
	model := alg.InitModel(rand.New(rand.NewSource(10)))
	const samples = 64
	shards := [][]ml.Sample{bm.Generate(alg, samples, 7), bm.Generate(alg, samples-5, 8)}
	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		eng := &AccelEngine{Alg: alg, Prog: prog, LR: 0.05, Agg: agg}
		for _, shard := range shards {
			got, err := eng.PartialUpdate(model, shard)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&AccelEngine{Alg: alg, Prog: prog, LR: 0.05, Agg: agg}).PartialUpdate(model, shard)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Errorf("%v: a reused engine's partial differs from a fresh engine's", agg)
			}
			if want := splitSimPartial(t, eng, model, shard); !bitsEqual(got, want) {
				t.Errorf("%v: the engine's partial differs from a 4-worker simulator's", agg)
			}
		}
		allocs := mallocsPerCall(20, func() {
			if _, err := eng.PartialUpdate(model, shards[0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: PartialUpdate allocates %d per call at GOMAXPROCS 4, want 0", agg, allocs)
		}
	}
}

// splitSimPartial is the flat partial eng's program computes on a standalone
// simulator that spreads the shard's threads over four host workers.
func splitSimPartial(t *testing.T, eng *AccelEngine, model []float64, shard []ml.Sample) []float64 {
	t.Helper()
	sim := accel.New(eng.Prog)
	sim.SetWorkers(4)
	parts := make([][]map[string][]float64, eng.Prog.Plan.Threads)
	for th, part := range ml.Partition(shard, len(parts)) {
		for _, s := range part {
			parts[th] = append(parts[th], eng.Alg.PackSample(s))
		}
	}
	res, err := sim.RunBatch(eng.Alg.PackModel(model), parts, eng.LR, eng.Agg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Agg == dsl.AggAverage {
		return ml.UnpackModel(eng.Alg, res.Partial)
	}
	return eng.Alg.UnpackGradient(res.Partial)
}

// BenchmarkAccelEngine is a node's engine at the `deep` workload's shape:
// PartialUpdate of 64 mnist@0.05 samples (one node's share of mini-batch
// 256) on the program the Planner picks for UltraScale+ — 32 threads, two
// vectors each — with one engine kept across calls. Besides wall time per
// sample it reports the process CPU time per sample (a split across host
// goroutines can cut the one and raise the other) and the size of its
// simulator's lane arena. The lane kernels run at the CPU's widest: eight
// lanes per instruction with AVX-512F, else four with AVX, else the Go
// loops (dfg's BenchmarkLanesEval times each width).
func BenchmarkAccelEngine(b *testing.B) {
	bm, alg, prog := deepProgram(b)
	const samples = 64
	eng := &AccelEngine{Alg: alg, Prog: prog, LR: 0.05, Agg: dsl.AggAverage}
	model := alg.InitModel(rand.New(rand.NewSource(1)))
	shard := bm.Generate(alg, samples, 7)
	if _, err := eng.PartialUpdate(model, shard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuTime()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PartialUpdate(model, shard); err != nil {
			b.Fatal(err)
		}
	}
	cpu := cpuTime() - cpu0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*samples), "cpu-ns/sample")
	b.ReportMetric(float64(eng.sim.LaneArenaBytes())/1024, "arena_kb")
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkRefEngine times a node's RefEngine partial at the shapes the
// `wide` and `tiny` benchmark workloads give it: a 65 535-word linear
// regression on one sample and one thread, and tumor@0.1's logistic
// regression on 16 samples dealt to two threads. The `tiny` shape reruns
// the same 16 hot samples; the tiny-shard legs cycle 16-sample batches
// through one `tiny` node's share of a shuffled 16 384-sample set, as a
// node does: once through the node's packed copy of its shard, once over
// the caller's samples scattered across the whole set.
func BenchmarkRefEngine(b *testing.B) {
	shapes := []struct {
		name             string
		bench            string
		wideM            int
		samples, threads int
	}{
		{"wide", "stock", 65535, 1, 1},
		{"tiny", "tumor", 0, 16, 2},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			bm, err := dataset.ByName(sh.bench)
			if err != nil {
				b.Fatal(err)
			}
			alg := bm.Algorithm(0.1)
			if sh.wideM > 0 {
				alg = &ml.LinearRegression{M: sh.wideM}
			}
			eng := &RefEngine{Alg: alg, Threads: sh.threads, LR: bm.DefaultLR(alg), Agg: dsl.AggAverage}
			model := alg.InitModel(rand.New(rand.NewSource(1)))
			shard := bm.Generate(alg, sh.samples, 7)
			if _, err := eng.PartialUpdate(model, shard); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PartialUpdate(model, shard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.samples), "ns/sample")
		})
	}

	bm, err := dataset.ByName("tumor")
	if err != nil {
		b.Fatal(err)
	}
	alg := bm.Algorithm(0.1)
	data := bm.Generate(alg, 16384, 7)
	rand.New(rand.NewSource(1)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	shard := ml.Partition(data, 4)[0]
	model := alg.InitModel(rand.New(rand.NewSource(1)))
	for _, leg := range []struct {
		name string
		data []ml.Sample
	}{
		{"tiny-shard-packed", packShard(shard)},
		{"tiny-shard-scattered", shard},
	} {
		b.Run(leg.name, func(b *testing.B) {
			const batch = 16
			eng := &RefEngine{Alg: alg, Threads: 2, LR: bm.DefaultLR(alg), Agg: dsl.AggAverage}
			n := &Node{cfg: NodeConfig{ShardBatch: batch}, data: leg.data}
			if _, err := eng.PartialUpdate(model, n.nextShardBatch()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PartialUpdate(model, n.nextShardBatch()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
		})
	}
}

// TestClusterSteadyStateAllocs pins the data plane end to end: a 4-node,
// 2-group cluster over loopback TCP training a 65 535-word model (sixteen
// chunk frames per contribution, the last one short) allocates less than
// 64 KB in at most 3 mallocs per round once warm — against ~7.7 MB when
// every partial, model frame and decoded payload was a fresh buffer.
// Nothing on the path draws on a sync.Pool, so the bounds hold under the
// race detector too.
func TestClusterSteadyStateAllocs(t *testing.T) {
	const nodes, groups, words, rounds = 4, 2, 65535, 40
	alg := &ml.LinearRegression{M: words}
	rng := rand.New(rand.NewSource(3))
	shards := make([][]ml.Sample, nodes)
	for n := range shards {
		shards[n] = randomShard(rng, alg.M, 2)
	}
	cl, err := Launch(ClusterOptions{
		Nodes: nodes, Groups: groups,
		Engines: func(int) Engine {
			return &RefEngine{Alg: alg, Threads: 2, LR: 1e-6, Agg: dsl.AggAverage}
		},
		Shards:    func(id int) []ml.Sample { return shards[id] },
		ModelSize: alg.ModelSize(),
		Agg:       dsl.AggAverage,
		LR:        1e-6,
		MiniBatch: nodes * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	model := make([]float64, alg.ModelSize())
	if _, _, err := cl.Train(model, 10); err != nil { // warm-up: buffers sized, free list filled
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, _, err := cl.Train(model, rounds); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Train copies the model once per call; that is set-up, not a round.
	perRound := (float64(after.TotalAlloc-before.TotalAlloc) - 8*words) / rounds
	mallocs := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.1f KB in %.1f mallocs allocated per round", perRound/1024, mallocs)
	if perRound > 64<<10 {
		t.Errorf("steady-state round allocates %.1f KB, want < 64 KB", perRound/1024)
	}
	// An untraced round builds no span arguments and installs no
	// completion callback, no wait (the master's timed one included)
	// starts a goroutine or a timer, and no broadcast copies the member
	// list: about one malloc.
	if mallocs > 3 {
		t.Errorf("steady-state round makes %.1f mallocs, want <= 3", mallocs)
	}
}

// BenchmarkAggregationFold measures the ordered fold per word: three members
// contributing a 65 536-word vector in 4096-word chunks, arriving in rank
// order (every chunk folds on arrival) or in reverse (two of three chunks are
// parked as copies and folded when their rank comes up).
func BenchmarkAggregationFold(b *testing.B) {
	const n, words = 1 << 16, 4096
	members := []uint32{0, 1, 2}
	vecs := make([][]float64, len(members))
	for m := range vecs {
		vecs[m] = make([]float64, n)
		for i := range vecs[m] {
			vecs[m][i] = float64(i + m)
		}
	}
	orders := map[string][]int{"in-order": {0, 1, 2}, "parked": {2, 1, 0}}
	for name, order := range orders {
		b.Run(name, func(b *testing.B) {
			ab := newTestBuffer(b, n, words, members)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ab.Reset(uint32(i))
				for off := 0; off < n; off += words {
					for _, m := range order {
						c := Chunk{Seq: uint32(i), From: members[m], Offset: off,
							Data: vecs[m][off : off+words], Weight: 1, Last: off+words == n}
						if err := ab.Add(c); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(members)*n), "ns/word")
		})
	}
}
