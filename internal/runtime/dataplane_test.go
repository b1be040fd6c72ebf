package runtime

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
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

// TestAccelEngineSteadyStateAllocs: an AccelEngine keeps the dealt shard's
// backing arrays, the model layout and the flattened partial from round to
// round. What a round still allocates is what the packing interface hands
// back — one binding map per sample and one for the model (two objects each)
// — plus ml.Partition's slice and the five objects of RunBatch's result
// (testing.AllocsPerRun pins GOMAXPROCS to 1, so there is one host worker;
// see accel.TestRunBatchSteadyStateAllocs). A reused engine must also
// return exactly what a fresh one does.
func TestAccelEngineSteadyStateAllocs(t *testing.T) {
	alg := &ml.LogisticRegression{M: 37}
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
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: 4, RowsPerThread: 1}
	prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	model := alg.InitModel(rng)
	const samples = 16
	shards := [][]ml.Sample{randomShard(rng, alg.M, samples), randomShard(rng, alg.M, samples-5)}
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
		}
		bound := float64(2*samples + 2 + 1 + 5)
		if agg == dsl.AggSum {
			bound++ // UnpackGradient returns a fresh vector
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.PartialUpdate(model, shards[0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%v: PartialUpdate allocates %.0f per call, want at most %.0f", agg, allocs, bound)
		}
		t.Logf("%v: %.0f allocations per call (bound %.0f)", agg, allocs, bound)
	}
}

// TestClusterSteadyStateAllocs pins the data plane end to end: a 4-node,
// 2-group cluster over loopback TCP training a 65 535-word model (sixteen
// chunk frames per contribution, the last one short) allocates less than
// 64 KB per round once warm — against ~7.7 MB when every partial, model
// frame and decoded payload was a fresh buffer. Nothing on the path draws on
// a sync.Pool, so the bound holds under the race detector too.
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
	t.Logf("%.1f KB allocated per round", perRound/1024)
	if perRound > 64<<10 {
		t.Errorf("steady-state round allocates %.1f KB, want < 64 KB", perRound/1024)
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
