package runtime

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/dsl"
	"repro/internal/ml"
)

// TestPackShardPreservesSamples: the packed copy holds every sample's X and
// Y bits (NaN payloads, signed zeros and infinities included) in shard
// order, as consecutive rows of one array with each view capped at its
// row; a zero-length X or Y packs as an empty view.
func TestPackShardPreservesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	odd := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(-1)}
	shard := make([]ml.Sample, 9)
	for i := range shard {
		x := make([]float64, rng.Intn(6))
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		var y []float64 // samples 0, 3 and 6 have no Y
		if i%3 != 0 {
			y = []float64{rng.NormFloat64(), odd[i%len(odd)]}
		}
		shard[i] = ml.Sample{X: x, Y: y}
	}
	shard[4].X = append(shard[4].X, odd...)
	packed := packShard(shard)
	if len(packed) != len(shard) {
		t.Fatalf("%d packed samples, want %d", len(packed), len(shard))
	}
	var next unsafe.Pointer
	for i, s := range packed {
		if !bitsEqual(s.X, shard[i].X) || !bitsEqual(s.Y, shard[i].Y) {
			t.Fatalf("sample %d: packed %v / %v, want %v / %v", i, s.X, s.Y, shard[i].X, shard[i].Y)
		}
		if cap(s.X) != len(s.X) || cap(s.Y) != len(s.Y) {
			t.Fatalf("sample %d: view grows past its row", i)
		}
		for _, v := range [][]float64{s.X, s.Y} {
			if len(v) == 0 {
				continue
			}
			if next != nil && unsafe.Pointer(&v[0]) != next {
				t.Fatalf("sample %d does not follow the row before it", i)
			}
			next = unsafe.Add(unsafe.Pointer(&v[0]), 8*len(v))
		}
	}
	shard[1].X[0], shard[1].Y[0] = 99, 99
	if packed[1].X[0] == 99 || packed[1].Y[0] == 99 {
		t.Fatal("packed shard aliases the caller's samples")
	}
	if got := packShard(nil); len(got) != 0 {
		t.Fatalf("empty shard packs to %d samples", len(got))
	}
}

// TestNodeBatchesCycleThePackedShard: batches are the packed rows in shard
// order, wrapping past the end (also when a batch is longer than the whole
// shard), and a node with an empty shard contributes a zero partial.
func TestNodeBatchesCycleThePackedShard(t *testing.T) {
	shard := make([]ml.Sample, 5)
	for i := range shard {
		shard[i] = ml.Sample{X: []float64{float64(i)}}
	}
	for _, tc := range []struct {
		batch int
		want  [][]int
	}{
		{3, [][]int{{0, 1, 2}, {3, 4, 0}, {1, 2, 3}, {4, 0, 1}}},
		{7, [][]int{{0, 1, 2, 3, 4, 0, 1}, {2, 3, 4, 0, 1, 2, 3}}},
	} {
		n, err := StartNode(NodeConfig{Role: RoleDelta, ModelSize: 1, ShardBatch: tc.batch}, shard)
		if err != nil {
			t.Fatal(err)
		}
		<-n.packed
		for r, want := range tc.want {
			batch := n.nextShardBatch()
			if len(batch) != len(want) {
				t.Fatalf("batch %d of %d: %d samples, want %d", tc.batch, r, len(batch), len(want))
			}
			for i, s := range batch {
				if s.X[0] != float64(want[i]) || &s.X[0] != &n.data[want[i]].X[0] {
					t.Fatalf("batch %d of %d, sample %d: not packed row %d", tc.batch, r, i, want[i])
				}
			}
		}
	}

	n, err := StartNode(NodeConfig{Role: RoleDelta, ModelSize: 3, ShardBatch: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.computePartial([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, make([]float64, 3)) {
		t.Fatalf("empty shard's partial = %v, want zeros", got)
	}
}

// TestPackedShardClusterMatchesReference: a 4-node, 2-group cluster shaped
// like the `tiny` workload (tumor@0.1 logistic regression, 16 samples per
// node per round on two threads, shards dealt from a shuffle) trains bit
// for bit what ml.ParallelSGDBatch computes per node, folded in the
// cluster's rank order — also when the caller overwrites every sample the
// moment Launch returns, since each node trains from its own copy.
func TestPackedShardClusterMatchesReference(t *testing.T) {
	const nodes, groups, perNode, threads, rounds = 4, 2, 16, 2, 12
	bm, err := dataset.ByName("tumor")
	if err != nil {
		t.Fatal(err)
	}
	alg := bm.Algorithm(0.1)
	lr := bm.DefaultLR(alg) * 0.001
	cfg := ml.SGDConfig{LearningRate: lr, Aggregator: dsl.AggAverage}
	data := bm.Generate(alg, 8*perNode*nodes, 7)
	rand.New(rand.NewSource(3)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	shards := ml.Partition(data, nodes)

	// The reference: node i's partial over its next perNode samples; group
	// 1 (nodes 1 and 3) folds first, then the master folds node 0, group
	// 1's aggregate and node 2, each fold starting from zero, and averages.
	want := alg.InitModel(rand.New(rand.NewSource(1)))
	init := append([]float64(nil), want...)
	for r := 0; r < rounds; r++ {
		p := make([][]float64, nodes)
		for i, shard := range shards {
			lo := r * perNode % len(shard)
			p[i] = ml.ParallelSGDBatch(alg, cfg, want, shard[lo:lo+perNode], threads)
		}
		next := make([]float64, len(want))
		for j := range next {
			group1 := 0 + p[1][j] + p[3][j]
			next[j] = (0 + p[0][j] + group1 + p[2][j]) * 0.25
		}
		want = next
	}

	for _, overwrite := range []bool{false, true} {
		cl, err := Launch(ClusterOptions{
			Nodes: nodes, Groups: groups,
			Engines: func(int) Engine {
				return &RefEngine{Alg: alg, Threads: threads, LR: lr, Agg: dsl.AggAverage}
			},
			Shards:    func(id int) []ml.Sample { return shards[id] },
			ModelSize: alg.ModelSize(),
			Agg:       dsl.AggAverage,
			LR:        lr,
			MiniBatch: nodes * perNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if overwrite {
			for i := range data {
				for _, v := range [][]float64{data[i].X, data[i].Y} {
					for j := range v {
						v[j] = math.NaN()
					}
				}
			}
		}
		got, _, err := cl.Train(init, rounds)
		if err == nil {
			err = cl.Shutdown()
		}
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Errorf("overwrite=%v: cluster model differs from the reference", overwrite)
		}
	}
}
