package runtime

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/ml"
)

// TestOrderedFoldArrivalOrderInvariant: the accumulated sum is a pure
// function of the member set — bitwise identical no matter how
// chunk arrivals interleave — and every chunk index completes exactly once
// with the full member weight.
func TestOrderedFoldArrivalOrderInvariant(t *testing.T) {
	const n, words = 1000, 64
	members := []uint32{2, 5, 9}
	vecs := make(map[uint32][]float64, len(members))
	rng := rand.New(rand.NewSource(3))
	for _, id := range members {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vecs[id] = v
	}

	run := func(shuffleSeed int64) []float64 {
		ab := newTestBuffer(t, n, words, members)
		completed := make(map[int]float64)
		ab.SetOnComplete(func(idx int, span []float64, weight float64) {
			if _, dup := completed[idx]; dup {
				t.Errorf("chunk %d completed twice", idx)
			}
			completed[idx] = weight
		})
		var chunks []Chunk
		for _, id := range members {
			chunks = append(chunks, splitIntoChunks(0, id, vecs[id], 1, words)...)
		}
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(chunks), func(i, j int) {
			chunks[i], chunks[j] = chunks[j], chunks[i]
		})
		for _, c := range chunks {
			if err := ab.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		ok, err := ab.WaitComplete(time.Second, nil)
		if err != nil || !ok {
			t.Fatalf("WaitComplete: %v %v", ok, err)
		}
		if len(completed) != ab.ChunkCount() {
			t.Fatalf("%d chunk indexes completed, want %d", len(completed), ab.ChunkCount())
		}
		for idx, w := range completed {
			if w != float64(len(members)) {
				t.Fatalf("chunk %d completed with weight %g", idx, w)
			}
		}
		sum, w := ab.Sum()
		if w != float64(len(members)) {
			t.Fatalf("total weight %g", w)
		}
		return sum
	}

	want := run(0)
	for seed := int64(1); seed <= 8; seed++ {
		got := run(seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sum[%d] = %.17g, want bitwise %.17g", seed, i, got[i], want[i])
			}
		}
	}
}

// TestOrderedFoldRejectsOffBoundaryChunks: the fold insists on the fixed
// boundaries and the unambiguous member set the determinism argument
// depends on.
func TestOrderedFoldRejectsOffBoundaryChunks(t *testing.T) {
	if _, err := NewAggregationBuffer(256, 64, nil); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewAggregationBuffer(256, 64, []uint32{3, 1, 3}); err == nil {
		t.Error("duplicate member accepted")
	}
	ab := newTestBuffer(t, 256, 64, []uint32{1})
	if err := ab.Add(Chunk{From: 1, Offset: 32, Data: make([]float64, 64)}); err == nil {
		t.Error("off-boundary offset accepted")
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 32)}); err == nil {
		t.Error("short non-tail chunk accepted")
	}
	if err := ab.Add(Chunk{From: 9, Offset: 0, Data: make([]float64, 64)}); err == nil {
		t.Error("unknown member accepted")
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 64)}); err != nil {
		t.Errorf("well-formed chunk rejected: %v", err)
	}
	if err := ab.Add(Chunk{From: 1, Offset: 0, Data: make([]float64, 64)}); err == nil {
		t.Error("duplicate chunk accepted")
	}
}

// TestOrderedFoldAllocs: the local-contribution path — splitting a partial
// into aliasing chunks and folding them in order — must not allocate per
// element or per chunk (one slice header for the split is the budget).
func TestOrderedFoldAllocs(t *testing.T) {
	const n, words = 1 << 14, 1024
	ab := newTestBuffer(t, n, words, []uint32{0})
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = float64(i)
	}
	avg := testing.AllocsPerRun(100, func() {
		ab.Reset(0)
		for _, c := range splitIntoChunks(0, 0, vec, 1, words) {
			if err := ab.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 1.5 {
		t.Errorf("local fold allocates %.1f objects per contribution, want <= 1 (the chunk-slice header)", avg)
	}
}

// jitterEngine delays each partial by a pseudo-random amount so member
// contributions arrive at the Sigmas in shuffled order, then defers to the
// wrapped engine. The math stays untouched — only timing moves.
type jitterEngine struct {
	inner Engine
	mu    sync.Mutex
	rng   *rand.Rand
}

func (e *jitterEngine) Name() string { return "jitter+" + e.inner.Name() }

func (e *jitterEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	e.mu.Lock()
	d := time.Duration(e.rng.Intn(2500)) * time.Microsecond
	e.mu.Unlock()
	time.Sleep(d)
	return e.inner.PartialUpdate(model, shard)
}

// TestTrainingBitwiseAcrossChunkBoundaries is the streaming pipeline's
// differential test: across two model families, three chunk boundaries (the
// largest holding the whole model in one chunk frame per contribution), and
// shuffled member arrival orders, a hierarchical cluster must train to the
// bitwise-identical model. The ordered member-rank fold is what makes this
// hold exactly, not just to floating-point tolerance.
func TestTrainingBitwiseAcrossChunkBoundaries(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 3
	algs := []struct {
		name   string
		alg    ml.Algorithm
		labels int
	}{
		{"linreg", &ml.LinearRegression{M: 777}, 1},
		{"mlp", &ml.MLP{In: 9, Hid: 7, Out: 2}, 2},
	}
	for _, tc := range algs {
		t.Run(tc.name, func(t *testing.T) {
			alg := tc.alg
			rng := rand.New(rand.NewSource(17))
			shards := make([][]ml.Sample, nodes)
			for n := range shards {
				shards[n] = make([]ml.Sample, 8)
				for i := range shards[n] {
					x := make([]float64, alg.FeatureSize())
					for j := range x {
						x[j] = rng.NormFloat64()
					}
					y := make([]float64, tc.labels)
					for j := range y {
						y[j] = rng.NormFloat64()
					}
					shards[n][i] = ml.Sample{X: x, Y: y}
				}
			}
			model := alg.InitModel(rand.New(rand.NewSource(5)))

			run := func(chunkWords int, delaySeed int64) []float64 {
				cl, err := Launch(ClusterOptions{
					Nodes: nodes, Groups: groups,
					Engines: func(id int) Engine {
						return &jitterEngine{
							inner: &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage},
							rng:   rand.New(rand.NewSource(delaySeed + int64(id))),
						}
					},
					Shards:     func(id int) []ml.Sample { return shards[id] },
					ModelSize:  alg.ModelSize(),
					Agg:        dsl.AggAverage,
					LR:         0.01,
					MiniBatch:  nodes * 4,
					ChunkWords: chunkWords,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				got, _, err := cl.Train(append([]float64(nil), model...), rounds)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Shutdown(); err != nil {
					t.Fatal(err)
				}
				return got
			}

			oneChunk := 1
			for oneChunk < alg.ModelSize() {
				oneChunk *= 2
			}
			want := run(64, 100)
			variants := []struct {
				label      string
				chunkWords int
				delaySeed  int64
			}{
				{"chunk-64/reshuffled", 64, 900},
				{"chunk-1024", 1024, 300},
				{"one-chunk", oneChunk, 500},
			}
			for _, v := range variants {
				got := run(v.chunkWords, v.delaySeed)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: w[%d] = %.17g, want bitwise %.17g",
							v.label, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSigmaRejectsUnchunkedFrames: every sender streams chunk frames, so a
// whole-vector partial or group aggregate is outside input. The Sigma must
// fail with an error naming the frame type and the sender, and still close
// without hanging.
func TestSigmaRejectsUnchunkedFrames(t *testing.T) {
	const words = 8
	for _, typ := range []cosmicnet.MsgType{cosmicnet.MsgPartial, cosmicnet.MsgGroupAggregate} {
		t.Run(typ.String(), func(t *testing.T) {
			failed := make(chan struct{}, 1)
			node, err := StartNode(NodeConfig{
				Role: RoleMasterSigma, MemberIDs: []uint32{0, 7}, ModelSize: words, ChunkWords: words,
				// fail() logs after recording the error, so a receive from
				// failed orders the test's Err() read after that write.
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "failed") {
						failed <- struct{}{}
					}
				},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := cosmicnet.Dial(node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(&cosmicnet.Frame{
				Type: typ, From: 7, Weight: 1, Payload: make([]float64, words),
			}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-failed:
			case <-time.After(5 * time.Second):
				t.Fatal("the Sigma never rejected the un-chunked frame")
			}
			msg := node.Err().Error()
			if !strings.Contains(msg, "un-chunked "+typ.String()) || !strings.Contains(msg, "from 7") {
				t.Errorf("error %q does not name the frame type and sender", msg)
			}
			closed := make(chan struct{})
			go func() { node.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung after a rejected frame")
			}
		})
	}
}

// TestChunkWordsValidation pins the power-of-two rule shared by every
// config surface.
func TestChunkWordsValidation(t *testing.T) {
	for _, w := range []int{0, 1, 2, 64, 4096, 1 << 20} {
		if !ValidChunkWords(w) {
			t.Errorf("ValidChunkWords(%d) = false", w)
		}
	}
	for _, w := range []int{-1, -64, 3, 63, 100, 4095} {
		if ValidChunkWords(w) {
			t.Errorf("ValidChunkWords(%d) = true", w)
		}
	}
	_, err := Launch(ClusterOptions{
		Nodes: 2, Groups: 1,
		Engines:    func(int) Engine { return &RefEngine{Alg: &ml.LinearRegression{M: 4}, Threads: 1} },
		Shards:     func(int) []ml.Sample { return nil },
		ModelSize:  4,
		ChunkWords: 100,
	})
	if err == nil {
		t.Fatal("non-power-of-two ChunkWords accepted")
	}
}
