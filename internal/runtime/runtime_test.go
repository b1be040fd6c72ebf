package runtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
)

func TestCircularBufferFIFO(t *testing.T) {
	cb := NewCircularBuffer(4)
	for i := 0; i < 4; i++ {
		if !cb.Push(Chunk{Offset: i}) {
			t.Fatal("push failed")
		}
	}
	for i := 0; i < 4; i++ {
		c, ok := cb.Pop()
		if !ok || c.Offset != i {
			t.Fatalf("pop %d: got %v %v", i, c.Offset, ok)
		}
	}
}

func TestCircularBufferBlocksAndCloses(t *testing.T) {
	cb := NewCircularBuffer(1)
	cb.Push(Chunk{})
	done := make(chan bool)
	go func() {
		done <- cb.Push(Chunk{}) // blocks until close
	}()
	cb.Close()
	if ok := <-done; ok {
		t.Error("push after close should report false")
	}
	if _, ok := cb.Pop(); !ok {
		t.Error("pending chunk should remain poppable after close")
	}
	if _, ok := cb.Pop(); ok {
		t.Error("drained closed ring should report false")
	}
}

// TestCircularBufferConcurrent delivers every chunk exactly once under
// concurrent producers and consumers.
func TestCircularBufferConcurrent(t *testing.T) {
	const producers, perProducer = 8, 200
	cb := NewCircularBuffer(16)
	var got sync.Map
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ch, ok := cb.Pop()
				if !ok {
					return
				}
				if _, dup := got.LoadOrStore(ch.Offset, true); dup {
					t.Errorf("chunk %d delivered twice", ch.Offset)
				}
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				cb.Push(Chunk{Offset: p*perProducer + i})
			}
		}(p)
	}
	pwg.Wait()
	cb.Close()
	wg.Wait()
	count := 0
	got.Range(func(any, any) bool { count++; return true })
	if count != producers*perProducer {
		t.Errorf("delivered %d chunks, want %d", count, producers*perProducer)
	}
}

// splitIntoChunks cuts a partial update into fixed-boundary ring chunks of
// words elements, the way a sender's chunk frames arrive. The chunks alias
// vec (no copy).
func splitIntoChunks(seq, from uint32, vec []float64, weight float64, words int) []Chunk {
	if len(vec) == 0 {
		return []Chunk{{Seq: seq, From: from, Weight: weight, Last: true}}
	}
	out := make([]Chunk, 0, ChunksFor(len(vec), words))
	for off := 0; off < len(vec); off += words {
		end := off + words
		if end > len(vec) {
			end = len(vec)
		}
		out = append(out, Chunk{
			Seq: seq, From: from, Offset: off,
			Data: vec[off:end], Weight: weight,
			Last: end == len(vec),
		})
	}
	return out
}

// newTestBuffer builds an aggregation buffer or fails the test.
func newTestBuffer(t testing.TB, n, words int, members []uint32) *AggregationBuffer {
	t.Helper()
	ab, err := NewAggregationBuffer(n, words, members)
	if err != nil {
		t.Fatal(err)
	}
	return ab
}

// TestAggregationBufferConcurrentSum: ten members add their chunks from
// concurrent goroutines; the ordered fold must equal the serial rank-order
// sum bitwise, with every member's weight credited.
func TestAggregationBufferConcurrentSum(t *testing.T) {
	const n, contributors = 5000, 10
	members := make([]uint32, contributors)
	vecs := make([][]float64, contributors)
	want := make([]float64, n)
	for id := range members {
		members[id] = uint32(id)
		vecs[id] = quorumMemberVec(uint32(id), n)
		for i, v := range vecs[id] {
			want[i] += v
		}
	}
	ab := newTestBuffer(t, n, 512, members)
	var wg sync.WaitGroup
	for id := range members {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for _, ch := range splitIntoChunks(0, uint32(id), vecs[id], 1, 512) {
				if err := ab.Add(ch); err != nil {
					t.Error(err)
				}
			}
		}(id)
	}
	wg.Wait()
	if ok, err := ab.WaitComplete(5*time.Second, nil); err != nil || !ok {
		t.Fatalf("fold did not complete: ok=%v err=%v", ok, err)
	}
	sum, w := ab.Sum()
	if w != contributors {
		t.Fatalf("weight %g, want %d", w, contributors)
	}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("sum[%d] = %b, want the serial rank-order sum %b", i, sum[i], want[i])
		}
	}
	ab.Reset(0)
	if _, w := ab.Sum(); w != 0 {
		t.Error("reset left weight")
	}
}

func TestSplitIntoChunksProperties(t *testing.T) {
	check := func(n uint16) bool {
		vec := make([]float64, int(n))
		for i := range vec {
			vec[i] = float64(i)
		}
		chunks := splitIntoChunks(3, 7, vec, 2, ChunkSize)
		if len(chunks) != ChunksFor(len(vec), ChunkSize) {
			return false
		}
		lastSeen := 0
		covered := 0
		for i, c := range chunks {
			covered += len(c.Data)
			if c.Seq != 3 || c.From != 7 || c.Weight != 2 {
				return false
			}
			if c.Last {
				lastSeen++
				if i != len(chunks)-1 {
					return false
				}
			}
		}
		if len(vec) > 0 && covered != len(vec) {
			return false
		}
		return lastSeen == 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestAssignTopologies(t *testing.T) {
	cases := []struct{ nodes, groups int }{
		{1, 1}, {3, 1}, {4, 1}, {6, 2}, {16, 4}, {5, 5},
	}
	for _, c := range cases {
		topo, err := Assign(c.nodes, c.groups)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		sigmas := 0
		for _, r := range topo.RoleOf {
			if r != RoleDelta {
				sigmas++
			}
		}
		if sigmas != c.groups {
			t.Errorf("%v: %d sigma nodes, want %d", c, sigmas, c.groups)
		}
		total := 0
		for _, m := range topo.Members {
			total += len(m)
		}
		if total != c.nodes {
			t.Errorf("%v: members cover %d nodes", c, total)
		}
	}
	if _, err := Assign(2, 5); err == nil {
		t.Error("more groups than nodes should fail")
	}
	if _, err := Assign(0, 1); err == nil {
		t.Error("zero nodes should fail")
	}
}

// makeCluster builds a linear-regression cluster over loopback TCP.
func makeCluster(t *testing.T, nodes, groups, threads int, agg dsl.AggregatorKind) (*Cluster, *ml.LinearRegression, [][]ml.Sample) {
	t.Helper()
	alg := &ml.LinearRegression{M: 24}
	rng := rand.New(rand.NewSource(31))
	truth := alg.InitModel(rng)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	shards := make([][]ml.Sample, nodes)
	for n := range shards {
		shards[n] = make([]ml.Sample, 40)
		for i := range shards[n] {
			x := make([]float64, alg.M)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			shards[n][i] = ml.Sample{X: x, Y: []float64{ml.Dot(truth, x)}}
		}
	}
	const lr = 0.01
	cl, err := Launch(ClusterOptions{
		Nodes: nodes, Groups: groups,
		Engines: func(int) Engine {
			return &RefEngine{Alg: alg, Threads: threads, LR: lr, Agg: agg}
		},
		Shards:    func(id int) []ml.Sample { return shards[id] },
		ModelSize: alg.ModelSize(),
		Agg:       agg,
		LR:        lr,
		MiniBatch: nodes * 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, alg, shards
}

// referenceRounds mirrors the cluster's math in-process: per round each
// node's engine partial over its next shard slice, combined per the
// aggregator.
func referenceRounds(alg ml.Algorithm, shards [][]ml.Sample, model []float64,
	rounds, perNode, threads int, lr float64, agg dsl.AggregatorKind, miniBatch int) []float64 {

	cur := append([]float64(nil), model...)
	cursors := make([]int, len(shards))
	for r := 0; r < rounds; r++ {
		var partials [][]float64
		for n := range shards {
			batch := make([]ml.Sample, 0, perNode)
			for len(batch) < perNode {
				batch = append(batch, shards[n][cursors[n]])
				cursors[n] = (cursors[n] + 1) % len(shards[n])
			}
			eng := &RefEngine{Alg: alg, Threads: threads, LR: lr, Agg: agg}
			p, _ := eng.PartialUpdate(cur, batch)
			partials = append(partials, p)
		}
		switch agg {
		case dsl.AggAverage:
			next := make([]float64, len(cur))
			for _, p := range partials {
				ml.AXPY(1, p, next)
			}
			ml.Scale(1/float64(len(partials)), next)
			cur = next
		case dsl.AggSum:
			for _, p := range partials {
				ml.AXPY(-lr/float64(miniBatch), p, cur)
			}
		}
	}
	return cur
}

func TestClusterMatchesReferenceFlat(t *testing.T) {
	const nodes, threads, rounds = 4, 2, 3
	cl, alg, shards := makeCluster(t, nodes, 1, threads, dsl.AggAverage)
	defer cl.Close()

	model := make([]float64, alg.ModelSize()) // zero init, deterministic
	got, stats, err := cl.Train(model, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != rounds || len(stats.RoundDurations) != rounds {
		t.Errorf("stats: %+v", stats)
	}
	want := referenceRounds(alg, shards, model, rounds, 8, threads, 0.01, dsl.AggAverage, nodes*8)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("w[%d] = %.15g distributed, %.15g reference", i, got[i], want[i])
		}
	}
}

// TestHierarchyIsTransparent: a 6-node cluster must produce the same model
// whether aggregation is flat (1 group) or hierarchical (2 groups), modulo
// floating-point association.
func TestHierarchyIsTransparent(t *testing.T) {
	const nodes, threads, rounds = 6, 1, 3
	run := func(groups int) []float64 {
		cl, alg, _ := makeCluster(t, nodes, groups, threads, dsl.AggAverage)
		defer cl.Close()
		model := make([]float64, alg.ModelSize())
		got, _, err := cl.Train(model, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	flat := run(1)
	hier := run(2)
	for i := range flat {
		if math.Abs(flat[i]-hier[i]) > 1e-9*(1+math.Abs(flat[i])) {
			t.Fatalf("w[%d]: flat %.12g, hierarchical %.12g", i, flat[i], hier[i])
		}
	}
}

func TestClusterSumAggregator(t *testing.T) {
	const nodes, rounds = 3, 2
	cl, alg, shards := makeCluster(t, nodes, 1, 1, dsl.AggSum)
	defer cl.Close()
	model := make([]float64, alg.ModelSize())
	got, _, err := cl.Train(model, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := referenceRounds(alg, shards, model, rounds, 8, 1, 0.01, dsl.AggSum, nodes*8)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("w[%d] = %.15g distributed, %.15g reference", i, got[i], want[i])
		}
	}
}

// TestClusterTrainingConverges: loss over the union of shards decreases.
func TestClusterTrainingConverges(t *testing.T) {
	cl, alg, shards := makeCluster(t, 4, 2, 2, dsl.AggAverage)
	defer cl.Close()
	var all []ml.Sample
	for _, s := range shards {
		all = append(all, s...)
	}
	model := make([]float64, alg.ModelSize())
	before := ml.MeanLoss(alg, model, all)
	got, _, err := cl.Train(model, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	after := ml.MeanLoss(alg, got, all)
	if after >= before/2 {
		t.Errorf("loss %g -> %g; distributed training is not learning", before, after)
	}
}

func TestFlattenModelRoundTrip(t *testing.T) {
	alg := &ml.MLP{In: 3, Hid: 4, Out: 2}
	model := make([]float64, alg.ModelSize())
	for i := range model {
		model[i] = float64(i) * 1.5
	}
	flat := FlattenModel(alg, alg.PackModel(model))
	for i := range model {
		if flat[i] != model[i] {
			t.Fatalf("flat[%d] = %g, want %g", i, flat[i], model[i])
		}
	}
}

// TestRoundTimeoutSurfacesDeadNode: with a bounded round, killing a Delta
// turns into a prompt training error instead of a wedged cluster.
func TestRoundTimeoutSurfacesDeadNode(t *testing.T) {
	alg := &ml.LinearRegression{M: 8}
	shards := make([][]ml.Sample, 4)
	for i := range shards {
		shards[i] = make([]ml.Sample, 8)
		for j := range shards[i] {
			shards[i][j] = ml.Sample{X: make([]float64, 8), Y: []float64{0}}
		}
	}
	cl, err := Launch(ClusterOptions{
		Nodes: 4, Groups: 2,
		Engines: func(int) Engine {
			return &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage}
		},
		Shards:       func(id int) []ml.Sample { return shards[id] },
		ModelSize:    alg.ModelSize(),
		Agg:          dsl.AggAverage,
		LR:           0.01,
		MiniBatch:    8,
		RoundTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill a worker node before training starts: the group Sigma (or the
	// master) will wait for its contribution and must time out.
	cl.nodes[len(cl.nodes)-1].Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Train(make([]float64, alg.ModelSize()), 3)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("training succeeded despite a dead node")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("training wedged: round timeout did not fire")
	}
}

// TestWaitCompleteTimeoutSemantics exercises the timed wait directly.
func TestWaitCompleteTimeoutSemantics(t *testing.T) {
	ab := newTestBuffer(t, 16, 16, []uint32{0})
	start := time.Now()
	if ok, err := ab.WaitComplete(50*time.Millisecond, nil); ok || err != nil {
		t.Errorf("wait on an empty buffer = (%v, %v), want (false, nil)", ok, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("timed wait returned too early")
	}
	// Satisfied waits report true and do not consume the full timeout.
	go func() {
		ab.Add(Chunk{Data: make([]float64, 16), Weight: 1, Last: true})
	}()
	if ok, err := ab.WaitComplete(2*time.Second, nil); !ok || err != nil {
		t.Errorf("wait missed an arriving chunk: (%v, %v)", ok, err)
	}
	// Zero timeout means wait forever (here: already satisfied).
	if ok, err := ab.WaitComplete(0, nil); !ok || err != nil {
		t.Errorf("zero-timeout wait failed on satisfied condition: (%v, %v)", ok, err)
	}
}

// TestNetworkBytesAccounting: every round moves at least the model down and
// the partials up, and the cluster-wide sent/received totals agree.
func TestNetworkBytesAccounting(t *testing.T) {
	const nodes, rounds = 4, 3
	cl, alg, _ := makeCluster(t, nodes, 2, 1, dsl.AggAverage)
	defer cl.Close()
	if _, _, err := cl.Train(make([]float64, alg.ModelSize()), rounds); err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	sent, received := cl.NetworkBytes()
	// Lower bound: each round, 3 nodes receive the model and send a
	// partial of the same size.
	minBytes := int64(rounds * (nodes - 1) * alg.ModelSize() * 8 * 2)
	if sent < minBytes {
		t.Errorf("sent %d bytes, expected at least %d", sent, minBytes)
	}
	if sent != received {
		t.Errorf("sent %d != received %d; loopback traffic must balance", sent, received)
	}
}

// TestRefEngineTapeMatchesHandwritten: a RefEngine given the algorithm's
// DFG computes its partial with the compiled evaluation tape, and must
// agree with the hand-written gradient path for both aggregators.
func TestRefEngineTapeMatchesHandwritten(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	alg := &ml.MLP{In: 6, Hid: 5, Out: 3}
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		t.Fatal(err)
	}
	model := alg.InitModel(rng)
	shard := make([]ml.Sample, 12)
	for i := range shard {
		x := make([]float64, alg.FeatureSize())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := make([]float64, alg.OutputSize())
		for j := range y {
			y[j] = rng.Float64()
		}
		shard[i] = ml.Sample{X: x, Y: y}
	}
	for _, agg := range []dsl.AggregatorKind{dsl.AggAverage, dsl.AggSum} {
		plain := &RefEngine{Alg: alg, Threads: 2, LR: 0.05, Agg: agg}
		taped := &RefEngine{Alg: alg, Threads: 2, LR: 0.05, Agg: agg, Graph: g}
		want, err := plain.PartialUpdate(model, shard)
		if err != nil {
			t.Fatal(err)
		}
		got, err := taped.PartialUpdate(model, shard)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("agg %v: partial length %d, want %d", agg, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("agg %v: partial[%d] = %g via tape, %g via reference", agg, i, got[i], want[i])
			}
		}
	}
}
