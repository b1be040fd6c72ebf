package main

// adapter.go is the only file of the benchmark that calls into the program
// under test. Everything else in this package sees the stack through the
// types declared here, so a PR that renames or removes an internal API has
// one file to follow. The surface is deliberately narrow: the root cosmic
// facade, runtime.Launch with the ClusterOptions fields below, the cosmicnet
// frame codec and Transport hook, each compile phase's public entry point,
// accel.Sim, perf.FromProgram, ml, dataset, and the tsdb store. It uses
// nothing ROADMAP marks for deletion (no Monolithic, ChunkWords, quorum
// fields, AggregationBuffer constructors or wrapper pairs).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	cosmic "repro"
	"repro/internal/accel"
	"repro/internal/compiler"
	"repro/internal/cosmicnet"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs/tsdb"
	"repro/internal/perf"
	"repro/internal/planner"
	cruntime "repro/internal/runtime"
	"repro/internal/verilog"
)

// The cluster shape every workload uses: the smallest one with every role —
// a master Sigma, a group Sigma, and a Delta under each.
const (
	clusterNodes  = 4
	clusterGroups = 2
)

// simTolerance is cosmic-sim's pass mark for max |simulator − reference|.
const simTolerance = 1e-9

// defaultChunkWords is the runtime's default streaming-chunk boundary: a
// vector longer than this crosses the wire as several frames of this size.
const defaultChunkWords = 4096

var chip = cosmic.UltraScalePlus

// program is a family compiled for the chip.
type program = cosmic.Program

// ---- the model a workload trains -------------------------------------------

// problem is one model with its generated data. The program under test only
// ever sees these generated inputs; the seed stays on this side.
type problem struct {
	name   string
	alg    ml.Algorithm
	lr     float64
	data   []ml.Sample
	shards [][]ml.Sample
	eval   []ml.Sample
	init   []float64
}

// datasetSeed fixes the problem: the generated data set (it stands in for
// the paper's fixed data sets — there is one MNIST) and the initial model.
// What a run's -seed draws is the order in which the samples are dealt to
// the nodes, and so which vectors the simulated batch holds. Keeping the
// problem fixed keeps rounds_to_loss a property of the program's arithmetic
// rather than of the draw: across initial models it moved by a fifth.
const datasetSeed = 17

// newProblem generates a Table 1 family at the given scale, or — when wideM
// is positive — a linear regression of that width drawn by the same
// generator (Table 1 has no 512 KB linear model that elaborates in time).
func newProblem(family string, scale, lrScale float64, wideM, samples, evalN int, seed int64) (*problem, error) {
	b, err := dataset.ByName(family)
	if err != nil {
		return nil, err
	}
	alg := b.Algorithm(scale)
	name := fmt.Sprintf("%s@%g", family, scale)
	if wideM > 0 {
		alg = &ml.LinearRegression{M: wideM}
		name = fmt.Sprintf("linreg-M%d", wideM)
	}
	data := b.Generate(alg, samples, datasetSeed)
	p := &problem{name: name, alg: alg, lr: b.DefaultLR(alg) * lrScale}
	// The loss is always evaluated on the same samples, whatever the seed.
	p.eval = data[:min(evalN, len(data))]
	p.init = alg.InitModel(rand.New(rand.NewSource(datasetSeed)))
	p.data = append([]ml.Sample(nil), data...)
	rand.New(rand.NewSource(seed)).Shuffle(len(p.data), func(i, j int) { p.data[i], p.data[j] = p.data[j], p.data[i] })
	p.shards = ml.Partition(p.data, clusterNodes)
	return p, nil
}

func (p *problem) modelWords() int { return p.alg.ModelSize() }

// frameWords is the payload length of this model's data frames.
func (p *problem) frameWords() int { return min(p.modelWords(), defaultChunkWords) }

// loss is the mean loss of model over the evaluation samples.
func (p *problem) loss(model []float64) float64 { return ml.MeanLoss(p.alg, model, p.eval) }

// modelHash is FNV-64a over the IEEE-754 bits of the model, so two runs
// agree on it only if they trained bitwise identically.
func modelHash(model []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range model {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- designer's path: DSL → RTL, end to end and phase by phase --------------

// compileProgram is the front half a trainer needs: DSL → scheduled program.
func compileProgram(p *problem, miniBatch int) (*program, error) {
	return cosmic.Compile(p.alg.DSLSource(), p.alg.DSLParams(), chip, cosmic.Options{MiniBatch: miniBatch})
}

// compileToRTL is what a designer runs: cosmic.Compile then Verilog(). It
// returns the program and the size of the generated RTL.
func compileToRTL(p *problem, miniBatch int) (*program, int, error) {
	prog, err := compileProgram(p, miniBatch)
	if err != nil {
		return nil, 0, err
	}
	rtl, err := prog.Verilog()
	if err != nil {
		return nil, 0, err
	}
	return prog, len(rtl), nil
}

// phaseReport is one walk through the compile phases, each timed through its
// own public function, in the order and with the options core.BuildProgram
// uses. ms is keyed by the per-layer metric the phase reports as.
type phaseReport struct {
	ms       map[string]float64
	dfgNodes int
	commCost int
	graph    *dfg.Graph
}

func compilePhases(p *problem, miniBatch int) (phaseReport, error) {
	r := phaseReport{ms: map[string]float64{}}
	t := time.Now()
	lap := func(metric string) {
		r.ms[metric] = time.Since(t).Seconds() * 1e3
		t = time.Now()
	}
	unit, err := dsl.ParseAndAnalyze(p.alg.DSLSource(), p.alg.DSLParams())
	lap("dsl.parse_ms")
	if err != nil {
		return r, err
	}
	graph, err := dfg.Translate(unit)
	lap("dfg.translate_ms")
	if err != nil {
		return r, err
	}
	point, err := planner.Plan(graph, chip, plannerOptions(miniBatch))
	lap("planner.plan_ms")
	if err != nil {
		return r, err
	}
	prog, err := compiler.Compile(graph, point.Plan, compiler.StyleCoSMIC)
	lap("compiler.map_schedule_ms")
	if err != nil {
		return r, err
	}
	img, err := verilog.Encode(prog)
	lap("verilog.encode_ms")
	if err != nil {
		return r, err
	}
	_, err = verilog.Generate(img)
	lap("verilog.generate_ms")
	if err != nil {
		return r, err
	}
	_, err = graph.CompileTape()
	lap("dfg.tape_compile_ms")
	if err != nil {
		return r, err
	}
	r.graph, r.dfgNodes, r.commCost = graph, len(graph.Nodes), prog.CommunicationCost()
	return r, nil
}

func plannerOptions(miniBatch int) planner.Options {
	return planner.Options{MiniBatch: miniBatch, Style: compiler.StyleCoSMIC}
}

// countDesignPoints returns the size of the design space the Planner walked
// for the graph. Plan keeps only the chosen point, so the count comes from
// Explore, outside every timed lap.
func countDesignPoints(graph *dfg.Graph, miniBatch int) (int, error) {
	points, err := planner.Explore(graph, chip, plannerOptions(miniBatch))
	return len(points), err
}

// ---- the simulated accelerator ---------------------------------------------

// simulator runs one fixed batch on the cycle-level model of a compiled
// program, and knows the software reference's answer for that batch. It
// keeps one accel.Sim across batches, as a node's AccelEngine does.
type simulator struct {
	p       *problem
	prog    *program
	sim     *accel.Sim
	vectors int
	model   map[string][]float64
	parts   [][]map[string][]float64 // the batch, dealt to the accelerator's threads
	want    []float64
}

// simBatch is the outcome of one RunBatch.
type simBatch struct {
	wall                  time.Duration
	cycles, computeCycles int64
	partial               []float64
}

func newSimulator(p *problem, prog *program, vectors int) *simulator {
	vectors = min(vectors, len(p.data))
	threads := prog.Plan().Threads
	batch := p.data[:vectors]
	s := &simulator{
		p: p, prog: prog, sim: prog.Simulator(), vectors: vectors,
		model: p.alg.PackModel(p.init), parts: make([][]map[string][]float64, threads),
	}
	for t, part := range ml.Partition(batch, threads) {
		for _, smp := range part {
			s.parts[t] = append(s.parts[t], p.alg.PackSample(smp))
		}
	}
	s.want = ml.ParallelSGDBatch(p.alg,
		ml.SGDConfig{LearningRate: p.lr, Aggregator: dsl.AggAverage}, p.init, batch, threads)
	return s
}

func (s *simulator) run() (simBatch, error) {
	start := time.Now()
	res, err := s.sim.RunBatch(s.model, s.parts, s.p.lr, dsl.AggAverage)
	wall := time.Since(start)
	if err != nil {
		return simBatch{}, err
	}
	return simBatch{
		wall: wall, cycles: res.Cycles, computeCycles: res.ComputeCycles,
		partial: ml.UnpackModel(s.p.alg, res.Partial),
	}, nil
}

// errorAgainstReference returns max |sim − reference| over the partial and
// how many of its parameters sit within simTolerance.
func (s *simulator) errorAgainstReference(partial []float64) (maxErr float64, within int) {
	for i, w := range s.want {
		d := math.Abs(partial[i] - w)
		if d > maxErr || math.IsNaN(d) {
			maxErr = d
		}
		if d <= simTolerance {
			within++
		}
	}
	return maxErr, within
}

// estimatedCycles is the performance-estimation tool's figure for the batch
// the simulator runs.
func (s *simulator) estimatedCycles() (int64, error) {
	est, err := perf.FromProgram(s.prog.Schedule())
	if err != nil {
		return 0, err
	}
	perThread := (s.vectors + est.Threads - 1) / est.Threads
	return est.BatchCycles(perThread), nil
}

// tapeEvalNS times Arena.Eval on one packed sample for at least minDur: the
// inner loop that the simulator's MIMD threads spend their host time in.
func (s *simulator) tapeEvalNS(minDur time.Duration) (float64, error) {
	tape, err := s.prog.Graph().CompileTape()
	if err != nil {
		return 0, err
	}
	arena := tape.NewArena()
	if err := arena.Bind(dfg.Bindings{Data: s.p.alg.PackSample(s.p.data[0]), Model: s.model}); err != nil {
		return 0, err
	}
	iters := 0
	start := time.Now()
	for time.Since(start) < minDur {
		for i := 0; i < 16; i++ {
			arena.Eval()
		}
		iters += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// ---- the cluster -----------------------------------------------------------

// clusterOptions selects the engine and the observers of one cluster.
type clusterOptions struct {
	// accel, when set, gives every node an AccelEngine running this
	// program; otherwise nodes compute on RefEngine with refThreads threads.
	accel      *program
	refThreads int
	miniBatch  int
	// rec, when set, installs the Engine and Transport decorators.
	rec *recorder
	// observed attaches a cosmic.NewObserver() to every node.
	observed bool
}

type cluster struct {
	c     *cruntime.Cluster
	accel []*cruntime.AccelEngine
	obs   *cosmic.Observer
	rec   *recorder
}

// launch starts the four nodes over loopback TCP and returns once the
// hierarchy is connected.
func launch(p *problem, o clusterOptions) (*cluster, error) {
	cl := &cluster{rec: o.rec}
	engines := make([]cruntime.Engine, clusterNodes)
	for i := range engines {
		var e cruntime.Engine
		if o.accel != nil {
			ae := &cruntime.AccelEngine{Alg: p.alg, Prog: o.accel.Schedule(), LR: p.lr, Agg: dsl.AggAverage}
			cl.accel = append(cl.accel, ae)
			e = ae
		} else {
			e = &cruntime.RefEngine{Alg: p.alg, Threads: o.refThreads, LR: p.lr, Agg: dsl.AggAverage}
		}
		if o.rec != nil {
			e = &tracedEngine{Engine: e, node: i, rec: o.rec}
		}
		engines[i] = e
	}
	opts := cruntime.ClusterOptions{
		Nodes:     clusterNodes,
		Groups:    clusterGroups,
		Engines:   func(id int) cruntime.Engine { return engines[id] },
		Shards:    func(id int) []ml.Sample { return p.shards[id] },
		ModelSize: p.modelWords(),
		Agg:       dsl.AggAverage,
		LR:        p.lr,
		MiniBatch: o.miniBatch,
	}
	if o.rec != nil {
		opts.Transports = func(id int) cosmicnet.Transport {
			return &timedTransport{node: id, rec: o.rec}
		}
	}
	if o.observed {
		cl.obs = cosmic.NewObserver()
		opts.Obs = cl.obs
	}
	c, err := cruntime.Launch(opts)
	if err != nil {
		return nil, err
	}
	cl.c = c
	return cl, nil
}

// trainStats is what one Train call reports back to the benchmark.
type trainStats struct {
	rounds    []time.Duration
	excluded  int
	recvBytes int64
}

// train drives rounds from the calling goroutine: a closed loop with one
// round in flight. recvBytes is the cluster's cumulative received-byte
// count, which is settled when Train returns: a receiver counts a frame
// before it acts on it, and the round cannot fold until every frame of the
// round has been acted on. (The sent counters may trail by a frame.)
func (cl *cluster) train(model []float64, rounds int) ([]float64, trainStats, error) {
	start := time.Now()
	out, st, err := cl.c.Train(model, rounds)
	if cl.rec != nil {
		cl.rec.addRounds(start, st.RoundDurations)
	}
	return out, trainStats{rounds: st.RoundDurations, excluded: st.ExcludedRounds, recvBytes: st.NetworkReceivedBytes}, err
}

// shutdown stops the nodes, waits for them, and returns the byte totals of
// the whole run now that every counter is quiescent.
func (cl *cluster) shutdown() (sent, received int64, err error) {
	err = cl.c.Shutdown()
	sent, received = cl.c.NetworkBytes()
	cl.c.Close()
	return sent, received, err
}

// simCycles sums the simulated cycles the nodes' accelerators have consumed.
func (cl *cluster) simCycles() int64 {
	var total int64
	for _, ae := range cl.accel {
		total += ae.Cycles()
	}
	return total
}

// ---- decorators for the traced pass ----------------------------------------

// tracedEngine times PartialUpdate at the runtime's Engine boundary.
type tracedEngine struct {
	cruntime.Engine
	node int
	rec  *recorder
}

func (e *tracedEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	start := time.Now()
	out, err := e.Engine.PartialUpdate(model, shard)
	e.rec.addEngine(e.node, start, time.Now())
	return out, err
}

// timedTransport is TCP whose connections time and count their socket
// calls: the same hook the chaos fabric plugs into.
type timedTransport struct {
	node int
	rec  *recorder
}

func (t *timedTransport) wrap(c net.Conn) *cosmicnet.Conn {
	return &cosmicnet.Conn{Conn: &timedConn{Conn: c, node: t.node, rec: t.rec, io: &t.rec.nodes[t.node].io}}
}

func (t *timedTransport) Dial(addr string) (*cosmicnet.Conn, error) {
	c, err := cosmicnet.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c.Conn), nil
}

func (t *timedTransport) Listen(addr string) (*cosmicnet.Listener, error) {
	l, err := cosmicnet.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &cosmicnet.Listener{Listener: timedListener{Listener: l.Listener, t: t}}, nil
}

type timedListener struct {
	net.Listener
	t *timedTransport
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c).Conn, nil
}

// timedConn times and counts Read and Write, and counts frames by following
// the wire's own length prefixes through the written bytes, so that frames
// and writes stay separate numbers if a frame ever takes several writes.
type timedConn struct {
	net.Conn
	node int
	rec  *recorder
	io   *ioCounters

	mu        sync.Mutex
	remaining int // bytes left in the frame being written
	prefix    [4]byte
	nprefix   int
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.io.writes.Add(1)
	c.io.writeBytes.Add(int64(n))
	c.io.writeNS.Add(end.Sub(start).Nanoseconds())
	c.countFrames(p[:n])
	c.rec.addWrite(c.node, start, end)
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.io.reads.Add(1)
	c.io.readBytes.Add(int64(n))
	c.io.readNS.Add(c.rec.readWait(start, time.Now()).Nanoseconds())
	return n, err
}

func (c *timedConn) countFrames(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(p) > 0 {
		if c.remaining > 0 {
			k := min(c.remaining, len(p))
			p = p[k:]
			c.remaining -= k
			continue
		}
		k := copy(c.prefix[c.nprefix:], p)
		c.nprefix += k
		p = p[k:]
		if c.nprefix == len(c.prefix) {
			c.remaining = int(binary.LittleEndian.Uint32(c.prefix[:]))
			c.nprefix = 0
			c.io.frames.Add(1)
		}
	}
}

// ---- direct measurements of single layers ----------------------------------

// codecReport times the frame codec at one payload size.
type codecReport struct {
	encodeNSPerWord, decodeNSPerWord float64
	encodeAllocs, decodeAllocs       float64
}

// measureCodec encodes a data frame of the given payload size to a
// discarding writer and decodes it from memory into a reused frame.
func measureCodec(words, iters int) (codecReport, error) {
	payload := make([]float64, words)
	for i := range payload {
		payload[i] = float64(i) * 0.5
	}
	f := &cosmicnet.Frame{
		Type: cosmicnet.MsgPartial, Seq: 7, From: 3, Weight: 1, Payload: payload,
		ChunkIndex: 0, ChunkCount: 1,
	}
	var wire bytes.Buffer
	if err := cosmicnet.WriteFrame(&wire, f); err != nil {
		return codecReport{}, err
	}
	var r codecReport

	m0, _ := memCounters()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := cosmicnet.WriteFrame(io.Discard, f); err != nil {
			return r, err
		}
	}
	encode := time.Since(start)
	m1, _ := memCounters()

	var into cosmicnet.Frame
	rd := bytes.NewReader(wire.Bytes())
	start = time.Now()
	for i := 0; i < iters; i++ {
		rd.Reset(wire.Bytes())
		if err := cosmicnet.ReadFrameInto(rd, &into); err != nil {
			return r, err
		}
	}
	decode := time.Since(start)
	m2, _ := memCounters()

	if len(into.Payload) != words || (words > 0 && into.Payload[words-1] != payload[words-1]) {
		return r, fmt.Errorf("codec round trip lost the payload")
	}
	n := float64(iters)
	r.encodeNSPerWord = float64(encode.Nanoseconds()) / n / float64(words)
	r.decodeNSPerWord = float64(decode.Nanoseconds()) / n / float64(words)
	r.encodeAllocs = float64(m1-m0) / n
	r.decodeAllocs = float64(m2-m1) / n
	return r, nil
}

// registrySnapshot is one scrape of an observed cluster's metric registry.
type registrySnapshot struct {
	// appendTo feeds the scrape to a store at the given timestamp. A closure
	// keeps the sample type (obs.Sample) out of this package's imports.
	appendTo func(st *tsdb.Store, tMillis int64)
	n        int
}

func (cl *cluster) scrape() registrySnapshot {
	set := cl.obs.Registry().Snapshot()
	return registrySnapshot{
		appendTo: func(st *tsdb.Store, tMillis int64) { st.AppendSet(tMillis, set) },
		n:        len(set),
	}
}

func (cl *cluster) traceEvents() int { return len(cl.obs.Tracer().Events()) }

// tsdbReport times the observers' store: writes beside reads on one store.
type tsdbReport struct {
	appendNSPerSample float64
	queryUS           float64
	bytesPerSample    float64
	samples           int
}

// measureTSDB replays the scrapes at one-second spacing until the store
// holds at least minSamples samples, then runs one range query over
// everything stored.
func measureTSDB(scrapes []registrySnapshot, series string, minSamples int) (tsdbReport, error) {
	var r tsdbReport
	if len(scrapes) == 0 {
		return r, fmt.Errorf("no registry scrapes to replay")
	}
	sel, err := tsdb.ParseSelector(series)
	if err != nil {
		return r, err
	}
	st := tsdb.NewStore(tsdb.Options{Retention: 24 * time.Hour})
	const t0 = int64(1_700_000_000_000)
	ticks := 0
	var spent time.Duration
	for r.samples < minSamples {
		s := scrapes[ticks%len(scrapes)]
		start := time.Now()
		s.appendTo(st, t0+int64(ticks)*1000)
		spent += time.Since(start)
		r.samples += s.n
		ticks++
	}
	r.appendNSPerSample = float64(spent.Nanoseconds()) / float64(r.samples)

	start := time.Now()
	res, err := st.QueryRange(sel, t0-1000, t0+int64(ticks)*1000, 10_000, "avg")
	r.queryUS = float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil {
		return r, err
	}
	if len(res.Series) == 0 {
		return r, fmt.Errorf("tsdb query for %q matched no series", series)
	}
	r.bytesPerSample = st.Stats().BytesPerSample
	return r, nil
}
