// Package accel is a cycle-level, functional simulator of CoSMIC's
// multi-threaded template accelerator (Section 5 of the paper). It stands in
// for the UltraScale+ FPGA / P-ASIC silicon the paper runs on: the generated
// Verilog cannot be synthesized here, so this simulator executes the
// Compiler's static schedules under the same structural constraints the RTL
// imposes —
//
//   - a 2-D array of PEs (Columns per row = memory words per cycle);
//   - five-stage in-order PE pipelines with a local bypass path;
//   - three levels of connectivity: bidirectional neighbor links, a shared
//     bus per row, and a tree bus (with Σ/Π ALUs) across rows, each carrying
//     one transmission per cycle that every PE on the segment can snoop;
//   - a smart memory interface that streams data to the PEs round-robin
//     across threads (Memory Schedule + Thread Index Table), broadcasts
//     model parameters, and hides latency behind a prefetch buffer;
//   - MIMD worker threads that each run the whole gradient DFG on their own
//     data sub-partition and locally accumulate partial updates.
//
// Timing follows the classic initiation-interval decomposition of a
// statically scheduled machine: a single training vector's makespan (an
// event-driven walk of the schedule with bus contention and transfer
// latencies) gives the pipeline's fill latency, and the per-round cost in
// steady state is the occupancy of the bottleneck resource — the busiest
// PE, the busiest bus segment, or the shared memory interface. The
// simulator produces both cycle counts and the numeric partial update, so it
// is checked end-to-end against the pure-Go ml reference.
package accel

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/obs"
)

// Sim simulates one accelerator chip configured by a compiled program.
type Sim struct {
	prog    *compiler.Program
	threads int

	// tm is the program's static timing.
	tm *Timing

	// tape is the gradient DFG compiled to a flat evaluation tape — the
	// functional engine every simulated MIMD thread executes — built by the
	// first RunBatch or CycleProfile: a Sim that only answers timing
	// questions never pays for one. pairs is the Equation 3a update plan
	// (model symbol ↔ gradient slots ↔ model leaf slots), resolved by the
	// first RunBatch. Both are kept, as are their errors.
	tapeOnce sync.Once
	tape     *dfg.Tape
	tapeErr  error
	planned  bool
	pairs    []pairPlan
	pairsErr error
	// words is the number of state rows a lane carries: one per gradient
	// word.
	words int
	// workers is the host-goroutine budget for RunBatch (0 = GOMAXPROCS,
	// 1 = sequential).
	workers int
	// blocks are the lane arenas RunBatch evaluates the tape on, one per
	// host worker and width lanes each; pos maps a thread to its lane
	// (block·width + lane, −1 for a thread with no vectors). All are built
	// on first use, retained across batches, and rebuilt only when the
	// worker count changes.
	blocks []laneBlock
	width  int
	pos    []int
	wg     sync.WaitGroup // the workers of the batch in flight

	// mx holds the pre-resolved telemetry instruments (nil = disabled; the
	// RunBatch hot path then takes a single nil check). cycleBase is the
	// simulated-cycle offset of the next batch, so consecutive batches lay
	// out end to end on the trace timeline.
	mx        *simObs
	cycleBase int64

	// Cycle-attribution accounting for CycleProfile. RunBatch folds each
	// batch's exact cycle total into three phase buckets (model broadcast,
	// compute window, tree reduce/write-back) under profMu; attribution down
	// to tape instructions happens lazily at snapshot time, so the RunBatch
	// cost is five integer adds and an uncontended mutex — no allocation.
	// Invariant: profBroadcast+profWindow+profReduce == Σ BatchResult.Cycles.
	profMu        sync.Mutex
	profBatches   int64
	profVectors   int64 // Σ ThreadVectors across batches
	profBroadcast int64
	profWindow    int64
	profReduce    int64
}

// New creates a simulator for the compiled program. The thread count comes
// from the program's plan.
func New(prog *compiler.Program) *Sim {
	return &Sim{prog: prog, threads: prog.Plan.Threads, tm: Analyze(prog)}
}

// compiledTape returns the evaluation tape, compiling it on first use.
func (s *Sim) compiledTape() (*dfg.Tape, error) {
	s.tapeOnce.Do(func() { s.tape, s.tapeErr = s.prog.Graph.CompileTape() })
	return s.tape, s.tapeErr
}

// SetWorkers sets the number of host goroutines RunBatch spreads the
// simulated MIMD threads across: 0 (the default) uses GOMAXPROCS, 1 runs
// every thread on the caller's goroutine. The partial update is
// bit-identical for every worker count — threads are functionally
// independent until the final cross-thread reduction, which always runs in
// thread order.
func (s *Sim) SetWorkers(n int) { s.workers = n }

// pairPlan is one model symbol's Equation 3a update, resolved to arena
// slots (slots are node IDs): element i of the model is stepped by the
// gradient in slot grads[i], and lives in the graph at the leaf slots in
// loads. row is the symbol's first state row in a laneBlock.
type pairPlan struct {
	model, grad string
	row         int
	grads       []int
	loads       []modelLeaf
}

// modelLeaf is one graph leaf reading element elem of a model symbol.
type modelLeaf struct{ slot, elem int }

// planPairs resolves the graph's model/gradient pairing into slots. words
// is the total number of gradient elements.
func planPairs(g *dfg.Graph) (plan []pairPlan, words int, err error) {
	pairs, err := g.Unit.ModelGradientPairs()
	if err != nil {
		return nil, 0, err
	}
	for _, pr := range pairs {
		outs := g.Outputs[pr[1].Name]
		p := pairPlan{model: pr[0].Name, grad: pr[1].Name, row: words, grads: make([]int, len(outs))}
		for i, o := range outs {
			p.grads[i] = o.ID
		}
		for elem, leaf := range g.ModelLeaves[p.model] {
			if leaf != nil { // nil: no node reads the element
				p.loads = append(p.loads, modelLeaf{slot: leaf.ID, elem: elem})
			}
		}
		words += len(outs)
		plan = append(plan, p)
	}
	return plan, words, nil
}

// simObs is the simulator's telemetry: instruments resolved once at Attach
// so RunBatch never touches the registry's lock or allocates for metrics.
type simObs struct {
	tr *obs.Tracer

	batches, vectors, cycles    *obs.Counter
	streamCycles, computeCycles *obs.Counter
	broadcastCycles, aggCycles  *obs.Counter
	peBusy, peIdle              []*obs.Counter // indexed by PE
	busKeys                     []int          // the bus segments that carry traffic, ascending
	busTransfers                []*obs.Counter // parallel to busKeys
	threadVectors               *obs.Histogram
}

// Attach wires the simulator to an observer: per-PE busy/idle cycle
// counters, per-bus-segment transfer counters, thread-occupancy histogram,
// reduction-tree (aggregation write-back) latency, and simulated-cycle trace
// spans for every batch. Attach(nil) detaches; a detached simulator's
// RunBatch allocates only the BatchResult it returns.
func (s *Sim) Attach(o *obs.Observer) {
	if o == nil {
		s.mx = nil
		return
	}
	reg := o.Registry()
	mx := &simObs{tr: o.Tracer()}
	mx.batches = reg.Counter("cosmic_sim_batches_total")
	mx.vectors = reg.Counter("cosmic_sim_vectors_total")
	mx.cycles = reg.Counter("cosmic_sim_cycles_total")
	mx.streamCycles = reg.Counter("cosmic_sim_stream_cycles_total")
	mx.computeCycles = reg.Counter("cosmic_sim_compute_cycles_total")
	mx.broadcastCycles = reg.Counter("cosmic_sim_broadcast_cycles_total")
	mx.aggCycles = reg.Counter("cosmic_sim_reduce_cycles_total")
	for pe := range s.tm.peLoad {
		id := strconv.Itoa(pe)
		mx.peBusy = append(mx.peBusy, reg.Counter(obs.Labeled("cosmic_sim_pe_busy_cycles_total", "pe", id)))
		mx.peIdle = append(mx.peIdle, reg.Counter(obs.Labeled("cosmic_sim_pe_idle_cycles_total", "pe", id)))
	}
	for bus, load := range s.tm.busLoad {
		if load > 0 {
			mx.busKeys = append(mx.busKeys, bus)
			mx.busTransfers = append(mx.busTransfers,
				reg.Counter(obs.Labeled("cosmic_sim_bus_transfers_total", "bus", busName(s.prog, bus))))
		}
	}
	mx.threadVectors = reg.Histogram("cosmic_sim_thread_vectors",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})

	for t := 0; t < s.threads; t++ {
		mx.tr.NameThread(obs.PIDAccel, t, "thread "+strconv.Itoa(t))
	}
	for pe := range s.tm.peLoad {
		mx.tr.NameThread(obs.PIDAccel, peTraceTID+pe, "pe "+strconv.Itoa(pe))
	}
	s.mx = mx
}

// peTraceTID offsets per-PE trace rows past the per-thread rows.
const peTraceTID = 1 << 10

// recordBatch emits the batch's metrics and simulated-cycle spans. The
// analytic timing model gives per-resource occupancies, not per-cycle
// events, so spans are laid out on the model's phase boundaries: model
// broadcast, then the threads' (and their PEs') steady-state compute, then
// the tree-bus reduction and write-back.
func (s *Sim) recordBatch(res *BatchResult, maxVecs int) {
	mx := s.mx
	totalVecs := sumInts(res.ThreadVectors)

	mx.batches.Inc()
	mx.vectors.Add(totalVecs)
	mx.cycles.Add(res.Cycles)
	mx.streamCycles.Add(res.StreamCycles)
	mx.computeCycles.Add(res.ComputeCycles)
	broadcast := s.ModelBroadcastCycles()
	reduce := s.AggWritebackCycles()
	mx.broadcastCycles.Add(broadcast)
	mx.aggCycles.Add(reduce)
	for pe, load := range s.tm.peLoad {
		busy := load * int64(maxVecs)
		mx.peBusy[pe].Add(busy)
		if idle := res.Cycles - busy; idle > 0 {
			mx.peIdle[pe].Add(idle)
		}
	}
	// busLoad counts one thread's per-vector transmissions; every thread
	// replays the schedule on its own sub-array's segments.
	for i, bus := range mx.busKeys {
		mx.busTransfers[i].Add(s.tm.busLoad[bus] * totalVecs)
	}
	for _, n := range res.ThreadVectors {
		mx.threadVectors.Observe(float64(n))
	}

	base := s.cycleBase
	computeEnd := s.CyclesForRounds(maxVecs)
	mx.tr.Cycles("accel", "model-broadcast", 0, base, broadcast, nil)
	for t, n := range res.ThreadVectors {
		mx.tr.Cycles("accel", "thread-compute", t, base+broadcast, computeEnd-broadcast,
			map[string]any{"vectors": n})
	}
	for pe, load := range s.tm.peLoad {
		if busy := load * int64(maxVecs); busy > 0 {
			mx.tr.Cycles("accel", "pe-busy", peTraceTID+pe, base+broadcast, busy, nil)
		}
	}
	mx.tr.Cycles("accel", "tree-reduce", 0, base+computeEnd, reduce, nil)
	s.cycleBase = base + computeEnd + reduce
}

// BatchResult is the outcome of one mini-batch on one accelerator.
type BatchResult struct {
	// Cycles is the total cycle count: model broadcast, streaming, compute,
	// local cross-thread aggregation, and gradient write-back.
	Cycles int64
	// Partial is the accelerator's locally aggregated partial update: the
	// averaged per-thread models keyed by model symbol (AggAverage) or the
	// summed gradients keyed by gradient symbol (AggSum).
	Partial map[string][]float64
	// ThreadVectors records how many vectors each thread consumed.
	ThreadVectors []int
	// StreamCycles is the memory interface's busy time; ComputeCycles is
	// the busiest PE's occupancy summed over rounds. Their comparison
	// drives the Figure 13/15 analyses.
	StreamCycles, ComputeCycles int64
}

// ModelBroadcastCycles returns the per-batch model broadcast cost.
func (s *Sim) ModelBroadcastCycles() int64 { return s.tm.broadcast }

// AggWritebackCycles returns the end-of-batch cross-thread aggregation and
// write-back cost (Timing.AggWriteback at the simulator's thread count).
func (s *Sim) AggWritebackCycles() int64 { return s.tm.AggWriteback(s.threads) }

// Interval returns the steady-state initiation interval per round (one
// vector on every thread).
func (s *Sim) Interval() int64 { return s.tm.Interval(s.threads) }

// Startup returns the single-vector makespan (pipeline fill latency).
func (s *Sim) Startup() int64 { return s.tm.startup }

// StreamPerVector returns the memory cycles to deliver one vector.
func (s *Sim) StreamPerVector() int { return s.tm.streamPerVec }

// MaxPELoad returns the busiest PE's per-vector occupancy.
func (s *Sim) MaxPELoad() int64 { return s.tm.maxPE }

// MaxBusLoad returns the busiest bus segment's per-vector transmission
// count.
func (s *Sim) MaxBusLoad() int64 { return s.tm.maxBus }

// CyclesForRounds composes the timing model for the given number of rounds
// (one vector per thread per round), excluding aggregation/write-back.
func (s *Sim) CyclesForRounds(rounds int) int64 {
	if rounds <= 0 {
		return s.tm.broadcast
	}
	return s.tm.broadcast + int64(s.tm.streamPerVec) + s.tm.startup + int64(rounds-1)*s.Interval()
}

// laneBlock is one host worker's share of a batch: a lane arena and the
// training state of up to width simulated threads, one per lane. Only that
// worker touches it until RunBatch's cross-thread reduction.
type laneBlock struct {
	lanes *dfg.Lanes
	// state is lane-major like the arena — row r, lane l at
	// state[r*width+l] — with one row per gradient word in plan order: the
	// lane's local model under AggAverage, its gradient sum under AggSum.
	state []float64
	// threads maps lane → simulated thread. Lanes are ordered by descending
	// vector count (thread order among equals), so the lanes that still
	// hold a vector at any step are a prefix.
	threads []int
	// err is the binding error of errThread, the block's lowest-indexed
	// failing thread (−1 for the model, which is bound before any vector).
	err       error
	errThread int
}

// RunBatch simulates the accelerator processing one mini-batch: parts[t]
// holds thread t's data sub-partition as per-vector data bindings. model is
// the broadcast model; lr and agg define the local update discipline
// (Equation 3a within each thread).
//
// The simulated threads all replay one tape, so they run in lockstep: each
// thread with vectors is a lane of a lane-major arena, and one walk of the
// tape evaluates a vector on every lane. Lanes are dealt in contiguous
// blocks to up to SetWorkers host goroutines. A lane carries its thread's
// local model (or gradient sum) and shares nothing with the others until
// the final reduction, which combines the threads in ascending order, so the
// result is bit-identical for every worker count — and to running each
// thread alone on a scalar dfg.Arena.
func (s *Sim) RunBatch(model map[string][]float64, parts [][]map[string][]float64,
	lr float64, agg dsl.AggregatorKind) (*BatchResult, error) {

	if len(parts) != s.threads {
		return nil, fmt.Errorf("accel: %d sub-partitions for %d threads", len(parts), s.threads)
	}
	if _, err := s.compiledTape(); err != nil {
		return nil, err
	}
	if !s.planned {
		s.pairs, s.words, s.pairsErr = planPairs(s.prog.Graph)
		s.planned = true
	}
	if s.pairsErr != nil {
		return nil, s.pairsErr
	}
	for i := range s.pairs {
		if p := &s.pairs[i]; len(model[p.model]) > len(p.grads) {
			return nil, fmt.Errorf("accel: model %s has %d elements, its gradient %s has %d",
				p.model, len(model[p.model]), p.grad, len(p.grads))
		}
	}

	res := &BatchResult{
		Partial:       make(map[string][]float64, len(s.pairs)),
		ThreadVectors: make([]int, s.threads),
	}
	maxVecs := 0
	for t, p := range parts {
		res.ThreadVectors[t] = len(p)
		if len(p) > maxVecs {
			maxVecs = len(p)
		}
	}

	blocks := s.deal(parts)
	for b := 1; b < len(blocks); b++ {
		s.wg.Add(1)
		go func(b *laneBlock) {
			defer s.wg.Done()
			s.runBlock(b, model, parts, lr, agg)
		}(&blocks[b])
	}
	s.runBlock(&blocks[0], model, parts, lr, agg)
	s.wg.Wait()
	// Blocks hold ascending thread ranges, so the first failing block holds
	// the lowest-indexed failing thread: the error is deterministic.
	for b := range blocks {
		if blocks[b].err != nil {
			return nil, blocks[b].err
		}
	}

	totalVecs := sumInts(res.ThreadVectors)
	reduce := s.AggWritebackCycles()
	res.Cycles = s.CyclesForRounds(maxVecs) + reduce
	res.StreamCycles = s.tm.broadcast + int64(s.tm.streamPerVec)*totalVecs
	res.ComputeCycles = s.tm.maxPE * int64(maxVecs)
	s.profMu.Lock()
	s.profBatches++
	s.profVectors += totalVecs
	s.profBroadcast += s.tm.broadcast
	s.profReduce += reduce
	s.profWindow += res.Cycles - s.tm.broadcast - reduce
	s.profMu.Unlock()
	if s.mx != nil {
		s.recordBatch(res, maxVecs)
	}

	// Functional aggregation across threads (the tree-bus ALUs' job).
	switch agg {
	case dsl.AggAverage:
		for i := range s.pairs {
			p := &s.pairs[i]
			// A thread with no vectors still holds the broadcast model.
			out := make([]float64, len(model[p.model]))
			s.sumThreads(out, p.row, model[p.model])
			for i := range out {
				out[i] /= float64(s.threads)
			}
			res.Partial[p.model] = out
		}
	case dsl.AggSum:
		for i := range s.pairs {
			p := &s.pairs[i]
			// A thread with no vectors holds a zero sum; leaving it out
			// changes no bit, because a sum that starts at +0 is never −0.
			out := make([]float64, len(p.grads))
			s.sumThreads(out, p.row, nil)
			res.Partial[p.grad] = out
		}
	}
	return res, nil
}

// deal gives every thread that has vectors a lane: ascending threads in
// contiguous, equally filled blocks, one block per host worker. It returns
// the blocks in use — at least one, since an empty batch still has its model
// checked.
func (s *Sim) deal(parts [][]map[string][]float64) []laneBlock {
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.threads {
		workers = s.threads
	}
	if width := ceilDiv(s.threads, workers); width != s.width {
		s.width = width
		s.blocks = make([]laneBlock, ceilDiv(s.threads, width))
		for b := range s.blocks {
			s.blocks[b].threads = make([]int, 0, width)
		}
		s.pos = make([]int, s.threads)
	}

	active := 0
	for _, p := range parts {
		if len(p) > 0 {
			active++
		}
	}
	per := ceilDiv(active, len(s.blocks))
	for b := range s.blocks {
		s.blocks[b].threads = s.blocks[b].threads[:0]
	}
	used := 0
	for t, p := range parts {
		s.pos[t] = -1
		if len(p) == 0 {
			continue
		}
		if len(s.blocks[used].threads) == per {
			used++
		}
		s.blocks[used].threads = append(s.blocks[used].threads, t)
	}
	for b := range s.blocks[:used+1] {
		threads := s.blocks[b].threads
		// Insertion sort by descending vector count; stable, so equal
		// counts stay in thread order.
		for i := 1; i < len(threads); i++ {
			for j := i; j > 0 && len(parts[threads[j]]) > len(parts[threads[j-1]]); j-- {
				threads[j], threads[j-1] = threads[j-1], threads[j]
			}
		}
		for l, t := range threads {
			s.pos[t] = b*s.width + l
		}
	}
	return s.blocks[:used+1]
}

// runBlock runs the block's threads through their vector sequences in
// lockstep: step k binds every live lane's k-th vector, walks the tape once,
// and applies the local update discipline to the live lanes.
func (s *Sim) runBlock(b *laneBlock, model map[string][]float64, parts [][]map[string][]float64,
	lr float64, agg dsl.AggregatorKind) {

	w := s.width
	if b.lanes == nil {
		b.lanes = s.tape.NewLanes(w)
		b.state = make([]float64, s.words*w)
	}
	b.err, b.errThread = nil, -1
	if err := b.lanes.BindModel(model); err != nil {
		b.err = err
		return
	}
	n := len(b.threads)
	switch agg {
	case dsl.AggAverage:
		for i := range s.pairs {
			p := &s.pairs[i]
			for e, v := range model[p.model] {
				row := b.state[(p.row+e)*w:][:n]
				for l := range row {
					row[l] = v
				}
			}
		}
	case dsl.AggSum:
		clear(b.state)
	}

	for step := 0; ; step++ {
		for n > 0 && len(parts[b.threads[n-1]]) <= step {
			n--
		}
		if n == 0 {
			return
		}
		for l, t := range b.threads[:n] {
			// A lane that fails keeps running on stale data; the batch is
			// discarded, and only the lowest thread's first error is kept.
			if err := b.lanes.BindData(l, parts[t][step]); err != nil && (b.err == nil || t < b.errThread) {
				b.err, b.errThread = err, t
			}
		}
		b.lanes.Eval(n)
		switch agg {
		case dsl.AggAverage:
			s.stepModels(b, n, lr)
		case dsl.AggSum:
			s.sumGradients(b, n)
		}
	}
}

// stepModels is the local SGD step on lanes [0, n): θ ← θ − μ·g (Equation
// 3a) on each lane's model rows, which are then copied into the model's leaf
// slots so the next vector sees the updated parameters. Every gradient is
// read before any leaf is rewritten, because a gradient slot may itself be
// a model leaf.
func (s *Sim) stepModels(b *laneBlock, n int, lr float64) {
	w := s.width
	for i := range s.pairs {
		p := &s.pairs[i]
		for e, slot := range p.grads {
			m := b.state[(p.row+e)*w:][:n]
			g := b.lanes.Row(slot)[:n]
			for l := range m {
				m[l] -= lr * g[l]
			}
		}
	}
	for i := range s.pairs {
		p := &s.pairs[i]
		for _, ld := range p.loads {
			copy(b.lanes.Row(ld.slot)[:n], b.state[(p.row+ld.elem)*w:][:n])
		}
	}
}

// sumGradients adds the vector's gradients on lanes [0, n) to the lanes'
// running sums.
func (s *Sim) sumGradients(b *laneBlock, n int) {
	w := s.width
	for i := range s.pairs {
		p := &s.pairs[i]
		for e, slot := range p.grads {
			acc := b.state[(p.row+e)*w:][:n]
			g := b.lanes.Row(slot)[:n]
			for l := range acc {
				acc[l] += g[l]
			}
		}
	}
}

// sumThreads adds to out, in ascending thread order, every thread's state
// rows [row, row+len(out)); a thread with no lane contributes idle (nothing
// when idle is nil).
func (s *Sim) sumThreads(out []float64, row int, idle []float64) {
	w := s.width
	for _, pos := range s.pos {
		if pos < 0 {
			for i := range idle {
				out[i] += idle[i]
			}
			continue
		}
		lane := s.blocks[pos/w].state[row*w+pos%w:]
		for i := range out {
			out[i] += lane[i*w]
		}
	}
}

// ceilDiv returns ⌈a/b⌉ for b > 0. The divisor is always a structural
// quantity (PE columns) that the plan validates as positive; a
// non-positive b is a programming error, so it panics rather than silently
// returning a wrong value.
func ceilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("accel: ceilDiv by non-positive divisor %d", b))
	}
	return (a + b - 1) / b
}

func sumInts(xs []int) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}
