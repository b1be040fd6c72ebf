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
	"slices"
	"strconv"
	"sync"

	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Sim simulates one accelerator chip configured by a compiled program.
type Sim struct {
	prog    *compiler.Program
	threads int

	// tm is the program's static timing.
	tm *Timing

	// tape is the gradient DFG compiled to a flat evaluation tape — the
	// functional engine every simulated MIMD thread executes — built by the
	// first batch or CycleProfile: a Sim that only answers timing questions
	// never pays for one. pairs is the Equation 3a update plan, resolved by
	// the first batch. Both are kept, as are their errors.
	tapeOnce sync.Once
	tape     *dfg.Tape
	tapeErr  error
	planned  bool
	pairs    []pairPlan
	pairsErr error
	// layout places the lanes' model block — one span per pair, in pair
	// order, one row per gradient word — and their gradient block, each
	// row's gradient output slot.
	layout dfg.LaneLayout
	// dataSyms is the tape's data symbols in binding order.
	dataSyms []string
	// workers is the host-goroutine budget for a batch (0 = GOMAXPROCS,
	// 1 = sequential).
	workers int
	// blocks are the lane arenas a batch evaluates the tape on, one per
	// host worker and width lanes each; pos maps a thread to its lane
	// (block·width + lane, −1 for a thread with no vectors). All are built
	// on first use, retained across batches, and rebuilt only when the
	// worker count changes.
	blocks []laneBlock
	width  int
	pos    []int
	wg     sync.WaitGroup // the workers of the batch in flight
	// threadVecs (each thread's vector count) and laneOf (each thread's
	// reduction rows, offset to its lane; nil for a thread with no lane)
	// are per-batch scratch.
	threadVecs []int
	laneOf     [][]float64
	// RunBatch's resolved bindings, reused from batch to batch and cleared
	// after each: the model and partial per pair, and each vector's data
	// symbols, thread by thread.
	mapModel, mapPartial, mapSyms [][]float64
	mapVecs                       [][][]float64
	mapParts                      [][][][]float64

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

// SetWorkers sets the number of host goroutines a batch spreads the
// simulated MIMD threads across, one lane block each: 0 (the default) uses
// GOMAXPROCS, which suits a simulator that owns the host (cosmic-sim, the
// designer's validation); 1 runs every thread as one full-width block on the
// caller's goroutine, which is what a cluster node's AccelEngine does, since
// its cores are shared with its peers. The partial update is bit-identical
// for every worker count — threads are functionally independent until the
// final cross-thread reduction, which always runs in thread order.
func (s *Sim) SetWorkers(n int) { s.workers = n }

// pairPlan is one model symbol's Equation 3a update: the model symbol, the
// gradient symbol that steps it, and its words rows of the model block from
// row on.
type pairPlan struct {
	model, grad string
	row, words  int
}

// prepare compiles the tape and plans the model block, once; it returns the
// error either hit.
func (s *Sim) prepare() error {
	if _, err := s.compiledTape(); err != nil {
		return err
	}
	if !s.planned {
		s.pairsErr = s.planPairs()
		s.planned = true
	}
	return s.pairsErr
}

// planPairs resolves the graph's model/gradient pairing into the lane
// layout: each pair's model block rows and the gradient slot stepping each
// row.
func (s *Sim) planPairs() error {
	g := s.prog.Graph
	pairs, err := g.Unit.ModelGradientPairs()
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		outs := g.Outputs[pr[1].Name]
		for elem, leaf := range g.ModelLeaves[pr[0].Name] {
			if leaf >= 0 && elem >= len(outs) {
				return fmt.Errorf("accel: model %s is read past its gradient %s's %d elements",
					pr[0].Name, pr[1].Name, len(outs))
			}
		}
		s.pairs = append(s.pairs, pairPlan{model: pr[0].Name, grad: pr[1].Name, row: len(s.layout.Grads), words: len(outs)})
		s.layout.Model = append(s.layout.Model, dfg.ModelSpan{Name: pr[0].Name, Words: len(outs)})
		for _, o := range outs {
			s.layout.Grads = append(s.layout.Grads, int(o))
		}
	}
	s.dataSyms = s.tape.DataSymbols()
	return nil
}

// Symbols returns the order Run binds in: the model symbols (one per
// model/gradient pair, in declaration order) and the data symbols. It fails
// as the first batch would on a tape or pairing error.
func (s *Sim) Symbols() (model, data []string, err error) {
	if err := s.prepare(); err != nil {
		return nil, nil, err
	}
	for i := range s.pairs {
		model = append(model, s.pairs[i].model)
	}
	return model, s.dataSyms, nil
}

// simObs is the simulator's telemetry: instruments resolved once at Attach
// so RunBatch never touches the registry's lock or allocates for metrics.
type simObs struct {
	tr *obs.Tracer

	batches, vectors, cycles *obs.Counter
	peBusy                   []*obs.Counter // indexed by PE
	busKeys                  []int          // the bus segments that carry traffic, ascending
	busTransfers             []*obs.Counter // parallel to busKeys
}

// Attach wires the simulator to an observer: per-PE busy cycle counters,
// per-bus-segment transfer counters, and simulated-cycle trace spans for
// every batch, the reduction tree's (aggregation write-back) among them.
// The cycles of each phase are attributed exactly by CycleProfile, not
// counted here. Attach(nil)
// detaches; a detached simulator's RunBatch allocates only the BatchResult
// it returns.
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
	for pe := range s.tm.peLoad {
		id := strconv.Itoa(pe)
		mx.peBusy = append(mx.peBusy, reg.Counter(obs.Labeled("cosmic_sim_pe_busy_cycles_total", "pe", id)))
	}
	for bus, load := range s.tm.busLoad {
		if load > 0 {
			mx.busKeys = append(mx.busKeys, bus)
			mx.busTransfers = append(mx.busTransfers,
				reg.Counter(obs.Labeled("cosmic_sim_bus_transfers_total", "bus", busName(s.prog, bus))))
		}
	}

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
	broadcast := s.ModelBroadcastCycles()
	reduce := s.AggWritebackCycles()
	for pe, load := range s.tm.peLoad {
		mx.peBusy[pe].Add(load * int64(maxVecs))
	}
	// busLoad counts one thread's per-vector transmissions; every thread
	// replays the schedule on its own sub-array's segments.
	for i, bus := range mx.busKeys {
		mx.busTransfers[i].Add(s.tm.busLoad[bus] * totalVecs)
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

// LaneArenaBytes returns the size of the lane arenas the batches run on,
// summed over the host workers' blocks: 0 before the first batch.
func (s *Sim) LaneArenaBytes() int {
	n := 0
	for b := range s.blocks {
		if la := s.blocks[b].lanes; la != nil {
			n += la.Bytes()
		}
	}
	return n
}

// laneBlock is one host worker's share of a batch: a lane arena holding the
// training state of up to width simulated threads, one per lane. Only that
// worker touches it until the cross-thread reduction.
type laneBlock struct {
	// lanes' model block is each lane's local model: broadcast once per
	// batch and stepped in place by every vector's evaluation under
	// AggAverage. Under AggSum its gradient block is each lane's gradient
	// sum, cleared once per batch.
	lanes *dfg.Lanes
	// threads maps lane → simulated thread. Lanes are ordered by descending
	// vector count (thread order among equals), so the lanes that still
	// hold a vector at any step are a prefix.
	threads []int
	// step holds each live lane's vector of the step being bound. It
	// aliases the caller's vectors and is cleared when the batch ends.
	step [][][]float64
	// err is the binding error of errThread, the block's lowest-indexed
	// failing thread (−1 for the model, which is bound before any vector).
	err       error
	errThread int
}

// RunBatch simulates the accelerator processing one mini-batch: parts[t]
// holds thread t's data sub-partition as per-vector data bindings. model is
// the broadcast model; lr and agg define the local update discipline
// (Equation 3a within each thread). It resolves the symbol maps and runs the
// batch as Run does, returning the partial keyed by symbol.
func (s *Sim) RunBatch(model map[string][]float64, parts [][]map[string][]float64,
	lr float64, agg dsl.AggregatorKind) (*BatchResult, error) {

	if len(parts) != s.threads {
		return nil, fmt.Errorf("accel: %d sub-partitions for %d threads", len(parts), s.threads)
	}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	res := &BatchResult{Partial: make(map[string][]float64, len(s.pairs))}
	s.mapModel = slices.Grow(s.mapModel[:0], len(s.pairs))[:len(s.pairs)]
	s.mapPartial = slices.Grow(s.mapPartial[:0], len(s.pairs))[:len(s.pairs)]
	for i := range s.pairs {
		p := &s.pairs[i]
		s.mapModel[i] = model[p.model]
		name, n := p.model, len(model[p.model])
		if agg == dsl.AggSum {
			name, n = p.grad, p.words
		}
		s.mapPartial[i] = make([]float64, n)
		res.Partial[name] = s.mapPartial[i]
	}
	total, nd := 0, len(s.dataSyms)
	for _, p := range parts {
		total += len(p)
	}
	s.mapSyms = slices.Grow(s.mapSyms[:0], total*nd)[:total*nd]
	s.mapVecs = slices.Grow(s.mapVecs[:0], total)[:total]
	s.mapParts = slices.Grow(s.mapParts[:0], s.threads)[:s.threads]
	v := 0
	for t, p := range parts {
		first := v
		for _, bind := range p {
			vec := s.mapSyms[v*nd : (v+1)*nd]
			for j, name := range s.dataSyms {
				vec[j] = bind[name]
			}
			s.mapVecs[v] = vec
			v++
		}
		s.mapParts[t] = s.mapVecs[first:v]
	}
	stats, err := s.run(s.mapPartial, s.mapModel, s.mapParts, lr, agg)
	// The resolved bindings alias the caller's vectors, which are not retained.
	clear(s.mapModel)
	clear(s.mapPartial)
	clear(s.mapSyms)
	if err != nil {
		return nil, err
	}
	res.Cycles, res.StreamCycles, res.ComputeCycles = stats.Cycles, stats.StreamCycles, stats.ComputeCycles
	res.ThreadVectors = slices.Clone(stats.ThreadVectors)
	return res, nil
}

// Run simulates one mini-batch on flat bindings, in the order Symbols
// gives: model[i] is the i-th model symbol's vector, and parts[t][v][j] the
// j-th data symbol's vector of thread t's v-th training vector. The partial
// is written to partial[i]: the i-th symbol's averaged per-thread models
// under AggAverage (len(model[i]) words), or its gradient's per-thread sums
// under AggSum (the gradient's length). lr and agg are as for RunBatch. Run
// returns the batch's cycle count, and allocates nothing in steady state
// beyond the start-up of its extra worker goroutines.
//
// The simulated threads all replay one tape, so they run in lockstep: each
// thread with vectors is a lane of a lane-major arena, and one walk of the
// lane program evaluates a vector on every lane. Lanes are dealt in
// contiguous blocks to up to SetWorkers host goroutines. A lane carries its
// thread's local model (or gradient sum) and shares nothing with the others
// until the final reduction, which combines the threads in ascending order,
// so the result is bit-identical for every worker count — and to running
// each thread alone on a scalar dfg.Arena.
func (s *Sim) Run(partial, model [][]float64, parts [][][][]float64,
	lr float64, agg dsl.AggregatorKind) (int64, error) {

	if len(parts) != s.threads {
		return 0, fmt.Errorf("accel: %d sub-partitions for %d threads", len(parts), s.threads)
	}
	if err := s.prepare(); err != nil {
		return 0, err
	}
	if len(model) != len(s.pairs) || len(partial) != len(s.pairs) {
		return 0, fmt.Errorf("accel: %d model and %d partial vectors for %d model symbols",
			len(model), len(partial), len(s.pairs))
	}
	for i := range s.pairs {
		want := len(model[i])
		if agg == dsl.AggSum {
			want = s.pairs[i].words
		}
		if len(partial[i]) != want {
			return 0, fmt.Errorf("accel: partial %d has %d elements, want %d", i, len(partial[i]), want)
		}
	}
	for _, p := range parts {
		for _, vec := range p {
			if len(vec) != len(s.dataSyms) {
				return 0, fmt.Errorf("accel: a vector binds %d data symbols, want %d", len(vec), len(s.dataSyms))
			}
		}
	}
	stats, err := s.run(partial, model, parts, lr, agg)
	return stats.Cycles, err
}

// run is the batch both entry points share, on checked flat bindings. The
// result's ThreadVectors is the Sim's own scratch.
func (s *Sim) run(partial, model [][]float64, parts [][][][]float64,
	lr float64, agg dsl.AggregatorKind) (BatchResult, error) {

	for i := range s.pairs {
		if p := &s.pairs[i]; len(model[i]) > p.words {
			return BatchResult{}, fmt.Errorf("accel: model %s has %d elements, its gradient %s has %d",
				p.model, len(model[i]), p.grad, p.words)
		}
	}
	if len(s.threadVecs) != s.threads {
		s.threadVecs = make([]int, s.threads)
		s.laneOf = make([][]float64, s.threads)
	}
	maxVecs := 0
	for t, p := range parts {
		s.threadVecs[t] = len(p)
		maxVecs = max(maxVecs, len(p))
	}

	blocks := s.deal()
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
			return BatchResult{}, blocks[b].err
		}
	}

	res := BatchResult{ThreadVectors: s.threadVecs}
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
		s.recordBatch(&res, maxVecs)
	}
	s.reduce(partial, model, agg)
	return res, nil
}

// deal gives every thread that has vectors a lane: ascending threads in
// contiguous, equally filled blocks, one block per host worker. It returns
// the blocks in use — at least one, since an empty batch still has its model
// checked.
func (s *Sim) deal() []laneBlock {
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
	for _, n := range s.threadVecs {
		if n > 0 {
			active++
		}
	}
	per := ceilDiv(active, len(s.blocks))
	for b := range s.blocks {
		s.blocks[b].threads = s.blocks[b].threads[:0]
	}
	used := 0
	for t, n := range s.threadVecs {
		s.pos[t] = -1
		if n == 0 {
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
			for j := i; j > 0 && s.threadVecs[threads[j]] > s.threadVecs[threads[j-1]]; j-- {
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
// lockstep: step k binds every live lane's k-th vector in one call and
// walks the lane program once, which applies the local update discipline
// to the live lanes — the SGD step θ ← θ − μ·g (Equation 3a) or the
// gradient sum.
func (s *Sim) runBlock(b *laneBlock, model [][]float64, parts [][][][]float64,
	lr float64, agg dsl.AggregatorKind) {

	w := s.width
	if b.lanes == nil {
		b.lanes = s.tape.NewLanes(w, s.layout)
		b.step = make([][][]float64, w)
	}
	b.err, b.errThread = nil, -1
	if err := b.lanes.BindModel(model); err != nil {
		b.err = err
		return
	}
	update := dfg.UpdateStep
	if agg == dsl.AggSum {
		update = dfg.UpdateSum
		clear(b.lanes.Grads())
	}

	n := len(b.threads)
	for step := 0; ; step++ {
		for n > 0 && len(parts[b.threads[n-1]]) <= step {
			n--
		}
		if n == 0 {
			clear(b.step)
			return
		}
		for l, t := range b.threads[:n] {
			b.step[l] = parts[t][step]
		}
		if b.lanes.BindData(0, b.step[:n]) != nil {
			// Nothing was bound. Lane by lane, the lanes that can bind do,
			// and the lowest failing thread's first error is kept; a lane
			// that fails keeps running on stale data, and the batch is
			// discarded.
			for l, t := range b.threads[:n] {
				if err := b.lanes.BindData(l, b.step[l:l+1]); err != nil && (b.err == nil || t < b.errThread) {
					b.err, b.errThread = err, t
				}
			}
		}
		b.lanes.Eval(n, update, lr)
	}
}

// reduce is the functional cross-thread aggregation (the tree-bus ALUs'
// job): each partial word adds every thread's value in ascending thread
// order — its lane's model block row under AggAverage, where a thread with
// no lane still holds the broadcast model, then divided by the thread
// count; its gradient sum under AggSum, where a thread with no lane holds a
// zero sum (leaving it out changes no bit, because a sum that starts at +0
// is never −0).
//
// When every thread has a lane and thread t sits in lane t of the blocks in
// turn — every thread with as many vectors as the next, a node's
// AccelEngine at the `deep` and `stack` workloads' shapes — a word's
// threads are its row's lanes, block after block, and vec.AddLanes adds
// them in that order. Any other layout (idle threads, or lanes sorted by
// vector count) takes the scalar loop.
func (s *Sim) reduce(partial, model [][]float64, agg dsl.AggregatorKind) {
	if agg != dsl.AggAverage && agg != dsl.AggSum {
		return
	}
	w, inOrder := s.width, true
	for t, pos := range s.pos {
		s.laneOf[t] = nil
		inOrder = inOrder && pos == t
		if pos >= 0 {
			b := &s.blocks[pos/w]
			rows := b.lanes.Grads()
			if agg == dsl.AggAverage {
				rows = b.lanes.Model()
			}
			s.laneOf[t] = rows[pos%w:]
		}
	}
	for i := range s.pairs {
		out, row := partial[i], s.pairs[i].row
		switch {
		case inOrder:
			clear(out)
			for t := 0; t < s.threads; t += w {
				vec.AddLanes(out, s.laneOf[t][row*w:], w, min(w, s.threads-t))
			}
		case agg == dsl.AggAverage:
			s.reduceScalar(out, row, model[i])
		default:
			s.reduceScalar(out, row, nil)
		}
		if agg == dsl.AggAverage {
			vec.AverageInto(out, out, float64(s.threads))
		}
	}
}

// reduceScalar writes into out the sums of the words from the given row on,
// thread by thread in ascending order; a thread with no lane adds idle's
// word, or nothing when idle is nil.
func (s *Sim) reduceScalar(out []float64, row int, idle []float64) {
	w := s.width
	// Four words at a time: each still adds the threads in ascending order
	// into its own accumulator, and the four chains overlap.
	e := 0
	for ; e+4 <= len(out); e += 4 {
		at := (row + e) * w
		var a0, a1, a2, a3 float64
		for _, lane := range s.laneOf {
			switch {
			case lane != nil:
				v := lane[at : at+3*w+1]
				a0 += v[0]
				a1 += v[w]
				a2 += v[2*w]
				a3 += v[3*w]
			case idle != nil:
				v := idle[e : e+4]
				a0 += v[0]
				a1 += v[1]
				a2 += v[2]
				a3 += v[3]
			}
		}
		out[e], out[e+1], out[e+2], out[e+3] = a0, a1, a2, a3
	}
	for ; e < len(out); e++ {
		at, acc := (row+e)*w, 0.0
		for _, lane := range s.laneOf {
			switch {
			case lane != nil:
				acc += lane[at]
			case idle != nil:
				acc += idle[e]
			}
		}
		out[e] = acc
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
