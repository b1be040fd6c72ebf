package accel

import (
	"math"
	"math/bits"
	"strconv"

	"repro/internal/compiler"
	"repro/internal/dfg"
)

// PipelineDepth is the PE pipeline depth: read, register, operand-select,
// execute, write-back.
const PipelineDepth = 5

// Latencies of the three connectivity levels, in cycles.
const (
	// NeighborLatency is a hop over the dedicated bidirectional link
	// between adjacent PEs in a row.
	NeighborLatency = 1
	// RowBusLatency is a transfer over a row's shared bus.
	RowBusLatency = 2
	// treeBusBase is the fixed cost of entering and leaving the tree bus;
	// each tree level adds treeBusPerLevel.
	treeBusBase     = 4
	treeBusPerLevel = 2
)

// Timing is the static timing analysis of a compiled program: the occupancy
// profile and single-vector makespan of one thread's schedule, and from them
// the cycle model of the whole accelerator. A schedule is compiled for one
// thread and replayed by all of them, so only three terms know the thread
// count — the memory interface's share of a round, the initiation interval
// it can bound, and the depth of the cross-thread reduction — and those are
// closed forms (Interval, AggWriteback, and perf's MemPerRound). Everything
// else is the same for every plan that shares the program's mapping, which
// is what lets the Planner cost a whole column of its design space from one
// analysis. The simulator, the performance-estimation tool and the Planner
// all read this one implementation.
type Timing struct {
	prog *compiler.Program

	// peLoad is the static per-vector occupancy of each PE (ops plus
	// gradient accumulations); busLoad the per-vector transmissions per bus
	// segment, indexed by segment (see busFor). Identical across threads and
	// vectors.
	peLoad, busLoad []int64
	maxPE, maxBus   int64
	// startup is the event-simulated makespan of one vector relative to its
	// first word delivery.
	startup int64
	// streamPerVec is the memory-interface cycles to deliver one vector.
	streamPerVec int
	// broadcast is the per-batch model broadcast cost; gradBursts the
	// memory-interface cycles one pass over the gradient takes.
	broadcast, gradBursts int64
}

// Analyze derives the program's static timing. It reads the program's
// mapping and schedule but not its Plan.Threads.
func Analyze(prog *compiler.Program) *Timing {
	t := &Timing{
		prog:         prog,
		streamPerVec: ceilDiv(len(prog.DataStream), prog.Columns),
		broadcast:    int64(ceilDiv(len(prog.ModelStream), prog.Columns)),
		gradBursts:   int64(ceilDiv(prog.Graph.GradientWords(), prog.Columns)),
	}
	newSchedWalk(prog).run(t)
	for _, l := range t.peLoad {
		t.maxPE = max(t.maxPE, l)
	}
	for _, l := range t.busLoad {
		t.maxBus = max(t.maxBus, l)
	}
	return t
}

// Program returns the program the analysis was made of.
func (t *Timing) Program() *compiler.Program { return t.prog }

// ModelBroadcastCycles returns the per-batch model broadcast cost.
func (t *Timing) ModelBroadcastCycles() int64 { return t.broadcast }

// Startup returns the single-vector makespan (pipeline fill latency).
func (t *Timing) Startup() int64 { return t.startup }

// StreamPerVector returns the memory cycles to deliver one vector.
func (t *Timing) StreamPerVector() int { return t.streamPerVec }

// MaxPELoad returns the busiest PE's per-vector occupancy.
func (t *Timing) MaxPELoad() int64 { return t.maxPE }

// MaxBusLoad returns the busiest bus segment's per-vector transmission
// count.
func (t *Timing) MaxBusLoad() int64 { return t.maxBus }

// Interval returns the steady-state initiation interval of one round (one
// vector on every thread) when threads threads replay the schedule: the
// busiest private resource bounds each thread's vector; the shared memory
// interface delivers threads vectors per round.
func (t *Timing) Interval(threads int) int64 {
	return max(int64(threads)*int64(t.streamPerVec), t.maxPE, t.maxBus, 1)
}

// AggWriteback returns the end-of-batch cross-thread aggregation and
// write-back cost for threads threads: the tree-bus ALUs combine thread
// partials level by level at Columns words per cycle, then the aggregate
// streams back to the host.
func (t *Timing) AggWriteback(threads int) int64 {
	levels := 0
	if threads > 1 {
		levels = int(math.Ceil(math.Log2(float64(threads))))
	}
	return t.gradBursts * int64(levels+2)
}

// Bus segments are numbered densely, per interconnect, in the order their
// metrics are registered. CoSMIC's template: row r's shared bus is segment
// r, and the tree-bus switch with heap index h (the lowest common ancestor
// of the rows a transfer joins, so disjoint subtrees transfer concurrently,
// as in the real hierarchical tree bus) is segment Rows+h. The TABLA-style
// template: the global bus is segment 0 and 8-PE group g's bus is 1+g.
const (
	busNone = -1
	// tablaGroupSize is the PE-group width of TABLA's template.
	tablaGroupSize = 8
)

// numBuses returns the size of the program's bus segment numbering.
func numBuses(p *compiler.Program) int {
	if p.Interconnect == compiler.FlatBus {
		return 1 + ceilDiv(p.NPE, tablaGroupSize)
	}
	return p.Rows + treeLeaves(p.Rows)
}

// busFor classifies the interconnect segment a src→dst transfer rides.
func busFor(p *compiler.Program, src, dst int) int {
	if p.Interconnect == compiler.FlatBus {
		if src/tablaGroupSize == dst/tablaGroupSize {
			return 1 + src/tablaGroupSize
		}
		return 0
	}
	srcRow, dstRow := p.RowOf(src), p.RowOf(dst)
	switch {
	case sameRowAdjacent(p, src, dst):
		return busNone // dedicated neighbor link, no shared segment
	case srcRow == dstRow:
		return srcRow
	default:
		return p.Rows + treeLCA(srcRow, dstRow, p.Rows)
	}
}

// busName renders a bus segment for metric labels.
func busName(p *compiler.Program, bus int) string {
	switch {
	case p.Interconnect == compiler.FlatBus && bus == 0:
		return "flat"
	case p.Interconnect == compiler.FlatBus:
		return "group" + strconv.Itoa(bus-1)
	case bus < p.Rows:
		return "row" + strconv.Itoa(bus)
	default:
		return "tree" + strconv.Itoa(bus-p.Rows)
	}
}

// treeLeaves returns the leaf count of the complete binary tree the tree
// bus forms over the accelerator's rows.
func treeLeaves(rows int) int {
	n := 1
	for n < rows {
		n <<= 1
	}
	return n
}

// treeLCA returns the heap index of the lowest common ancestor of two rows
// in that tree: the switch where a cross-row transfer contends.
func treeLCA(a, b, rows int) int {
	n := treeLeaves(rows)
	a += n
	b += n
	for a != b {
		if a > b {
			a >>= 1
		} else {
			b >>= 1
		}
	}
	return a
}

// transferLatency is the cycles a value spends in flight from src to dst
// once granted its segment.
func transferLatency(p *compiler.Program, src, dst int) int64 {
	if p.Interconnect == compiler.FlatBus {
		if src/tablaGroupSize == dst/tablaGroupSize {
			return RowBusLatency
		}
		return 2 * RowBusLatency // the global bus spans the whole fabric
	}
	srcRow, dstRow := p.RowOf(src), p.RowOf(dst)
	switch {
	case sameRowAdjacent(p, src, dst):
		return NeighborLatency
	case srcRow == dstRow:
		return RowBusLatency
	default:
		// The tree bus's latency grows logarithmically with the row span,
		// the property that keeps the template scalable ("communication
		// latency only grows by a logarithmic order").
		// ⌈log2 span⌉, in integers: span ≥ 1.
		span := absInt(srcRow-dstRow) + 1
		levels := bits.Len(uint(span - 1))
		return int64(treeBusBase + treeBusPerLevel*levels)
	}
}

// sameRowAdjacent reports whether two PEs share a dedicated bidirectional
// neighbor link: same row, adjacent columns. Such transfers ride no shared
// bus segment.
func sameRowAdjacent(p *compiler.Program, a, b int) bool {
	return p.RowOf(a) == p.RowOf(b) && absInt(p.ColOf(a)-p.ColOf(b)) == 1
}

// schedWalk is the scratch state of one event-driven walk of a thread's
// schedule. Node IDs and bus segments are dense, so all of it is slices.
type schedWalk struct {
	prog *compiler.Program
	// arrival[id] is the cycle node id's value is available on its own PE;
	// peFree and busFree the next free issue slot of a PE and transmission
	// slot of a bus segment.
	arrival, peFree, busFree []int64
	// A value is transmitted once per bus segment and snooped by every later
	// reader on that segment. sentHead[id] is 1 + the index in sent of the
	// node's most recent transmission (0 = none), and each transmission
	// links to the node's previous one: a value rides few distinct segments.
	sentHead []int32
	sent     []transmission
}

// transmission is one value's ride on one bus segment.
type transmission struct {
	bus, prev int32
	at        int64 // arrival at the readers
}

// newSchedWalk allocates the walk's scratch once, at its final size. A
// transmission carries one argument edge between two PEs, so counting those
// edges bounds how many the walk can make.
func newSchedWalk(prog *compiler.Program) *schedWalk {
	g := prog.Graph
	crossing := 0
	for _, id := range prog.IssueOrder {
		for _, a := range g.Nodes[id].Args() {
			if src := prog.PE[a]; src >= 0 && src != prog.PE[id] && g.Nodes[a].Op != dfg.OpConst {
				crossing++
			}
		}
	}
	return &schedWalk{
		prog:     prog,
		arrival:  make([]int64, len(g.Nodes)),
		peFree:   make([]int64, prog.NPE),
		busFree:  make([]int64, numBuses(prog)),
		sentHead: make([]int32, len(g.Nodes)),
		sent:     make([]transmission, 0, crossing),
	}
}

// run event-simulates one vector on one thread — in-order PE issue, bus
// contention (one transmission per segment per cycle, snoopable by every PE
// on the segment), and word-by-word data delivery from cycle 0 — and fills
// in t's occupancy profile and makespan.
func (w *schedWalk) run(t *Timing) {
	prog := w.prog
	g := prog.Graph
	t.peLoad = make([]int64, prog.NPE)
	t.busLoad = make([]int64, len(w.busFree))

	for k, id := range prog.DataStream {
		if id >= 0 {
			w.arrival[id] = int64(k/prog.Columns) + 1
		}
	}
	// Model parameters are resident before the batch starts (broadcast is
	// accounted separately in ModelBroadcastCycles).

	var makespan int64
	for _, id := range prog.IssueOrder {
		pe := prog.PE[id]
		t.peLoad[pe]++
		ready := w.peFree[pe]
		for _, a := range g.Nodes[id].Args() {
			if g.Nodes[a].Op == dfg.OpConst {
				continue
			}
			at := w.arrival[a]
			src := prog.PE[a]
			if src >= 0 && src != pe {
				at = w.transfer(t, a, src, pe, at)
			}
			if at > ready {
				ready = at
			}
		}
		issue := ready
		w.peFree[pe] = issue + 1
		w.arrival[id] = issue + 1 // bypass path for local consumers
		if issue+1 > makespan {
			makespan = issue + 1
		}
	}
	// Per-vector gradient accumulation on the owning PEs.
	for pe, ids := range prog.GradAccum {
		if len(ids) == 0 {
			continue
		}
		t.peLoad[pe] += int64(len(ids))
		end := w.peFree[pe]
		for _, id := range ids {
			if w.arrival[id] > end {
				end = w.arrival[id]
			}
			end++
		}
		if end > makespan {
			makespan = end
		}
	}
	t.startup = makespan
}

// transfer books a bus slot for a value's transmission, counting it against
// the segment's load (or snoops one already made), and returns the value's
// arrival at dst.
func (w *schedWalk) transfer(t *Timing, node int32, src, dst int, ready int64) int64 {
	// A remote reader sees the value after pipeline write-back, not the
	// bypass: charge the tail.
	ready += PipelineDepth - 2
	bus := busFor(w.prog, src, dst)
	lat := transferLatency(w.prog, src, dst)
	if bus == busNone {
		return ready + lat
	}
	for i := w.sentHead[node]; i != 0; i = w.sent[i-1].prev {
		if s := &w.sent[i-1]; int(s.bus) == bus {
			return s.at
		}
	}
	t.busLoad[bus]++
	start := max(ready, w.busFree[bus])
	w.busFree[bus] = start + 1
	at := start + lat
	w.sent = append(w.sent, transmission{bus: int32(bus), prev: w.sentHead[node], at: at})
	w.sentHead[node] = int32(len(w.sent))
	return at
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
