package accel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
)

// TestTimingClosedFormsMatchPerThreadSim: one analysis of a mapping answers
// for every thread count that can replay it. For each of the five families,
// both styles and every (rows per thread, threads) shape that fits the test
// chip, the analysis of the single-thread program gives the timing of a
// simulator built on a program compiled for exactly that shape — which is
// also what the per-thread, map-keyed analysis this one replaced gives.
func TestTimingClosedFormsMatchPerThreadSim(t *testing.T) {
	algs := []ml.Algorithm{
		&ml.LinearRegression{M: 40},
		&ml.LogisticRegression{M: 24},
		&ml.SVM{M: 33},
		&ml.MLP{In: 9, Hid: 6, Out: 3},
		&ml.CF{NU: 5, NV: 7, K: 4},
	}
	rowLimit := testChip.RowLimit()
	for _, alg := range algs {
		for _, style := range []compiler.Style{compiler.StyleCoSMIC, compiler.StyleTABLA} {
			for rows := 1; rows <= rowLimit; rows++ {
				tm := Analyze(compileFor(t, alg, 1, rows, style))
				for threads := 1; threads*rows <= rowLimit; threads++ {
					prog := compileFor(t, alg, threads, rows, style)
					sim := New(prog)
					name := fmt.Sprintf("%s/%s/T%d×R%d", alg.Name(), style, threads, rows)
					closed := perThreadTiming{
						interval: tm.Interval(threads), aggWriteback: tm.AggWriteback(threads),
						broadcast: tm.ModelBroadcastCycles(), startup: tm.Startup(),
						streamPerVec: int64(tm.StreamPerVector()), maxPE: tm.MaxPELoad(), maxBus: tm.MaxBusLoad(),
					}
					simulated := perThreadTiming{
						interval: sim.Interval(), aggWriteback: sim.AggWritebackCycles(),
						broadcast: sim.ModelBroadcastCycles(), startup: sim.Startup(),
						streamPerVec: int64(sim.StreamPerVector()), maxPE: sim.MaxPELoad(), maxBus: sim.MaxBusLoad(),
					}
					if closed != simulated {
						t.Errorf("%s: the mapping's analysis gives %+v, the simulator %+v", name, closed, simulated)
					}
					if want := oracleTiming(prog); simulated != want {
						t.Errorf("%s: the simulator gives %+v, the per-thread oracle %+v", name, simulated, want)
					}
				}
			}
		}
	}
}

// perThreadTiming is the static timing of one (threads, rows) shape.
type perThreadTiming struct {
	interval, aggWriteback, broadcast, startup, streamPerVec, maxPE, maxBus int64
}

// oracleBus names the shared segment a src→dst transfer rides, by kind and
// index rather than by Timing's dense numbering; ok is false for a neighbor
// link.
type oracleBus struct {
	kind string
	n    int
}

func oracleBusFor(p *compiler.Program, src, dst int) (bus oracleBus, ok bool) {
	if p.Interconnect == compiler.FlatBus {
		if src/tablaGroupSize == dst/tablaGroupSize {
			return oracleBus{"group", src / tablaGroupSize}, true
		}
		return oracleBus{"flat", 0}, true
	}
	srcRow, dstRow := p.RowOf(src), p.RowOf(dst)
	switch {
	case sameRowAdjacent(p, src, dst):
		return oracleBus{}, false
	case srcRow == dstRow:
		return oracleBus{"row", srcRow}, true
	default:
		return oracleBus{"tree", treeLCA(srcRow, dstRow, p.Rows)}, true
	}
}

// oracleTiming is the analysis as it was before mappings shared one: made
// for one program and its thread count, in two passes over the schedule —
// occupancy, then the event-driven makespan — with every (node, segment)
// and per-segment quantity in a map.
func oracleTiming(prog *compiler.Program) perThreadTiming {
	g := prog.Graph
	threads := prog.Plan.Threads
	var o perThreadTiming
	o.streamPerVec = int64(ceilDiv(len(prog.DataStream), prog.Columns))
	o.broadcast = int64(ceilDiv(len(prog.ModelStream), prog.Columns))
	levels := 0
	if threads > 1 {
		levels = int(math.Ceil(math.Log2(float64(threads))))
	}
	o.aggWriteback = int64(ceilDiv(g.GradientWords(), prog.Columns) * (levels + 2))

	type ride struct {
		node int
		bus  oracleBus
	}
	peLoad := make([]int64, prog.NPE)
	busLoad := map[oracleBus]int64{}
	seen := map[ride]bool{}
	for _, id := range prog.IssueOrder {
		pe := prog.PE[id]
		peLoad[pe]++
		for _, a := range g.Nodes[id].Args() {
			src := prog.PE[a]
			if g.Nodes[a].Op == dfg.OpConst || src < 0 || src == pe {
				continue
			}
			if bus, ok := oracleBusFor(prog, src, pe); ok && !seen[ride{int(a), bus}] {
				seen[ride{int(a), bus}] = true
				busLoad[bus]++
			}
		}
	}
	for pe, ids := range prog.GradAccum {
		peLoad[pe] += int64(len(ids))
	}
	for _, l := range peLoad {
		o.maxPE = max(o.maxPE, l)
	}
	for _, l := range busLoad {
		o.maxBus = max(o.maxBus, l)
	}
	o.interval = max(int64(threads)*o.streamPerVec, o.maxPE, o.maxBus, 1)

	arrival := make([]int64, len(g.Nodes))
	for k, id := range prog.DataStream {
		if id >= 0 {
			arrival[id] = int64(k/prog.Columns) + 1
		}
	}
	peFree := make([]int64, prog.NPE)
	busFree := map[oracleBus]int64{}
	sent := map[ride]int64{}
	for _, id := range prog.IssueOrder {
		pe := prog.PE[id]
		ready := peFree[pe]
		for _, a := range g.Nodes[id].Args() {
			if g.Nodes[a].Op == dfg.OpConst {
				continue
			}
			at := arrival[a]
			if src := prog.PE[a]; src >= 0 && src != pe {
				at += PipelineDepth - 2
				lat := transferLatency(prog, src, pe)
				bus, shared := oracleBusFor(prog, src, pe)
				if was, ok := sent[ride{int(a), bus}]; !shared {
					at += lat
				} else if ok {
					at = was
				} else {
					at = max(at, busFree[bus])
					busFree[bus] = at + 1
					at += lat
					sent[ride{int(a), bus}] = at
				}
			}
			ready = max(ready, at)
		}
		peFree[pe] = ready + 1
		arrival[id] = ready + 1
		o.startup = max(o.startup, ready+1)
	}
	for pe, ids := range prog.GradAccum {
		end := peFree[pe]
		for _, id := range ids {
			end = max(end, arrival[id]) + 1
		}
		if len(ids) > 0 {
			o.startup = max(o.startup, end)
		}
	}
	return o
}

// TestNewCompilesNoTape: the evaluation tape belongs to the functional
// engine. A simulator that only answers timing questions never builds one,
// and a graph whose tape cannot be compiled still gets its timing — and
// fails RunBatch with the tape's error before any vector is looked at.
func TestNewCompilesNoTape(t *testing.T) {
	alg := &ml.LogisticRegression{M: 12}
	const threads = 2
	prog := compileFor(t, alg, threads, 2, compiler.StyleCoSMIC)

	timingQueries := func(s *Sim) {
		t.Helper()
		if s.Interval() < 1 || s.Startup() < 1 || s.StreamPerVector() < 1 || s.MaxPELoad() < 1 ||
			s.CyclesForRounds(3) <= s.ModelBroadcastCycles() || s.AggWritebackCycles() < 1 || s.MaxBusLoad() < 0 {
			t.Error("degenerate timing model")
		}
		if s.tape != nil {
			t.Error("timing queries compiled an evaluation tape")
		}
	}
	healthy := New(prog)
	timingQueries(healthy)
	model := alg.PackModel(make([]float64, alg.ModelSize()))
	parts := packParts(alg, randomBatch(alg, 4, rand.New(rand.NewSource(3))), threads)
	if _, err := healthy.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
		t.Fatal(err)
	}
	if healthy.tape == nil {
		t.Error("RunBatch ran without a tape")
	}

	// Break the graph the way only the tape compiler notices: a binary
	// operation left with one argument.
	var broken bool
	for i := range prog.Graph.Nodes {
		if n := &prog.Graph.Nodes[i]; n.Arity == 2 {
			n.Arity = 1
			broken = true
			break
		}
	}
	if !broken {
		t.Fatal("no binary operation to break")
	}
	_, tapeErr := prog.Graph.CompileTape()
	if tapeErr == nil {
		t.Fatal("the broken graph still compiles to a tape")
	}
	sim := New(prog)
	timingQueries(sim)
	// Every vector is unbindable: had RunBatch touched one, it would have
	// reported that instead.
	for _, part := range parts {
		for i := range part {
			part[i] = nil
		}
	}
	if _, err := healthy.RunBatch(model, parts, 0.05, dsl.AggAverage); err == nil {
		t.Fatal("a simulator with a tape accepted vectors that bind nothing")
	}
	for i := 0; i < 2; i++ {
		if _, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage); err == nil || err.Error() != tapeErr.Error() {
			t.Errorf("RunBatch %d on the broken graph: %v, want %v", i, err, tapeErr)
		}
	}
	if _, err := sim.CycleProfile(); err == nil || err.Error() != tapeErr.Error() {
		t.Errorf("CycleProfile on the broken graph: %v, want %v", err, tapeErr)
	}
}
