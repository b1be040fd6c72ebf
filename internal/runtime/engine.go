package runtime

import (
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs/profile"
)

// Engine computes a node's locally aggregated partial update for one
// mini-batch shard. It abstracts the node's compute substrate: the
// reference engine is the pure-Go parallel SGD (the role the host CPU plays
// in a software-only deployment), and the accelerator engine drives the
// cycle-level simulator of the generated hardware.
type Engine interface {
	// Name identifies the engine for logs.
	Name() string
	// PartialUpdate computes the node's partial for the shard at the given
	// model: an updated local model under the averaging aggregator
	// (Equation 3a), or a gradient sum under the summing aggregator. The
	// returned slice belongs to the engine and is valid until that engine's
	// next PartialUpdate call; neither model nor shard is retained. One
	// engine serves one node: calls do not overlap.
	PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error)
}

// RefEngine computes partials with the pure-Go reference implementation,
// emulating the accelerator's worker threads with ml.Partition + LocalSGD.
type RefEngine struct {
	Alg     ml.Algorithm
	Threads int
	LR      float64
	Agg     dsl.AggregatorKind

	// Graph, when non-nil, computes gradients with the DFG compiled to an
	// evaluation tape — the same compiled evaluator the accelerator
	// simulator's MIMD threads execute — instead of the algorithm's
	// hand-written Gradient. This is the path for models defined only as
	// DSL programs.
	Graph *dfg.Graph

	tapeOnce sync.Once
	tape     *ml.TapeEvaluator
	tapeErr  error

	// ws is the memory every partial is computed in and returned from.
	ws ml.Workspace
}

// Name returns "reference".
func (e *RefEngine) Name() string { return "reference" }

// PartialUpdate runs Threads-way parallel SGD over the shard, through the
// engine's workspace.
func (e *RefEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	threads := e.Threads
	if threads <= 0 {
		threads = 1
	}
	if e.Graph != nil {
		return e.tapePartial(model, shard, threads)
	}
	switch e.Agg {
	case dsl.AggAverage:
		cfg := ml.SGDConfig{LearningRate: e.LR, Aggregator: dsl.AggAverage}
		return ml.ParallelSGDBatchInto(&e.ws, e.Alg, cfg, model, shard, threads), nil
	case dsl.AggSum:
		return ml.AccumulateGradientsInto(&e.ws, e.Alg, model, shard), nil
	}
	return nil, fmt.Errorf("runtime: unknown aggregator %v", e.Agg)
}

// tapePartial mirrors the reference partial computation with the compiled
// tape evaluator, compiled once per engine.
func (e *RefEngine) tapePartial(model []float64, shard []ml.Sample, threads int) ([]float64, error) {
	e.tapeOnce.Do(func() { e.tape, e.tapeErr = ml.NewTapeEvaluator(e.Alg, e.Graph) })
	if e.tapeErr != nil {
		return nil, e.tapeErr
	}
	switch e.Agg {
	case dsl.AggAverage:
		parts := ml.Partition(shard, threads)
		partials := make([][]float64, len(parts))
		for i, part := range parts {
			p, err := e.tape.LocalSGD(model, part, e.LR)
			if err != nil {
				return nil, err
			}
			partials[i] = p
		}
		cfg := ml.SGDConfig{LearningRate: e.LR, Aggregator: dsl.AggAverage}
		return ml.AggregateModels(cfg, model, partials), nil
	case dsl.AggSum:
		return e.tape.AccumulateGradients(model, shard)
	}
	return nil, fmt.Errorf("runtime: unknown aggregator %v", e.Agg)
}

// AccelEngine computes partials on the cycle-level simulator of the
// compiled accelerator, and tracks the cycles consumed.
type AccelEngine struct {
	Alg  ml.Algorithm
	Prog *compiler.Program
	LR   float64
	Agg  dsl.AggregatorKind

	// simMu guards the lazily built simulator: PartialUpdate runs on the
	// node's drive goroutine while CycleProfile is served from HTTP scrape
	// goroutines.
	simMu  sync.Mutex
	sim    *accel.Sim
	cycles int64

	// parts (the shard dealt to the simulator's threads), layout and out
	// (the flattened partial) are reused from round to round; only the
	// drive goroutine touches them.
	parts  [][]map[string][]float64
	layout ml.ModelLayout
	out    []float64
}

// Name returns "accelerator-sim".
func (e *AccelEngine) Name() string { return "accelerator-sim" }

// Cycles returns the accumulated simulated cycle count.
func (e *AccelEngine) Cycles() int64 {
	e.simMu.Lock()
	defer e.simMu.Unlock()
	return e.cycles
}

// CycleProfile snapshots the simulator's per-op cycle attribution as a
// pprof profile (see accel.Sim.CycleProfile). It errors until the engine
// has simulated at least one batch.
func (e *AccelEngine) CycleProfile() (*profile.Raw, error) {
	e.simMu.Lock()
	sim := e.sim
	e.simMu.Unlock()
	if sim == nil {
		return nil, fmt.Errorf("runtime: accelerator engine has not run yet")
	}
	return sim.CycleProfile()
}

// PartialUpdate runs the shard through the simulated accelerator's MIMD
// threads and returns the flattened partial.
func (e *AccelEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	e.simMu.Lock()
	if e.sim == nil {
		e.sim = accel.New(e.Prog)
	}
	sim := e.sim
	e.simMu.Unlock()
	if e.parts == nil {
		e.parts = make([][]map[string][]float64, e.Prog.Plan.Threads)
	}
	for t, part := range ml.Partition(shard, len(e.parts)) {
		e.parts[t] = e.parts[t][:0]
		for _, s := range part {
			e.parts[t] = append(e.parts[t], e.Alg.PackSample(s))
		}
	}
	res, err := sim.RunBatch(e.Alg.PackModel(model), e.parts, e.LR, e.Agg)
	for t := range e.parts {
		clear(e.parts[t]) // the packed samples alias the shard, which is not retained
	}
	if err != nil {
		return nil, err
	}
	e.simMu.Lock()
	e.cycles += res.Cycles
	e.simMu.Unlock()
	switch e.Agg {
	case dsl.AggAverage:
		if e.layout == nil {
			e.layout = ml.NewModelLayout(e.Alg)
			e.out = make([]float64, e.Alg.ModelSize())
		}
		e.layout.Unpack(e.out, res.Partial)
		return e.out, nil
	case dsl.AggSum:
		return e.Alg.UnpackGradient(res.Partial), nil
	}
	return nil, fmt.Errorf("runtime: unknown aggregator %v", e.Agg)
}

// FlattenModel converts per-symbol model vectors back into the algorithm's
// flat layout. It delegates to ml.UnpackModel, kept here under its
// historical name for the runtime's callers.
func FlattenModel(alg ml.Algorithm, partial map[string][]float64) []float64 {
	return ml.UnpackModel(alg, partial)
}
