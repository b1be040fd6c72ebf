package runtime

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/accel"
	"repro/internal/compiler"
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
	switch e.Agg {
	case dsl.AggAverage:
		cfg := ml.SGDConfig{LearningRate: e.LR, Aggregator: dsl.AggAverage}
		return ml.ParallelSGDBatchInto(&e.ws, e.Alg, cfg, model, shard, threads), nil
	case dsl.AggSum:
		return ml.AccumulateGradientsInto(&e.ws, e.Alg, model, shard), nil
	}
	return nil, fmt.Errorf("runtime: unknown aggregator %v", e.Agg)
}

// AccelEngine computes partials on the cycle-level simulator of the
// compiled accelerator, and tracks the cycles consumed. The simulator runs
// with one host worker: all of the program's MIMD threads are one lane block
// evaluated on the goroutine that calls PartialUpdate, with no goroutine per
// batch.
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

	// The flat boundary, resolved by the first PartialUpdate and reused from
	// round to round; only the drive goroutine touches it. modelAt and
	// dataAt place each of the simulator's symbols in the flat model and in
	// a sample. model, syms, vecs and parts are a round's bindings: slices
	// of the caller's model and shard, cleared when the round ends. out is
	// the flattened partial, which partial cuts into the symbols' spans.
	modelAt []span
	dataAt  []sampleSpan
	model   [][]float64
	syms    [][]float64
	vecs    [][][]float64
	parts   [][][][]float64
	out     []float64
	partial [][]float64
}

// span is a symbol's run [lo, hi) of a flat vector.
type span struct{ lo, hi int }

// sampleSpan is a data symbol's run of a sample's Y (y) or X.
type sampleSpan struct {
	span
	y bool
}

// of returns the symbol's vector in smp, nil when smp is too short (the
// simulator then reports the binding missing).
func (at sampleSpan) of(smp ml.Sample) []float64 {
	src := smp.X
	if at.y {
		src = smp.Y
	}
	if at.hi > len(src) {
		return nil
	}
	return src[at.lo:at.hi]
}

// runOf returns the run idx enumerates; ok is false unless idx counts up by
// one.
func runOf(idx []int) (s span, ok bool) {
	if len(idx) == 0 {
		return span{}, true
	}
	for j, i := range idx {
		if i != idx[0]+j {
			return span{}, false
		}
	}
	return span{idx[0], idx[0] + len(idx)}, true
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
// threads and returns the flattened partial. The simulator binds slices of
// model and of the samples directly — ml.Partition's deal, no packing — and
// writes the partial into the engine's flat vector: under AggSum, each
// gradient lands where its model symbol sits, the flat gradient's layout.
func (e *AccelEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	if e.Agg != dsl.AggAverage && e.Agg != dsl.AggSum {
		return nil, fmt.Errorf("runtime: unknown aggregator %v", e.Agg)
	}
	if len(model) != e.Alg.ModelSize() {
		return nil, fmt.Errorf("runtime: model has %d parameters, want %d", len(model), e.Alg.ModelSize())
	}
	e.simMu.Lock()
	if e.sim == nil {
		e.sim = accel.New(e.Prog)
		// One host worker: the simulated threads run as one full-width lane
		// block on this, the node's drive goroutine. The node's cores are
		// already shared with its peers; splitting the block costs a
		// goroutine per batch and ~1.5x the CPU for a few percent of wall
		// time, and the partial is bit-identical either way.
		e.sim.SetWorkers(1)
	}
	sim := e.sim
	e.simMu.Unlock()
	if e.out == nil {
		if err := e.resolve(sim); err != nil {
			return nil, err
		}
	}

	for i, at := range e.modelAt {
		e.model[i] = model[at.lo:at.hi]
	}
	nd := len(e.dataAt)
	e.syms = slices.Grow(e.syms[:0], len(shard)*nd)[:len(shard)*nd]
	e.vecs = slices.Grow(e.vecs[:0], len(shard))[:len(shard)]
	for v, smp := range shard {
		vec := e.syms[v*nd : (v+1)*nd]
		for j, at := range e.dataAt {
			vec[j] = at.of(smp)
		}
		e.vecs[v] = vec
	}
	for t := range e.parts {
		e.parts[t] = e.vecs[t*len(shard)/len(e.parts) : (t+1)*len(shard)/len(e.parts)]
	}
	cycles, err := sim.Run(e.partial, e.model, e.parts, e.LR, e.Agg)
	// The bindings alias the caller's model and shard, which are not retained.
	clear(e.model)
	clear(e.syms)
	if err != nil {
		return nil, err
	}
	e.simMu.Lock()
	e.cycles += cycles
	e.simMu.Unlock()
	return e.out, nil
}

// resolve places the simulator's symbols in the algorithm's flat model and
// samples, once. Each must be one run of consecutive elements — what every
// PackModel and PackSample in ml hands out — so binding it is slicing.
func (e *AccelEngine) resolve(sim *accel.Sim) error {
	models, data, err := sim.Symbols()
	if err != nil {
		return err
	}
	layout := ml.NewModelLayout(e.Alg)
	out := make([]float64, e.Alg.ModelSize())
	modelAt, partial := make([]span, len(models)), make([][]float64, len(models))
	for i, name := range models {
		at, ok := runOf(layout.Model[name])
		if !ok {
			return fmt.Errorf("runtime: model symbol %s is not one run of the flat model", name)
		}
		modelAt[i], partial[i] = at, out[at.lo:at.hi]
	}
	f := e.Alg.FeatureSize()
	dataAt := make([]sampleSpan, len(data))
	for i, name := range data {
		at, ok := runOf(layout.Data[name])
		y := at.lo >= f && at.hi > at.lo
		if !ok || (!y && at.hi > f) {
			return fmt.Errorf("runtime: data symbol %s is not one run of a sample's X or Y", name)
		}
		if y {
			at = span{at.lo - f, at.hi - f}
		}
		dataAt[i] = sampleSpan{at, y}
	}
	e.modelAt, e.partial, e.dataAt, e.out = modelAt, partial, dataAt, out
	e.model = make([][]float64, len(models))
	e.parts = make([][][][]float64, e.Prog.Plan.Threads)
	return nil
}
