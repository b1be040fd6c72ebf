// Package perf is CoSMIC's performance-estimation tool (architecture
// layer). It decomposes a compiled program's cycle cost into its bottleneck
// resources — memory streaming, PE occupancy, bus occupancy — so the Planner
// can sweep the design space quickly, and it rescales estimates probed at a
// reduced DFG geometry to the paper's full benchmark geometry (the
// substitution for running multi-million-node DFGs through the cycle-level
// simulator).
package perf

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/compiler"
)

// Estimate is a decomposed cycle model for one accelerator processing
// mini-batches of a fixed DFG.
type Estimate struct {
	// ModelCycles is the model broadcast cost per mini-batch.
	ModelCycles int64
	// Startup is the pipeline fill latency: first-vector delivery plus its
	// event-simulated makespan.
	Startup int64
	// Interval is the steady-state initiation interval per round (one
	// vector on every thread): max(MemPerRound, ComputePerVec, BusPerVec).
	Interval int64
	// MemPerRound is the memory interface's cost to deliver one round:
	// Threads × ceil(DataWords/Columns).
	MemPerRound int64
	// ComputePerVec is the busiest PE's per-vector occupancy; BusPerVec the
	// busiest bus segment's.
	ComputePerVec, BusPerVec int64
	// AggWriteback is the end-of-batch cross-thread aggregation plus
	// gradient write-back cost.
	AggWriteback int64

	// Geometry the estimate was derived at, used by ScaledTo.
	Threads, Columns, PEsPerThread        int
	Ops, DataWords, ModelWords, GradWords int
}

// FromProgram derives the estimate from a compiled program's static
// schedule (no functional simulation).
func FromProgram(prog *compiler.Program) (Estimate, error) {
	return FromTiming(accel.Analyze(prog), prog.Plan.Threads)
}

// FromTiming derives the estimate of the analyzed program run by the given
// number of threads. The analysis does not depend on the thread count, so
// one of it costs every design point that shares the program's mapping.
func FromTiming(tm *accel.Timing, threads int) (Estimate, error) {
	prog := tm.Program()
	if len(prog.IssueOrder) == 0 {
		return Estimate{}, fmt.Errorf("perf: program has no scheduled operations")
	}
	g := prog.Graph
	return Estimate{
		ModelCycles:   tm.ModelBroadcastCycles(),
		Startup:       int64(tm.StreamPerVector()) + tm.Startup(),
		Interval:      tm.Interval(threads),
		MemPerRound:   int64(threads) * int64(tm.StreamPerVector()),
		ComputePerVec: tm.MaxPELoad(),
		BusPerVec:     tm.MaxBusLoad(),
		AggWriteback:  tm.AggWriteback(threads),
		Threads:       threads,
		Columns:       prog.Columns,
		PEsPerThread:  prog.NPE,
		Ops:           len(prog.IssueOrder), // every compute node, once
		DataWords:     len(prog.DataStream),
		ModelWords:    len(prog.ModelStream),
		GradWords:     g.GradientWords(),
	}, nil
}

// BatchCycles returns the estimated cycles for one mini-batch of
// vectorsPerThread rounds (vectorsPerThread × Threads vectors), including
// model broadcast and final aggregation/write-back.
func (e Estimate) BatchCycles(vectorsPerThread int) int64 {
	if vectorsPerThread <= 0 {
		return e.ModelCycles + e.AggWriteback
	}
	return e.ModelCycles + e.Startup + int64(vectorsPerThread-1)*e.Interval + e.AggWriteback
}

// CyclesPerVector is the steady-state per-vector cost across the whole
// accelerator (Interval covers Threads vectors).
func (e Estimate) CyclesPerVector() float64 {
	return float64(e.Interval) / float64(e.Threads)
}

// BandwidthBound reports whether the steady-state interval is set by the
// memory interface rather than compute or communication (the Figure 15
// classification).
func (e Estimate) BandwidthBound() bool {
	return e.MemPerRound >= e.ComputePerVec && e.MemPerRound >= e.BusPerVec
}

// FullGeometry describes the paper-scale benchmark the estimate should be
// rescaled to.
type FullGeometry struct {
	Ops        int // compute operations per training vector
	DataWords  int // training-vector words
	ModelWords int // model parameters broadcast
	GradWords  int // gradient words aggregated and written back
}

// ScaledTo rescales the estimate to a larger geometry of the same DFG
// family on the same plan shape: the memory share scales with data words,
// the compute and bus shares with the operation count, and the interval is
// re-derived as their maximum (compute and streaming overlap through the
// prefetch buffer). Valid because per-vector cost is piecewise-linear in
// these counts for a fixed plan.
func (e Estimate) ScaledTo(full FullGeometry) Estimate {
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 1
		}
		return float64(a) / float64(b)
	}
	opsR := ratio(full.Ops, e.Ops)
	dataR := ratio(full.DataWords, e.DataWords)
	modelR := ratio(full.ModelWords, e.ModelWords)
	gradR := ratio(full.GradWords, e.GradWords)

	out := e
	out.MemPerRound = scale64(e.MemPerRound, dataR)
	out.ComputePerVec = scale64(e.ComputePerVec, opsR)
	out.BusPerVec = scale64(e.BusPerVec, opsR)
	out.Interval = max3(out.MemPerRound, out.ComputePerVec, out.BusPerVec)
	if out.Interval < 1 {
		out.Interval = 1
	}
	out.ModelCycles = scale64(e.ModelCycles, modelR)
	out.Startup = scale64(e.Startup, maxF(opsR, dataR))
	out.AggWriteback = scale64(e.AggWriteback, gradR)
	out.Ops = full.Ops
	out.DataWords = full.DataWords
	out.ModelWords = full.ModelWords
	out.GradWords = full.GradWords
	return out
}

// ScaledToPlan rescales an estimate probed on a 1/s scale model of a chip —
// same thread count and row structure, columns and storage shrunk by the
// benchmark's scale factor — up to the full chip and the full benchmark
// geometry. Because the probe is self-similar (words per column, ops per
// PE, and transfers per bus segment all match the full configuration's
// shape), the rescaling laws are exact for the linear families and tight
// for the quadratic ones:
//
//	memory cycles  ∝ words / columns
//	compute cycles ∝ ops / PEs
//	bus cycles     ∝ ops / PEs  (transfers track op counts)
func (e Estimate) ScaledToPlan(full FullGeometry, fullColumns, fullPEsPerThread int) Estimate {
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 1
		}
		return float64(a) / float64(b)
	}
	colR := ratio(fullColumns, e.Columns)
	peR := ratio(fullPEsPerThread, e.PEsPerThread)
	memR := ratio(full.DataWords, e.DataWords) / colR
	compR := ratio(full.Ops, e.Ops) / peR
	modelR := ratio(full.ModelWords, e.ModelWords) / colR
	gradR := ratio(full.GradWords, e.GradWords) / colR

	out := e
	out.MemPerRound = scale64(e.MemPerRound, memR)
	out.ComputePerVec = scale64(e.ComputePerVec, compR)
	out.BusPerVec = scale64(e.BusPerVec, compR)
	out.Interval = max3(out.MemPerRound, out.ComputePerVec, out.BusPerVec)
	if out.Interval < 1 {
		out.Interval = 1
	}
	out.ModelCycles = scale64(e.ModelCycles, modelR)
	out.Startup = scale64(e.Startup, maxF(compR, memR))
	out.AggWriteback = scale64(e.AggWriteback, gradR)
	out.Columns = fullColumns
	out.PEsPerThread = fullPEsPerThread
	out.Ops = full.Ops
	out.DataWords = full.DataWords
	out.ModelWords = full.ModelWords
	out.GradWords = full.GradWords
	return out
}

func scale64(v int64, r float64) int64 {
	x := int64(float64(v) * r)
	if v > 0 && x < 1 {
		x = 1
	}
	return x
}

func max3(a, b, c int64) int64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
