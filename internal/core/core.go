// Package core wires CoSMIC's five layers into the end-to-end build
// pipeline — the stack's primary contribution is precisely this cohesion:
//
//	programming   dsl.ParseAndAnalyze   the math DSL → analyzed program
//	compilation   dfg.Translate         program → dataflow graph
//	architecture  planner.Plan          graph + chip → template plan, and with
//	compilation                         it the static schedule: the Planner
//	                                    compiles every mapping it costs
//	circuit       verilog.Encode/Generate schedule → synthesizable RTL
//
// The public facade (package cosmic at the repository root) delegates here;
// the experiments and command-line drivers use the same path, so there is
// exactly one way a DSL program becomes an accelerator.
package core

import (
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/check"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/planner"
	"repro/internal/verilog"
)

// envVerify turns on post-compile artifact verification for every build in
// the process — the same switch dfg.CompileTape honors for its self-check.
var envVerify = os.Getenv("COSMIC_VET") != ""

// BuildOptions tunes the pipeline.
type BuildOptions struct {
	// MiniBatch is the node-local mini-batch size the Planner sizes
	// thread counts against (0 = the DSL program's own declaration).
	MiniBatch int
	// MaxThreads caps the worker-thread count (0 = chip limits only).
	MaxThreads int
	// Style selects CoSMIC's data-first mapping or the TABLA baseline.
	Style compiler.Style
	// Verify runs the full internal/check verification layer over the
	// compiled artifacts and fails the build on any error diagnostic.
	// Setting COSMIC_VET=1 in the environment enables it for every build.
	Verify bool
	// Obs, when non-nil, records one wall-clock span per pipeline phase
	// (parse → translate → plan → verify, and microcode on Verilog
	// emission) plus build counters. nil disables all of it.
	Obs *obs.Observer
}

// Build is the fully compiled result: every layer's artifact.
type Build struct {
	Unit    *dsl.Unit
	Graph   *dfg.Graph
	Point   planner.DesignPoint
	Program *compiler.Program

	// obs carries the build's observer into on-demand phases (Verilog).
	obs *obs.Observer
}

// BuildProgram runs the stack front to back (everything except RTL
// emission, which Verilog does on demand).
func BuildProgram(source string, params map[string]int, chip arch.ChipSpec, opts BuildOptions) (*Build, error) {
	tr := opts.Obs.Tracer()
	whole := tr.Begin("compile", "build-program", 0)

	sp := tr.Begin("compile", "parse", 0)
	unit, err := dsl.ParseAndAnalyze(source, params)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("compile", "translate", 0)
	graph, err := dfg.Translate(unit)
	sp.End()
	if err != nil {
		return nil, err
	}
	miniBatch := opts.MiniBatch
	if miniBatch <= 0 {
		miniBatch = unit.Program.MiniBatch
	}
	maxThreads := opts.MaxThreads
	if opts.Style == compiler.StyleTABLA {
		maxThreads = 1
	}
	sp = tr.Begin("compile", "plan", 0)
	point, err := planner.Plan(graph, chip, planner.Options{
		MiniBatch:  miniBatch,
		Style:      opts.Style,
		MaxThreads: maxThreads,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	prog := point.Program
	if opts.Verify || envVerify {
		sp = tr.Begin("compile", "verify", 0)
		ds := check.All(prog)
		sp.End()
		if ds.HasErrors() {
			return nil, fmt.Errorf("core: artifact verification found %d errors:\n%s", ds.Errors(), ds)
		}
	}
	s := graph.Summary()
	whole.EndArgs(map[string]any{
		"ops": s.ComputeOps, "threads": point.Plan.Threads, "style": opts.Style.String(),
	})
	if reg := opts.Obs.Registry(); reg != nil {
		reg.Counter("cosmic_compile_builds_total").Inc()
		reg.Counter("cosmic_compile_ops_total").Add(int64(s.ComputeOps))
		reg.Gauge("cosmic_compile_last_threads").Set(float64(point.Plan.Threads))
		reg.Gauge("cosmic_compile_last_pes").Set(float64(point.Plan.PEsPerThread() * point.Plan.Threads))
	}
	return &Build{Unit: unit, Graph: graph, Point: point, Program: prog, obs: opts.Obs}, nil
}

// Verilog runs the circuit layer over the build.
func (b *Build) Verilog() (string, error) {
	sp := b.obs.Tracer().Begin("compile", "microcode", 0)
	img, err := verilog.Encode(b.Program)
	sp.End()
	if err != nil {
		return "", err
	}
	sp = b.obs.Tracer().Begin("compile", "generate-rtl", 0)
	defer sp.End()
	return verilog.Generate(img)
}

// Estimate returns the performance model for the build.
func (b *Build) Estimate() (perf.Estimate, error) {
	return perf.FromProgram(b.Program)
}
