package main

import (
	"fmt"
	"math"
	"time"
)

// The designer leg: each family compiled to RTL and one batch of it
// simulated against the software reference, both repeated for a median.
// The repeats are taken in slices spread through the run, between the
// trainer's segments, because this box moves between speed phases that last
// seconds: samples bunched into one second would all land in one phase.

// familyState is one family's inputs, artifacts and samples so far.
type familyState struct {
	p        *problem
	prog     *program
	rtlBytes int
	sim      *simulator
	first    simBatch // the checked batch: cycles and error come from it

	compileS []float64
	wallS    []float64
	mallocs  uint64 // allocations over the batches in wallS
	maxErr   float64
	within   int
}

type designer struct {
	fams []*familyState
}

func newDesigner(w workload, seed int64) (*designer, error) {
	d := &designer{}
	for _, f := range w.families {
		p, err := newProblem(f.name, f.scale, 1, 0, simVectors, 0, seed)
		if err != nil {
			return nil, err
		}
		d.fams = append(d.fams, &familyState{p: p})
	}
	return d, nil
}

// repeatFor calls fn at least once and until budget has passed, and returns
// each call's duration in seconds.
func repeatFor(budget time.Duration, fn func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) == 0 || time.Since(start) < budget; {
		d, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// slice spends about budget on the designer leg: for every family at least
// one compile to RTL and one simulated batch, more while its share lasts.
// The first batch a family simulates is checked against the reference.
func (d *designer) slice(r *report, budget time.Duration) error {
	share := budget / time.Duration(2*len(d.fams))
	for _, f := range d.fams {
		times, err := repeatFor(share, func() (time.Duration, error) {
			start := time.Now()
			var err error
			f.prog, f.rtlBytes, err = compileToRTL(f.p, simVectors)
			return time.Since(start), err
		})
		if err != nil {
			return fmt.Errorf("compile %s: %w", f.p.name, err)
		}
		f.compileS = append(f.compileS, times...)

		if f.sim == nil {
			f.sim = newSimulator(f.p, f.prog, simVectors)
			if f.first, err = f.sim.run(); err != nil {
				return fmt.Errorf("simulate %s: %w", f.p.name, err)
			}
			f.maxErr, f.within = f.sim.errorAgainstReference(f.first.partial)
			r.verify(f.within == len(f.sim.want), "sim-matches-reference/"+f.p.name,
				fmt.Sprintf("max |sim-ref| = %.3g over %d params, tolerance %g", f.maxErr, len(f.sim.want), simTolerance))
		}
		m0, _ := memCounters()
		walls, err := repeatFor(share, func() (time.Duration, error) {
			b, err := f.sim.run()
			if err == nil && b.cycles != f.first.cycles {
				err = fmt.Errorf("simulated %d cycles, then %d for the same batch", f.first.cycles, b.cycles)
			}
			return b.wall, err
		})
		if err != nil {
			return fmt.Errorf("simulate %s: %w", f.p.name, err)
		}
		m1, _ := memCounters()
		f.wallS = append(f.wallS, walls...)
		f.mallocs += m1 - m0
	}
	return nil
}

// rows summarizes each family for the report.
func (d *designer) rows() []familyRow {
	var rows []familyRow
	for _, f := range d.fams {
		rows = append(rows, familyRow{
			Family: f.p.name, ModelWords: f.p.modelWords(),
			Compiles: len(f.compileS), CompileS: median(f.compileS),
			Batches: len(f.wallS), RunBatchMS: median(f.wallS) * 1e3,
			SimCycles: f.first.cycles, ComputeCycles: f.first.computeCycles,
			MaxAbsErr: f.maxErr,
		})
	}
	return rows
}

// endToEnd sets the designer's four end-to-end metrics: times add up over
// the families, the simulator's rate is their geometric mean.
func (d *designer) endToEnd(r *report) {
	var compileS, rate []float64
	var cycles int64
	var within, params, compiles, batches int
	for _, f := range d.fams {
		compileS = append(compileS, median(f.compileS))
		rate = append(rate, float64(f.sim.vectors)/median(f.wallS))
		cycles += f.first.cycles
		within += f.within
		params += len(f.sim.want)
		compiles += len(f.compileS)
		batches += len(f.wallS)
	}
	r.Families = d.rows()
	r.set("compile_s", sumOf(compileS), compiles)
	r.set("sim_samples_per_s", geomean(rate), batches)
	r.set("sim_cycles_per_sample", float64(cycles)/simVectors, len(d.fams))
	r.set("sim_within_tol_ratio", float64(within)/float64(params), params)
}

// summedLayers are the per-layer metrics that add up over a workload's
// families: times, counts and sizes.
var summedLayers = []string{
	"dsl.parse_ms", "dfg.translate_ms", "dfg.nodes", "planner.plan_ms", "planner.points_explored",
	"compiler.map_schedule_ms", "compiler.comm_cost", "verilog.encode_ms", "verilog.generate_ms",
	"verilog.rtl_kb", "dfg.tape_compile_ms", "accel.runbatch_ms", "accel.sim_cycles", "accel.runbatch_allocs",
}

// layers times every compile phase and the simulator's parts through their
// own public functions, family by family, and sets the per-layer metrics:
// across families times, counts and sizes add up, rates take the geometric
// mean and errors the worst case.
func (d *designer) layers(r *report, budget time.Duration) error {
	sum := map[string]float64{}
	var utils, hostNS, estErr, tapeNS []float64
	worstErr, batches := 0.0, 0
	r.Families = d.rows()
	for i, f := range d.fams {
		row := &r.Families[i]
		row.PerLayer = map[string]float64{
			"accel.runbatch_ms":     row.RunBatchMS,
			"accel.sim_cycles":      float64(f.first.cycles),
			"accel.runbatch_allocs": float64(f.mallocs) / float64(len(f.wallS)),
			"accel.sim_max_abs_err": f.maxErr,
			"verilog.rtl_kb":        float64(f.rtlBytes) / 1024,
		}
		if err := familyLayers(f, budget/time.Duration(len(d.fams)), row.PerLayer); err != nil {
			return err
		}
		for _, name := range summedLayers {
			sum[name] += row.PerLayer[name]
		}
		utils = append(utils, float64(f.first.computeCycles)/float64(f.first.cycles))
		hostNS = append(hostNS, row.RunBatchMS*1e6/float64(f.first.cycles))
		estErr = append(estErr, row.PerLayer["perf.estimate_err_pct"])
		tapeNS = append(tapeNS, row.PerLayer["dfg.tape_eval_ns_per_sample"])
		worstErr = math.Max(worstErr, f.maxErr)
		batches += len(f.wallS)
	}
	n := len(d.fams)
	for _, name := range summedLayers {
		r.set(name, sum[name], n)
	}
	r.set("accel.compute_util", geomean(utils), n)
	r.set("accel.host_ns_per_sim_cycle", geomean(hostNS), batches)
	r.set("dfg.tape_eval_ns_per_sample", geomean(tapeNS), n)
	r.set("perf.estimate_err_pct", maxOf(estErr), n)
	r.set("accel.sim_max_abs_err", worstErr, n)
	return nil
}

// familyLayers fills in one family's per-phase compile times (medians over
// as many repeats as the budget allows) and the simulator's single-layer
// numbers.
func familyLayers(f *familyState, budget time.Duration, out map[string]float64) error {
	var reps []phaseReport
	_, err := repeatFor(budget, func() (time.Duration, error) {
		start := time.Now()
		ph, err := compilePhases(f.p, simVectors)
		reps = append(reps, ph)
		return time.Since(start), err
	})
	if err != nil {
		return fmt.Errorf("compile phases %s: %w", f.p.name, err)
	}
	for metric := range reps[0].ms {
		xs := make([]float64, len(reps))
		for i, ph := range reps {
			xs[i] = ph.ms[metric]
		}
		out[metric] = median(xs)
	}
	out["dfg.nodes"] = float64(reps[0].dfgNodes)
	out["compiler.comm_cost"] = float64(reps[0].commCost)

	points, err := countDesignPoints(reps[0].graph, simVectors)
	if err != nil {
		return err
	}
	out["planner.points_explored"] = float64(points)

	est, err := f.sim.estimatedCycles()
	if err != nil {
		return err
	}
	out["perf.estimate_err_pct"] = math.Abs(pctOver(float64(est), float64(f.first.cycles)))
	ns, err := f.sim.tapeEvalNS(30 * time.Millisecond)
	if err != nil {
		return err
	}
	out["dfg.tape_eval_ns_per_sample"] = ns
	return nil
}
