// Package planner implements CoSMIC's architecture layer: given a chip
// specification, a learning algorithm's DFG, and the mini-batch size, the
// Planner decides how to stretch or squeeze the multi-threaded template —
// how many PE rows to instantiate, how many MIMD worker threads to run, and
// how many rows each thread gets.
//
// Following Section 4.4, the design space is pruned to row-granularity
// allocations: columns are fixed by the off-chip bandwidth, the row count is
// bounded by DSPs/columns (and the fabric's routing cap), and the thread
// count by on-chip storage, the row bound, and the mini-batch size. Each
// surviving design point is costed with the performance estimation tool; the
// Planner picks the smallest best-performing point.
//
// A sweep is cheap because its points share almost all of their work. The
// Compiler maps and schedules one thread, so a point's program depends on
// its rows per thread, not on how many threads replay it: the points fall
// into a handful of mappings (six on UltraScale+, for 21 points), each
// compiled and analyzed once, on as many cores as there are. A point's
// estimate is then arithmetic on its mapping's analysis (accel.Timing).
package planner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/perf"
)

// DesignPoint is one evaluated configuration of the template.
type DesignPoint struct {
	Plan arch.Plan
	// Estimate is the performance model for the point (possibly rescaled
	// to a full benchmark geometry).
	Estimate perf.Estimate
	// BatchCycles is the estimated cycles for one node-local mini-batch.
	BatchCycles int64
	// Program is the point's compiled program: its mapping's schedule —
	// shared, read-only, with every point of the same rows per thread —
	// under this point's Plan.
	Program *compiler.Program
}

// Options configures exploration.
type Options struct {
	// MiniBatch is the node-local mini-batch size (vectors per aggregation
	// step); it bounds the useful thread count.
	MiniBatch int
	// Style selects the mapping algorithm (CoSMIC by default).
	Style compiler.Style
	// FullGeometry, when non-nil, rescales every point's estimate to the
	// paper-scale benchmark geometry before comparison, so exploration on
	// a reduced DFG chooses the design the full-size benchmark wants.
	FullGeometry *perf.FullGeometry
	// MaxThreads, when positive, further caps the thread count (used to
	// reproduce the paper's per-benchmark thread limits).
	MaxThreads int
}

// Explore enumerates the pruned design space and returns all evaluated
// points, ordered by total rows then thread count.
func Explore(g *dfg.Graph, chip arch.ChipSpec, opts Options) ([]DesignPoint, error) {
	if opts.MiniBatch <= 0 {
		opts.MiniBatch = 1
	}
	columns := chip.Columns()
	rowLimit := chip.RowLimit()

	// t_max = min(storage bound, row bound, mini-batch) — Section 4.4.
	tmax := rowLimit
	if storage := g.StorageWords(); storage > 0 {
		if bound := chip.StorageWords() / storage; bound < tmax {
			tmax = bound
		}
	}
	if opts.MiniBatch < tmax {
		tmax = opts.MiniBatch
	}
	if opts.MaxThreads > 0 && opts.MaxThreads < tmax {
		tmax = opts.MaxThreads
	}
	if tmax < 1 {
		tmax = 1
	}

	// The sweep, minus the points whose fabric cost exceeds the chip (the
	// LUT budget binds first on big designs). Columns and style are fixed
	// for the whole sweep, so a point's mapping is named by its rows per
	// thread.
	nonlinear := g.HasNonlinear()
	var plans []arch.Plan
	var mappings []*mapping
	byRows := map[int]*mapping{}
	for _, rowsTotal := range rowChoices(rowLimit) {
		for _, threads := range divisorsUpTo(rowsTotal, tmax) {
			plan := arch.Plan{
				Chip:          chip,
				Columns:       columns,
				Threads:       threads,
				RowsPerThread: rowsTotal / threads,
			}
			if chip.LUTs > 0 && estimateLUTs(plan, nonlinear) > chip.LUTs {
				continue
			}
			plans = append(plans, plan)
			if byRows[plan.RowsPerThread] == nil {
				m := &mapping{plan: plan}
				byRows[plan.RowsPerThread] = m
				mappings = append(mappings, m)
			}
		}
	}
	compileAll(g, opts.Style, mappings)

	// Points are costed in sweep order, so the error returned is that of the
	// first failing point however the compiles were scheduled.
	points := make([]DesignPoint, 0, len(plans))
	for _, plan := range plans {
		m := byRows[plan.RowsPerThread]
		err := plan.Validate()
		if err == nil {
			err = m.err
		}
		if err != nil {
			return nil, fmt.Errorf("planner: point T%d×R%d: %w", plan.Threads, plan.TotalRows(), err)
		}
		est, err := perf.FromTiming(m.timing, plan.Threads)
		if err != nil {
			return nil, err
		}
		if opts.FullGeometry != nil {
			est = est.ScaledTo(*opts.FullGeometry)
		}
		vecsPerThread := opts.MiniBatch / plan.Threads
		if vecsPerThread < 1 {
			vecsPerThread = 1
		}
		prog := *m.timing.Program()
		prog.Plan = plan
		points = append(points, DesignPoint{
			Plan:        plan,
			Estimate:    est,
			BatchCycles: est.BatchCycles(vecsPerThread),
			Program:     &prog,
		})
	}
	sort.Slice(points, func(i, j int) bool {
		pi, pj := points[i], points[j]
		if pi.Plan.TotalRows() != pj.Plan.TotalRows() {
			return pi.Plan.TotalRows() < pj.Plan.TotalRows()
		}
		return pi.Plan.Threads < pj.Plan.Threads
	})
	return points, nil
}

// mapping is the work every design point with the same rows per thread
// shares: one compile and one static timing analysis.
type mapping struct {
	plan   arch.Plan     // the first plan of the sweep that uses the mapping
	timing *accel.Timing // of the program compiled for plan; nil if err is set
	err    error
}

// compileAll compiles and analyzes every mapping, spread over up to
// GOMAXPROCS goroutines that all finish before it returns. The graph-only
// part of compilation is done once and shared; the graph itself is only
// read.
func compileAll(g *dfg.Graph, style compiler.Style, mappings []*mapping) {
	prepared := compiler.Prepare(g)
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(mappings) {
				return
			}
			m := mappings[i]
			prog, err := prepared.Compile(m.plan, style)
			if err != nil {
				m.err = err
				continue
			}
			m.timing = accel.Analyze(prog)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(mappings)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ChooseTolerance is the performance slack within which the Planner prefers
// a smaller design ("the smallest, best-performing design point").
const ChooseTolerance = 1.05

// Choose picks the smallest best-performing point: among all points within
// ChooseTolerance of the minimum batch cycles, the one with the fewest PEs
// (ties toward fewer threads).
func Choose(points []DesignPoint) (DesignPoint, error) {
	if len(points) == 0 {
		return DesignPoint{}, fmt.Errorf("planner: empty design space")
	}
	minCycles := points[0].BatchCycles
	for _, p := range points[1:] {
		if p.BatchCycles < minCycles {
			minCycles = p.BatchCycles
		}
	}
	bound := int64(float64(minCycles) * ChooseTolerance)
	var best *DesignPoint
	for i := range points {
		p := &points[i]
		if p.BatchCycles > bound {
			continue
		}
		switch {
		case best == nil,
			p.Plan.TotalPEs() < best.Plan.TotalPEs(),
			p.Plan.TotalPEs() == best.Plan.TotalPEs() && p.Plan.Threads < best.Plan.Threads:
			best = p
		}
	}
	return *best, nil
}

// Plan explores the design space and returns the chosen plan.
func Plan(g *dfg.Graph, chip arch.ChipSpec, opts Options) (DesignPoint, error) {
	points, err := Explore(g, chip, opts)
	if err != nil {
		return DesignPoint{}, err
	}
	return Choose(points)
}

// rowChoices returns the row-count sweep: powers of two up to the limit
// (1,2,4,8,16,32 on UltraScale+). Power-of-two arrays keep reduction trees
// aligned with the data layout, so the sweep never instantiates ragged
// row counts.
func rowChoices(limit int) []int {
	var out []int
	for r := 1; r <= limit; r *= 2 {
		out = append(out, r)
	}
	return out
}

// divisorsUpTo returns the divisors of n that are ≤ cap, ascending.
func divisorsUpTo(n, cap int) []int {
	var out []int
	for d := 1; d <= n && d <= cap; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
