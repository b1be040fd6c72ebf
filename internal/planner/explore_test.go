package planner

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/perf"
	"repro/internal/verilog"
)

// exploreOracle is design-space exploration one point at a time: every point
// of the sweep compiled from the graph and analyzed afresh, serially. It is
// what Explore computed before its points shared mappings, and what Explore
// must still return.
func exploreOracle(g *dfg.Graph, chip arch.ChipSpec, opts Options) ([]DesignPoint, error) {
	if opts.MiniBatch <= 0 {
		opts.MiniBatch = 1
	}
	columns := chip.Columns()
	rowLimit := chip.RowLimit()

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

	var points []DesignPoint
	for _, rowsTotal := range rowChoices(rowLimit) {
		for _, threads := range divisorsUpTo(rowsTotal, tmax) {
			plan := arch.Plan{
				Chip:          chip,
				Columns:       columns,
				Threads:       threads,
				RowsPerThread: rowsTotal / threads,
			}
			if chip.LUTs > 0 {
				if res := EstimateResources(plan, g); res.LUTs > chip.LUTs {
					continue
				}
			}
			prog, err := compiler.Compile(g, plan, opts.Style)
			if err != nil {
				return nil, fmt.Errorf("planner: point T%d×R%d: %w", threads, rowsTotal, err)
			}
			est, err := perf.FromProgram(prog)
			if err != nil {
				return nil, err
			}
			if opts.FullGeometry != nil {
				est = est.ScaledTo(*opts.FullGeometry)
			}
			vecsPerThread := opts.MiniBatch / threads
			if vecsPerThread < 1 {
				vecsPerThread = 1
			}
			points = append(points, DesignPoint{
				Plan:        plan,
				Estimate:    est,
				BatchCycles: est.BatchCycles(vecsPerThread),
				Program:     prog,
			})
		}
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

// lutStarved is UltraScale+ with a LUT budget that prunes the sweep unevenly:
// every point of 16 rows and up goes, so the 16- and 32-row mappings are
// never needed, and on a DFG with nonlinear operations so do the 8-row
// points of four threads and more.
func lutStarved() arch.ChipSpec {
	chip := arch.UltraScalePlus
	chip.Name = "UltraScale+ with 225k LUTs"
	chip.LUTs = 225000
	return chip
}

// TestExploreMatchesPerPointOracle: across the ten Table 1 benchmarks, both
// styles, and the options and chips that shape the sweep, Explore returns
// exactly the oracle's points — plans, estimates, cycles and programs — and
// so chooses the same one; and the chosen point's program is the one a
// direct Compile of its plan gives, down to the generated RTL.
func TestExploreMatchesPerPointOracle(t *testing.T) {
	// Scales that keep every DFG under ~1,600 nodes: the oracle compiles each
	// of up to 21 points of each of 144 sweeps per benchmark.
	scales := map[string]float64{
		"mnist": 0.02, "acoustic": 0.02, "stock": 0.05, "texture": 0.02, "tumor": 0.05,
		"cancer1": 0.05, "movielens": 0.001, "netflix": 0.0005, "face": 0.05, "cancer2": 0.02,
	}
	chips := []arch.ChipSpec{arch.UltraScalePlus, arch.PASICF, lutStarved()}
	styles := []compiler.Style{compiler.StyleCoSMIC, compiler.StyleTABLA}
	if testing.Short() {
		chips, styles = chips[2:], styles[:1]
	}
	for _, bm := range dataset.Benchmarks {
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			g := benchGraph(t, bm.Name, scales[bm.Name])
			full, err := perf.GeometryForFamily(string(bm.Family), bm.Topology)
			if err != nil {
				t.Fatal(err)
			}
			rtlChecked := map[string]bool{}
			for _, chip := range chips {
				for _, style := range styles {
					for _, miniBatch := range []int{1, 37, 256, 10000} {
						for _, maxThreads := range []int{0, 1, 3} {
							for _, geometry := range []*perf.FullGeometry{nil, &full} {
								opts := Options{MiniBatch: miniBatch, Style: style, FullGeometry: geometry, MaxThreads: maxThreads}
								name := fmt.Sprintf("%s/%s/mb%d/max%d/full=%t", chip.Name, style, miniBatch, maxThreads, geometry != nil)
								got, err := Explore(g, chip, opts)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								want, err := exploreOracle(g, chip, opts)
								if err != nil {
									t.Fatalf("%s: oracle: %v", name, err)
								}
								if len(got) == 0 {
									t.Fatalf("%s: empty design space", name)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: Explore differs from the per-point oracle:\n got %v\nwant %v", name, plansOf(got), plansOf(want))
								}
								chosen, err := Choose(got)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if wantChosen, _ := Choose(want); !reflect.DeepEqual(chosen, wantChosen) {
									t.Fatalf("%s: chose %v, the oracle %v", name, chosen.Plan, wantChosen.Plan)
								}
								// The RTL depends on the chosen plan, not on the
								// options that led to it.
								key := fmt.Sprintf("%s/%s/%v", chip.Name, style, chosen.Plan)
								if rtlChecked[key] {
									continue
								}
								rtlChecked[key] = true
								direct, err := compiler.Compile(g, chosen.Plan, style)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if !reflect.DeepEqual(chosen.Program, direct) {
									t.Fatalf("%s: the chosen point's program is not what Compile gives for %v", name, chosen.Plan)
								}
								if rtlOf(t, chosen.Program) != rtlOf(t, direct) {
									t.Fatalf("%s: RTL of the chosen point's program differs from a direct compile's", name)
								}
							}
						}
					}
				}
			}
		})
	}
}

func plansOf(points []DesignPoint) []string {
	var out []string
	for _, p := range points {
		out = append(out, fmt.Sprintf("T%d×R%d:%d", p.Plan.Threads, p.Plan.TotalRows(), p.BatchCycles))
	}
	return out
}

func rtlOf(t *testing.T, prog *compiler.Program) string {
	t.Helper()
	img, err := verilog.Encode(prog)
	if err != nil {
		t.Fatal(err)
	}
	rtl, err := verilog.Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	return rtl
}

// TestLUTBudgetPrunesMappings pins what the lutStarved fixture does to a
// sweep, so the oracle test above is known to cover it: points go unevenly,
// and whole mappings with them (a mapping with no surviving point is never
// compiled — Explore only learns of mappings from surviving points).
func TestLUTBudgetPrunesMappings(t *testing.T) {
	g := benchGraph(t, "tumor", 0.05) // logistic regression: one sigmoid
	opts := Options{MiniBatch: 256}
	all, err := Explore(g, arch.UltraScalePlus, opts)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Explore(g, lutStarved(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if mappingsOf(all) != 6 || mappingsOf(kept) != 4 {
		t.Errorf("%d mappings on UltraScale+ and %d LUT-starved, want 6 and 4", mappingsOf(all), mappingsOf(kept))
	}
	var eightRows []int
	for _, p := range kept {
		if p.Plan.TotalRows() > 8 {
			t.Errorf("point %v survived a budget that prunes 16 rows and up", p.Plan)
		}
		if p.Plan.TotalRows() == 8 {
			eightRows = append(eightRows, p.Plan.Threads)
		}
	}
	if !reflect.DeepEqual(eightRows, []int{1, 2}) {
		t.Errorf("8-row points kept for threads %v, want [1 2]", eightRows)
	}
}

func mappingsOf(points []DesignPoint) int {
	rows := map[int]bool{}
	for _, p := range points {
		rows[p.Plan.RowsPerThread] = true
	}
	return len(rows)
}

// unschedulable returns mnist's graph with one operation made its own
// operand: no mapping of it compiles, so every point of a sweep fails.
func unschedulable(t *testing.T) *dfg.Graph {
	t.Helper()
	g := benchGraph(t, "mnist", 0.01)
	for _, n := range g.Nodes {
		if !n.Op.IsLeaf() {
			n.Args = append(n.Args, n)
			return g
		}
	}
	t.Fatal("no compute node")
	return nil
}

// TestExploreDeterministicUnderParallelism: the mappings are compiled on as
// many goroutines as there are cores, and nothing Explore returns may show
// it — not the points, whatever GOMAXPROCS is and however many explorations
// share the graph, and not the error, which is the first failing point's in
// sweep order even when every mapping fails.
func TestExploreDeterministicUnderParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	g := benchGraph(t, "mnist", 0.02)
	opts := Options{MiniBatch: 256}
	want, err := exploreOracle(g, arch.UltraScalePlus, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := Explore(g, arch.UltraScalePlus, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: points differ from the serial oracle's", procs)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Explore(g, arch.UltraScalePlus, opts)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Error("concurrent explorations of one graph: points differ from the serial oracle's")
			}
		}()
	}
	wg.Wait()

	bad := unschedulable(t)
	_, wantErr := exploreOracle(bad, arch.UltraScalePlus, opts)
	if wantErr == nil {
		t.Fatal("the oracle explored an unschedulable graph")
	}
	for i := 0; i < 50; i++ {
		if _, err := Explore(bad, arch.UltraScalePlus, opts); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("run %d: error %v, want the first failing point's: %v", i, err, wantErr)
		}
	}
}
