// Benchmarks regenerating the paper's evaluation: one testing.B per table
// and figure of Section 7 (run with `go test -bench=. -benchmem`), plus
// ablation benchmarks for the design choices DESIGN.md calls out. The
// figure benchmarks print their report once and expose the headline
// geomean-class numbers as custom metrics.
package cosmic

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/runtime"
)

// sharedRunner caches the plan/compile/estimate pipeline across benchmarks.
var (
	sharedRunner     *experiments.Runner
	sharedRunnerOnce sync.Once
)

func runner() *experiments.Runner {
	sharedRunnerOnce.Do(func() { sharedRunner = experiments.NewRunner() })
	return sharedRunner
}

var printedReports sync.Map

// benchExperiment runs one paper experiment per iteration (cached after the
// first), printing the regenerated table/figure once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := runner().Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printedReports.LoadOrStore(id, true); !done {
			fmt.Fprintf(os.Stdout, "\n%s\n", rep)
		}
		// Surface the first numeric speedup of the summary as a metric.
		if len(rep.Summary) > 0 {
			if v, ok := firstSpeedup(rep.Summary[0]); ok {
				b.ReportMetric(v, "x_first_summary")
			}
		}
	}
}

// firstSpeedup extracts the first "<num>x" token of a summary line.
func firstSpeedup(s string) (float64, bool) {
	for _, tok := range strings.Fields(s) {
		tok = strings.TrimRight(tok, ",;")
		if strings.HasSuffix(tok, "x") {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "x"), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// One benchmark per paper table and figure.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }

// Ablations (DESIGN.md §5).

// compileFor builds a compiled program for ablation benches.
func compileFor(b *testing.B, alg ml.Algorithm, chip arch.ChipSpec, threads, rows int, style compiler.Style) *compiler.Program {
	b.Helper()
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		b.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		b.Fatal(err)
	}
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: threads, RowsPerThread: rows}
	prog, err := compiler.Compile(g, plan, style)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

var ablationChip = arch.ChipSpec{
	Name: "ablation-chip", Kind: arch.FPGA,
	PEBudget: 256, StorageKB: 1024,
	MemBandwidthGBps: 6.4, FrequencyMHz: 100, TDPWatts: 10,
}

// BenchmarkAblationTreeBus compares the steady-state initiation interval of
// the tree-bus template against a flat-bus one at identical mapping, PEs
// and threads: the architectural half of Figure 17's gap.
func BenchmarkAblationTreeBus(b *testing.B) {
	alg := &ml.MLP{In: 24, Hid: 16, Out: 6}
	tree := compileFor(b, alg, ablationChip, 1, 8, compiler.StyleCoSMIC)
	flat := compileFor(b, alg, ablationChip, 1, 8, compiler.StyleCoSMIC)
	flat.Interconnect = compiler.FlatBus
	var ratio float64
	for i := 0; i < b.N; i++ {
		treeInterval := accel.New(tree).Interval()
		flatInterval := accel.New(flat).Interval()
		ratio = float64(flatInterval) / float64(treeInterval)
	}
	b.ReportMetric(ratio, "x_tree_over_flat")
}

// BenchmarkAblationMapping compares Algorithm 1's data-first mapping
// against the operation-first baseline on inter-PE transfer counts: the
// compiler half of Figure 17's gap.
func BenchmarkAblationMapping(b *testing.B) {
	alg := &ml.MLP{In: 24, Hid: 16, Out: 6}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cosmic := compileFor(b, alg, ablationChip, 1, 8, compiler.StyleCoSMIC)
		tabla := compileFor(b, alg, ablationChip, 1, 8, compiler.StyleTABLA)
		ratio = float64(tabla.CommunicationCost()) / float64(cosmic.CommunicationCost())
	}
	b.ReportMetric(ratio, "x_transfers_saved")
}

// BenchmarkAblationMultithreading compares one thread owning all rows
// against the planner's multi-threaded split at equal total PEs.
func BenchmarkAblationMultithreading(b *testing.B) {
	alg := &ml.SVM{M: 96}
	single := compileFor(b, alg, ablationChip, 1, 8, compiler.StyleCoSMIC)
	multi := compileFor(b, alg, ablationChip, 8, 1, compiler.StyleCoSMIC)
	var ratio float64
	for i := 0; i < b.N; i++ {
		sv := accel.New(single)
		mv := accel.New(multi)
		// Per-vector steady-state cost: interval spans Threads vectors.
		ratio = (float64(sv.Interval()) / 1) / (float64(mv.Interval()) / 8)
	}
	b.ReportMetric(ratio, "x_multithreading")
}

// BenchmarkAblationHierarchy trains on a real 9-node loopback cluster with
// flat (1-group) vs hierarchical (3-group) aggregation and reports the
// wall-clock ratio. The win is modest on loopback (the paper's motivation
// is Sigma-node NIC saturation), but the hierarchy must not hurt.
func BenchmarkAblationHierarchy(b *testing.B) {
	alg := &ml.LinearRegression{M: 2048}
	rng := rand.New(rand.NewSource(9))
	data := make([]ml.Sample, 27)
	for i := range data {
		x := make([]float64, alg.M)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		data[i] = ml.Sample{X: x, Y: []float64{0}}
	}
	model := alg.InitModel(rng)

	run := func(groups int) float64 {
		shards := ml.Partition(data, 9)
		cl, err := runtime.Launch(runtime.ClusterOptions{
			Nodes: 9, Groups: groups,
			Engines: func(int) runtime.Engine {
				return &runtime.RefEngine{Alg: alg, Threads: 1, LR: 1e-4, Agg: dsl.AggAverage}
			},
			Shards:    func(id int) []ml.Sample { return shards[id] },
			ModelSize: alg.ModelSize(),
			Agg:       dsl.AggAverage, LR: 1e-4, MiniBatch: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		_, stats, err := cl.Train(model, 8)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Shutdown(); err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, d := range stats.RoundDurations {
			total += d.Seconds()
		}
		return total
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		flat := run(1)
		hier := run(3)
		ratio = flat / hier
	}
	b.ReportMetric(ratio, "x_hier_over_flat")
}

// Component microbenchmarks.

func BenchmarkCompileSVM(b *testing.B) {
	unit, err := dsl.ParseAndAnalyze(dsl.SourceSVM, map[string]int{"M": 1740})
	if err != nil {
		b.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		b.Fatal(err)
	}
	chip := arch.UltraScalePlus
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: 8, RowsPerThread: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(g, plan, compiler.StyleCoSMIC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvergence(b *testing.B) { benchExperiment(b, "convergence") }

func BenchmarkValidation(b *testing.B) { benchExperiment(b, "validation") }
