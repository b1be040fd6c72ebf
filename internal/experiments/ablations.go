package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/runtime"
)

// ablationChip is a small FPGA: large enough for an 8-row array, small
// enough that one compile takes milliseconds.
var ablationChip = arch.ChipSpec{
	Name: "ablation-chip", Kind: arch.FPGA,
	PEBudget: 256, StorageKB: 1024,
	MemBandwidthGBps: 6.4, FrequencyMHz: 100, TDPWatts: 10,
}

// ablationResults holds the measured quantities behind each ablation row,
// one baseline and one CoSMIC value per design choice.
type ablationResults struct {
	// Initiation interval (cycles) at identical mapping, PEs and threads.
	treeInterval, flatInterval int64
	// Inter-PE transfers of the data-first and operation-first mappers.
	cosmicTransfers, tablaTransfers int
	// Steady-state cycles per vector: 8 threads × 1 row vs 1 thread × 8 rows.
	multiPerVector, singlePerVector float64
	// Bytes the master sent over a run, and the run's summed round wall
	// time, with 3-group and flat aggregation.
	hierMasterBytes, flatMasterBytes int64
	hierSeconds, flatSeconds         float64
}

// Ablations isolates four of the design choices DESIGN.md §6 names, each
// against the baseline it replaces: the template's tree bus and the
// compiler's data-first mapping (the two halves of Figure 17's gap),
// multithreading at equal PEs, and hierarchical aggregation, which the
// paper motivates by the load on the Sigma node's NIC and which is judged
// here by the bytes the master sends.
func Ablations() (Report, error) {
	a, err := measureAblations()
	if err != nil {
		return Report{}, err
	}
	ratio := func(base, cosmic float64) string { return fmt.Sprintf("%.3fx", base/cosmic) }
	return Report{
		ID:     "Extra: ablations",
		Title:  "Each design choice against its baseline at equal resources",
		Header: []string{"ablation", "metric", "baseline", "CoSMIC", "baseline / CoSMIC", "wall-clock (info)"},
		Rows: [][]string{
			{"tree bus vs flat bus", "initiation interval (cycles)",
				fmt.Sprint(a.flatInterval), fmt.Sprint(a.treeInterval),
				ratio(float64(a.flatInterval), float64(a.treeInterval)), "-"},
			{"data-first vs operation-first mapping", "inter-PE transfers",
				fmt.Sprint(a.tablaTransfers), fmt.Sprint(a.cosmicTransfers),
				ratio(float64(a.tablaTransfers), float64(a.cosmicTransfers)), "-"},
			{"8 threads × 1 row vs 1 thread × 8 rows", "cycles per vector",
				fmt.Sprintf("%.1f", a.singlePerVector), fmt.Sprintf("%.1f", a.multiPerVector),
				ratio(a.singlePerVector, a.multiPerVector), "-"},
			{"3-group vs flat aggregation (9 nodes)", "master bytes sent, 8 rounds",
				fmt.Sprint(a.flatMasterBytes), fmt.Sprint(a.hierMasterBytes),
				ratio(float64(a.flatMasterBytes), float64(a.hierMasterBytes)),
				ratio(a.flatSeconds, a.hierSeconds)},
		},
		Summary: []string{
			"tree bus and data-first mapping are the template and compiler halves of Figure 17's gap;",
			"the flat master feeds 8 members, the 3-group master 2 members and 2 group Sigmas (wall clock is loopback noise, info only)",
		},
	}, nil
}

// measureAblations runs the four ablations.
func measureAblations() (ablationResults, error) {
	var a ablationResults
	mlp := &ml.MLP{In: 24, Hid: 16, Out: 6}

	tree, err := compileAblation(mlp, 1, 8, compiler.StyleCoSMIC)
	if err != nil {
		return a, err
	}
	flat, err := compileAblation(mlp, 1, 8, compiler.StyleCoSMIC)
	if err != nil {
		return a, err
	}
	flat.Interconnect = compiler.FlatBus
	a.treeInterval = accel.New(tree).Interval()
	a.flatInterval = accel.New(flat).Interval()

	tabla, err := compileAblation(mlp, 1, 8, compiler.StyleTABLA)
	if err != nil {
		return a, err
	}
	a.cosmicTransfers = tree.CommunicationCost()
	a.tablaTransfers = tabla.CommunicationCost()

	svm := &ml.SVM{M: 96}
	single, err := compileAblation(svm, 1, 8, compiler.StyleCoSMIC)
	if err != nil {
		return a, err
	}
	multi, err := compileAblation(svm, 8, 1, compiler.StyleCoSMIC)
	if err != nil {
		return a, err
	}
	// The steady-state interval spans one vector per thread.
	a.singlePerVector = float64(accel.New(single).Interval())
	a.multiPerVector = float64(accel.New(multi).Interval()) / 8

	if a.flatMasterBytes, a.flatSeconds, err = runHierarchyAblation(1); err != nil {
		return a, err
	}
	if a.hierMasterBytes, a.hierSeconds, err = runHierarchyAblation(3); err != nil {
		return a, err
	}
	return a, nil
}

// compileAblation takes alg's DSL program through the translator and the
// compiler onto ablationChip at the given thread and row counts.
func compileAblation(alg ml.Algorithm, threads, rows int, style compiler.Style) (*compiler.Program, error) {
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		return nil, err
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		return nil, err
	}
	plan := arch.Plan{Chip: ablationChip, Columns: ablationChip.Columns(), Threads: threads, RowsPerThread: rows}
	return compiler.Compile(g, plan, style)
}

// runHierarchyAblation trains a 2048-word linear model for 8 rounds on a
// 9-node loopback cluster with the given number of aggregation groups and
// returns the bytes the master sent and the summed round wall time.
func runHierarchyAblation(groups int) (masterSent int64, seconds float64, err error) {
	const nodes, rounds = 9, 8
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
	shards := ml.Partition(data, nodes)

	cl, err := runtime.Launch(runtime.ClusterOptions{
		Nodes: nodes, Groups: groups,
		Engines: func(int) runtime.Engine {
			return &runtime.RefEngine{Alg: alg, Threads: 1, LR: 1e-4, Agg: dsl.AggAverage}
		},
		Shards:    func(id int) []ml.Sample { return shards[id] },
		ModelSize: alg.ModelSize(),
		Agg:       dsl.AggAverage, LR: 1e-4, MiniBatch: nodes,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	_, stats, err := cl.Train(model, rounds)
	if err != nil {
		return 0, 0, err
	}
	masterSent, _ = cl.Nodes()[0].NetworkBytes()
	if err := cl.Shutdown(); err != nil {
		return 0, 0, err
	}
	for _, d := range stats.RoundDurations {
		seconds += d.Seconds()
	}
	return masterSent, seconds, nil
}
