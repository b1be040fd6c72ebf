package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataset"
)

// testPipeline is shared across tests: planning all ten benchmarks on all
// chips is the expensive part.
var (
	testPL     *Pipeline
	testPLOnce sync.Once
)

func pipelineForTest() *Pipeline {
	testPLOnce.Do(func() { testPL = NewPipeline() })
	return testPL
}

// speedups extracts every "<num>x" token from a string.
func speedups(s string) []float64 {
	var out []float64
	for _, tok := range strings.Fields(s) {
		tok = strings.TrimRight(tok, ",;:)")
		tok = strings.TrimLeft(tok, "(")
		if strings.HasSuffix(tok, "x") {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "x"), 64); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

func TestAllExperimentsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	r := &Runner{pl: pipelineForTest()}
	for _, id := range IDs() {
		rep, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", id)
		}
		if rep.String() == "" {
			t.Errorf("%s: empty rendering", id)
		}
	}
	if _, err := r.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestFig7Shape: accelerated CoSMIC beats Spark at every cluster size, and
// speedups grow with the cluster.
func TestFig7Shape(t *testing.T) {
	rep, err := Fig7(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	vals := speedups(rep.Summary[0]) // 4/8/16-FPGA geomeans
	if len(vals) < 3 {
		t.Fatalf("summary %q", rep.Summary[0])
	}
	c4, c8, c16 := vals[0], vals[1], vals[2]
	if !(c4 > 1 && c8 > c4 && c16 > c8) {
		t.Errorf("CoSMIC speedups not increasing: %v", vals[:3])
	}
	if c16 < 10 {
		t.Errorf("16-FPGA-CoSMIC speedup %.1fx implausibly low (paper: 33.8x)", c16)
	}
	spark := speedups(rep.Summary[1])
	if spark[2] >= c16/4 {
		t.Errorf("Spark-16 %.1fx too close to CoSMIC-16 %.1fx", spark[2], c16)
	}
}

// TestFig8Shape: CoSMIC scales at least as well as Spark.
func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	cosmic := speedups(rep.Summary[0])
	spark := speedups(rep.Summary[1])
	if cosmic[1] <= spark[1] {
		t.Errorf("CoSMIC 16-node scaling %.1fx not above Spark's %.1fx (paper: 2.7x vs 1.8x)",
			cosmic[1], spark[1])
	}
	if cosmic[1] < 1.5 || cosmic[1] > 8 {
		t.Errorf("CoSMIC scaling %.1fx outside plausible band (paper: 2.7x)", cosmic[1])
	}
}

// TestFig10Shape: the GPU's big computation wins are on backprop; the
// element-wise families stay near parity; P-ASIC-G beats P-ASIC-F.
func TestFig10Shape(t *testing.T) {
	rep, err := Fig10(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, row := range rep.Rows {
		byName[row[0]] = speedups(strings.Join(row[1:], " "))
	}
	// Columns: P-ASIC-F, P-ASIC-G, GPU.
	if gpu := byName["mnist"][2]; gpu < 3 {
		t.Errorf("GPU on mnist %.1fx; paper reports 20.3x — backprop must be the GPU's big win", gpu)
	}
	if gpu := byName["stock"][2]; gpu > 3 {
		t.Errorf("GPU on stock %.1fx; the bandwidth-bound families should be near parity", gpu)
	}
	for name, vals := range byName {
		if vals[1] < vals[0]*0.9 {
			t.Errorf("%s: P-ASIC-G (%.1fx) below P-ASIC-F (%.1fx)", name, vals[1], vals[0])
		}
	}
}

// TestFig11Shape: every CoSMIC platform beats the GPU on efficiency.
func TestFig11Shape(t *testing.T) {
	rep, err := Fig11(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	vals := speedups(rep.Summary[0])
	for i, name := range []string{"FPGA", "P-ASIC-F", "P-ASIC-G"} {
		if vals[i] < 1.5 {
			t.Errorf("%s perf/W vs GPU = %.1fx; the efficiency story requires >1", name, vals[i])
		}
	}
}

// TestFig13Shape: the compute fraction grows monotonically with the
// mini-batch size on average.
func TestFig13Shape(t *testing.T) {
	rep, err := Fig13(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		first := parsePercent(t, row[1])
		last := parsePercent(t, row[len(row)-1])
		if last < first {
			t.Errorf("%s: compute fraction fell from %g%% to %g%% as batch grew", row[0], first, last)
		}
	}
}

func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q", s)
	}
	return v
}

// TestFig17Shape: the CoSMIC template beats TABLA's on every benchmark.
func TestFig17Shape(t *testing.T) {
	rep, err := Fig17(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		v := speedups(row[1])
		if len(v) == 0 || v[0] < 0.95 {
			t.Errorf("%s: CoSMIC %vx vs TABLA; must not lose", row[0], v)
		}
	}
	g := speedups(rep.Summary[0])
	if g[0] < 2 {
		t.Errorf("geomean %.1fx too low (paper: 3.9x)", g[0])
	}
}

// TestTable3Shape: the bandwidth-bound linear families must not use more of
// the fabric than the compute-bound SVM/backprop class, and BRAM is always
// mostly utilized (the prefetch buffer).
func TestTable3Shape(t *testing.T) {
	rep, err := Table3(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]float64{}
	for _, row := range rep.Rows {
		util[row[0]] = parsePercent(t, row[len(row)-1]) // DSP util
		bram := parsePercent(t, row[8])
		if bram < 60 {
			t.Errorf("%s: BRAM utilization %.0f%%; Table 3 reports ~85-89%%", row[0], bram)
		}
	}
	if util["movielens"] > util["face"] {
		t.Errorf("movielens (stream-bound sparse) DSP util %.0f%% above face %.0f%%",
			util["movielens"], util["face"])
	}
}

// TestCosmicSystemDecomposition: compute scales down with nodes,
// communication does not.
func TestCosmicSystemDecomposition(t *testing.T) {
	b, err := dataset.ByName("stock")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pipelineForTest().Point(b, arch.UltraScalePlus)
	if err != nil {
		t.Fatal(err)
	}
	t4 := NewCosmicSystem(4).EpochTime(pt)
	t16 := NewCosmicSystem(16).EpochTime(pt)
	if t16.ComputeSeconds >= t4.ComputeSeconds {
		t.Errorf("compute did not shrink: %g -> %g", t4.ComputeSeconds, t16.ComputeSeconds)
	}
	if t4.Total() <= 0 || t16.Total() <= 0 {
		t.Error("degenerate totals")
	}
}

// TestSparkSystemOverheadDominatesSmallBatches mirrors the Figure 12 story
// from the Spark side.
func TestSparkSystemOverheadDominatesSmallBatches(t *testing.T) {
	b, err := dataset.ByName("tumor")
	if err != nil {
		t.Fatal(err)
	}
	small := NewSparkSystem(3)
	small.MiniBatch = 500
	big := NewSparkSystem(3)
	big.MiniBatch = 100000
	ts, tb := small.EpochTime(b), big.EpochTime(b)
	if ts.CommSeconds/ts.Total() <= tb.CommSeconds/tb.Total() {
		t.Errorf("Spark overhead fraction should shrink with batch: %.2f -> %.2f",
			ts.CommSeconds/ts.Total(), tb.CommSeconds/tb.Total())
	}
}

func TestGeomeanAndHelpers(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean = %g", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %g", g)
	}
	if g := geomean([]float64{1, -1}); g != 0 {
		t.Errorf("geomean with nonpositive = %g", g)
	}
	if Speedup(10, 2) != 5 || Speedup(1, 0) != 0 {
		t.Error("Speedup broken")
	}
}

func TestProbeScaleBudget(t *testing.T) {
	for _, b := range dataset.Benchmarks {
		s := probeScale(b)
		if s <= 0 || s > 1 {
			t.Errorf("%s: probe scale %g", b.Name, s)
		}
		g, err := benchGraph(b, s)
		if err != nil {
			t.Fatal(err)
		}
		if ops := g.NumOps(); ops > probeOpsBudget*2 {
			t.Errorf("%s: probe DFG has %d ops, budget %d", b.Name, ops, probeOpsBudget)
		}
	}
}

func TestExchangeBytesSparsity(t *testing.T) {
	ml, err := dataset.ByName("movielens")
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(ml.ModelParams()) * arch.WordBytes
	sparse := exchangeBytes(ml, 1000, 16)
	if sparse >= dense {
		t.Errorf("CF exchange %d not sparse vs model %d", sparse, dense)
	}
	st, _ := dataset.ByName("stock")
	if exchangeBytes(st, 1000, 16) != int64(st.ModelParams())*arch.WordBytes {
		t.Error("dense families must exchange the whole model")
	}
}

// TestConvergenceDegradesWithBatch: under batched gradient descent, larger
// mini-batches must end at a higher loss at a fixed budget.
func TestConvergenceDegradesWithBatch(t *testing.T) {
	rep, err := Convergence()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("%s: convergence did not degrade with batch size: %v", row[0], row)
		}
	}
}

// TestValidationTight: the estimator must stay within a few percent of the
// simulator, and every benchmark's numerics must be exact.
func TestValidationTight(t *testing.T) {
	rep, err := Validation(pipelineForTest())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		errPct := parsePercent(t, row[4])
		if errPct > 10 {
			t.Errorf("%s: estimation error %.1f%%", row[0], errPct)
		}
		if row[5] != "exact" {
			t.Errorf("%s: numerics %s", row[0], row[5])
		}
	}
}

// TestAblationsShape: each design choice beats its baseline, and the
// 3-group hierarchy halves the bytes the master sends (it feeds 4 peers
// instead of 8).
func TestAblationsShape(t *testing.T) {
	a, err := measureAblations()
	if err != nil {
		t.Fatal(err)
	}
	if a.treeInterval > a.flatInterval {
		t.Errorf("tree-bus interval %d above flat-bus %d", a.treeInterval, a.flatInterval)
	}
	if a.cosmicTransfers > a.tablaTransfers {
		t.Errorf("CoSMIC mapping moves %d transfers, TABLA %d", a.cosmicTransfers, a.tablaTransfers)
	}
	if a.multiPerVector >= a.singlePerVector {
		t.Errorf("8 threads cost %.1f cycles/vector, 1 thread %.1f", a.multiPerVector, a.singlePerVector)
	}
	if r := float64(a.flatMasterBytes) / float64(a.hierMasterBytes); r < 1.95 || r > 2.05 {
		t.Errorf("master bytes flat %d / 3-group %d = %.3f, want 2 ± 0.05",
			a.flatMasterBytes, a.hierMasterBytes, r)
	}
}
