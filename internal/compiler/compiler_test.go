package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// testChip is a small fabric: 8 columns (3.2 GB/s at 100 MHz), 64 PEs.
var testChip = arch.ChipSpec{
	Name: "test-chip", Kind: arch.FPGA,
	PEBudget: 64, StorageKB: 256,
	MemBandwidthGBps: 3.2, FrequencyMHz: 100,
	TDPWatts: 5,
}

func testPlan(threads, rows int) arch.Plan {
	return arch.Plan{Chip: testChip, Columns: testChip.Columns(), Threads: threads, RowsPerThread: rows}
}

func graphFor(t *testing.T, src string, params map[string]int) *dfg.Graph {
	t.Helper()
	u, err := dsl.ParseAndAnalyze(src, params)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChipColumnsFromBandwidth(t *testing.T) {
	if c := testChip.Columns(); c != 8 {
		t.Fatalf("columns = %d, want 8", c)
	}
	if r := testChip.RowLimit(); r != 8 {
		t.Fatalf("row limit = %d, want 8", r)
	}
	// Paper platforms: UltraScale+ gets 128 words/cycle and 48 rows;
	// P-ASIC-F is bandwidth-starved per cycle at 1 GHz.
	if c := arch.UltraScalePlus.Columns(); c != 128 {
		t.Errorf("UltraScale+ columns = %d, want 128", c)
	}
	if r := arch.UltraScalePlus.RowLimit(); r != 48 {
		t.Errorf("UltraScale+ row limit = %d, want 48", r)
	}
	// Columns round down to powers of two (19.2 -> 16, 72 -> 64) so the
	// memory bursts and reduction trees stay aligned.
	if c := arch.PASICF.Columns(); c != 16 {
		t.Errorf("P-ASIC-F columns = %d, want 16", c)
	}
	if c := arch.PASICG.Columns(); c != 64 {
		t.Errorf("P-ASIC-G columns = %d, want 64", c)
	}
}

func TestPlanValidate(t *testing.T) {
	good := testPlan(2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testPlan(4, 3) // 12 rows > limit 8
	if err := bad.Validate(); err == nil {
		t.Error("expected row-limit violation")
	}
	if err := (arch.Plan{Chip: testChip}).Validate(); err == nil {
		t.Error("expected degenerate-plan error")
	}
}

func TestCompileSVMBothStyles(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 32})
	for _, style := range []Style{StyleCoSMIC, StyleTABLA} {
		p, err := Compile(g, testPlan(2, 2), style)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if p.NPE != 16 {
			t.Errorf("%v: NPE = %d, want 16", style, p.NPE)
		}
		scheduled := 0
		for _, ops := range p.PEOps {
			scheduled += len(ops)
		}
		if scheduled != g.NumOps() {
			t.Errorf("%v: scheduled %d ops, graph has %d", style, scheduled, g.NumOps())
		}
	}
}

func TestDataPlacementFollowsMemoryLayout(t *testing.T) {
	g := graphFor(t, dsl.SourceLinearRegression, map[string]int{"M": 24})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	// x[0..23] then y stream in order; word k must land on column k%8,
	// row (k/8)%2.
	if len(p.DataStream) != 25 {
		t.Fatalf("stream length %d, want 25", len(p.DataStream))
	}
	for k, id := range p.DataStream {
		if id < 0 {
			t.Fatalf("word %d unexpectedly unreferenced", k)
		}
		wantPE := (k/8%2)*8 + k%8
		if p.PE[id] != wantPE {
			t.Errorf("word %d placed on PE %d, want %d", k, p.PE[id], wantPE)
		}
	}
	// Leaf identity: the k-th streamed word is x[k] for k<24, then y.
	for k := 0; k < 24; k++ {
		id := int32(p.DataStream[k])
		if name, idx := g.Var(id), g.Nodes[id].Index; name != "x" || int(idx) != k {
			t.Errorf("word %d is %s[%d], want x[%d]", k, name, idx, k)
		}
	}
	if name := g.Var(int32(p.DataStream[24])); name != "y" {
		t.Errorf("word 24 is %s, want y", name)
	}
}

func TestCoSMICCoLocatesModelWithData(t *testing.T) {
	g := graphFor(t, dsl.SourceLinearRegression, map[string]int{"M": 16})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	// Every w[i]*x[i] multiply must execute on x[i]'s PE, with w[i] stored
	// there too: zero transfers for the elementwise stage.
	xLeaves := g.DataLeaves["x"]
	wLeaves := g.ModelLeaves["w"]
	for i := range wLeaves {
		if p.PE[wLeaves[i]] != p.PE[xLeaves[i]] {
			t.Errorf("w[%d] on PE %d but x[%d] on PE %d",
				i, p.PE[wLeaves[i]], i, p.PE[xLeaves[i]])
		}
	}
}

func TestCoSMICBeatsTABLAOnCommunication(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int
		strict bool
	}{
		// On purely element-wise graphs TABLA's greedy converges to the
		// same placement; the data-first advantage shows on graphs with
		// real cross-communication (reductions feeding broadcasts feeding
		// outer products).
		{"linreg", dsl.SourceLinearRegression, map[string]int{"M": 128}, false},
		{"svm", dsl.SourceSVM, map[string]int{"M": 128}, false},
		{"logreg", dsl.SourceLogisticRegression, map[string]int{"M": 128}, false},
		{"backprop", dsl.SourceBackprop, map[string]int{"IN": 16, "HID": 12, "OUT": 4}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := graphFor(t, c.src, c.params)
			plan := testPlan(1, 4)
			cosmic, err := Compile(g, plan, StyleCoSMIC)
			if err != nil {
				t.Fatal(err)
			}
			tabla, err := Compile(g, plan, StyleTABLA)
			if err != nil {
				t.Fatal(err)
			}
			cc, tc := cosmic.CommunicationCost(), tabla.CommunicationCost()
			if cc > tc || (c.strict && cc == tc) {
				t.Errorf("CoSMIC transfers %d, TABLA %d: data-first mapping should communicate less", cc, tc)
			}
		})
	}
}

func TestGradAccumCoversEveryOutput(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 20})
	p, err := Compile(g, testPlan(2, 1), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for pe, ids := range p.GradAccum {
		for _, id := range ids {
			seen[id]++
			if owner := p.PE[id]; owner >= 0 && owner != pe {
				t.Errorf("output %d accumulated on PE %d but produced on %d", id, pe, owner)
			}
		}
	}
	for _, outs := range g.Outputs {
		for _, o := range outs {
			if seen[int(o)] != 1 {
				t.Errorf("output node %d accumulated %d times", o, seen[int(o)])
			}
		}
	}
}

func TestMemScheduleAccountsForAllWords(t *testing.T) {
	g := graphFor(t, dsl.SourceLogisticRegression, map[string]int{"M": 20})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	var bcast, read, write int
	for _, e := range p.MemSchedule {
		if e.Size <= 0 || e.Size > p.Columns {
			t.Fatalf("entry size %d out of range (columns %d)", e.Size, p.Columns)
		}
		switch {
		case e.Broadcast:
			bcast += e.Size
		case e.Write:
			write += e.Size
		default:
			read += e.Size
		}
	}
	if bcast != len(p.ModelStream) {
		t.Errorf("broadcast words %d, model stream %d", bcast, len(p.ModelStream))
	}
	if read != len(p.DataStream) {
		t.Errorf("read words %d, data stream %d", read, len(p.DataStream))
	}
	if write != g.GradientWords() {
		t.Errorf("write-back words %d, gradients %d", write, g.GradientWords())
	}
}

func TestCompileRejectsBadPlan(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	if _, err := Compile(g, testPlan(8, 8), StyleCoSMIC); err == nil {
		t.Error("expected plan-validation error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	p, err := Compile(g, testPlan(1, 1), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate a scheduled op.
	p.PEOps[0] = append(p.PEOps[0], p.PEOps[0][0])
	if err := p.Validate(); err == nil {
		t.Error("expected duplicate-schedule error")
	}
}

// TestValidateRejectsOutOfRangeNode: a schedule naming a node the graph does
// not have is reported, not indexed.
func TestValidateRejectsOutOfRangeNode(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	for _, id := range []int{-1, len(g.Nodes), 1 << 30} {
		p, err := Compile(g, testPlan(1, 1), StyleCoSMIC)
		if err != nil {
			t.Fatal(err)
		}
		p.PEOps[3] = append(p.PEOps[3], id)
		err = p.Validate()
		want := fmt.Sprintf("compiler: PE 3 schedules node %d, outside the graph", id)
		if err == nil || err.Error() != want {
			t.Errorf("node %d: got %v, want %q", id, err, want)
		}
	}
}

func TestValidateCatchesIssueOrderOmission(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	p.IssueOrder = p.IssueOrder[:len(p.IssueOrder)-1]
	if err := p.Validate(); err == nil {
		t.Error("expected issue-order omission error")
	}
}

func TestValidateCatchesIssueOrderDuplicate(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	p.IssueOrder[len(p.IssueOrder)-1] = p.IssueOrder[0]
	if err := p.Validate(); err == nil {
		t.Error("expected issue-order duplicate error")
	}
}

func TestValidateCatchesCrossPEDependencyViolation(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 32})
	p, err := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	// Find a consumer issued after a compute operand that lives on a
	// different PE, and swap the pair: each PE's own program order is
	// untouched, so only the global (cross-PE) dependency check can fire.
	pos := map[int]int{}
	for i, id := range p.IssueOrder {
		pos[id] = i
	}
	found := false
	for j, id := range p.IssueOrder {
		for _, a := range g.Nodes[id].Args() {
			if g.Nodes[a].Op.IsLeaf() || p.PE[a] == p.PE[id] {
				continue
			}
			i := pos[int(a)]
			p.IssueOrder[i], p.IssueOrder[j] = p.IssueOrder[j], p.IssueOrder[i]
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no cross-PE dependency in this mapping")
	}
	if err := p.Validate(); err == nil {
		t.Error("expected cross-PE dependency violation")
	}
}

func TestInterconnectFollowsStyle(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	c, _ := Compile(g, testPlan(1, 1), StyleCoSMIC)
	tb, _ := Compile(g, testPlan(1, 1), StyleTABLA)
	if c.Interconnect != TreeBus || tb.Interconnect != FlatBus {
		t.Errorf("interconnects: cosmic %v, tabla %v", c.Interconnect, tb.Interconnect)
	}
}

func TestRowColHelpers(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 8})
	p, _ := Compile(g, testPlan(1, 2), StyleCoSMIC)
	if p.RowOf(9) != 1 || p.ColOf(9) != 1 {
		t.Errorf("PE 9: row %d col %d, want 1,1", p.RowOf(9), p.ColOf(9))
	}
}

func TestDumpSchedule(t *testing.T) {
	g := graphFor(t, dsl.SourceSVM, map[string]int{"M": 24})
	p, err := Compile(g, testPlan(2, 2), StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := p.DumpSchedule(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"schedule: CoSMIC", "memory schedule", "PE ", "compute ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
