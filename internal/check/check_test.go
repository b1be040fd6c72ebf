package check

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/verilog"
)

var testChip = arch.ChipSpec{
	Name: "check-chip", Kind: arch.FPGA,
	PEBudget: 64, StorageKB: 256,
	MemBandwidthGBps: 3.2, FrequencyMHz: 100,
	TDPWatts: 5,
}

func compileFor(t *testing.T, src string, params map[string]int, style compiler.Style) *compiler.Program {
	t.Helper()
	u, err := dsl.ParseAndAnalyze(src, params)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	plan := arch.Plan{Chip: testChip, Columns: testChip.Columns(), Threads: 1, RowsPerThread: 2}
	p, err := compiler.Compile(g, plan, style)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllCleanOnEverySource proves the shipped DSL programs compile to
// artifacts that pass every layer's checker under both mapping styles.
func TestAllCleanOnEverySource(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int
	}{
		{"linreg", dsl.SourceLinearRegression, map[string]int{"M": 24}},
		{"logreg", dsl.SourceLogisticRegression, map[string]int{"M": 24}},
		{"svm", dsl.SourceSVM, map[string]int{"M": 24}},
		{"backprop", dsl.SourceBackprop, map[string]int{"IN": 8, "HID": 6, "OUT": 3}},
		{"cf", dsl.SourceCollaborativeFiltering, map[string]int{"NU": 6, "NV": 5, "K": 3}},
		{"softmax", dsl.SourceSoftmax, map[string]int{"M": 10, "C": 4}},
	}
	for _, c := range cases {
		for _, style := range []compiler.Style{compiler.StyleCoSMIC, compiler.StyleTABLA} {
			t.Run(c.name+"/"+style.String(), func(t *testing.T) {
				p := compileFor(t, c.src, c.params, style)
				ds := All(p)
				if ds.HasErrors() {
					t.Errorf("clean program reported %d errors:\n%s", ds.Errors(), ds)
				}
			})
		}
	}
}

func wantError(t *testing.T, ds Diagnostics, layer Layer, frag string) {
	t.Helper()
	for _, d := range ds.ByLayer(layer) {
		if d.Severity == Error && strings.Contains(d.Msg, frag) {
			return
		}
	}
	t.Errorf("no %s error mentioning %q:\n%s", layer, frag, ds)
}

func TestGraphCatchesLevelDrift(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	for i := range p.Graph.Nodes {
		if n := &p.Graph.Nodes[i]; !n.Op.IsLeaf() {
			n.Level += 5
			break
		}
	}
	wantError(t, Graph(p.Graph), LayerDFG, "ASAP")
}

func TestGraphCatchesBrokenConsumerEdges(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	// Drop the first consumer edge of a compute node: shift the rest of
	// the table down over it and end the node's list one entry early.
	g := p.Graph
	for i := range g.Nodes {
		if !g.Nodes[i].Op.IsLeaf() && len(g.Consumers(int32(i))) > 0 {
			at := g.ConsumerOff[i]
			g.ConsumerIDs = append(g.ConsumerIDs[:at], g.ConsumerIDs[at+1:]...)
			for j := i + 1; j < len(g.ConsumerOff); j++ {
				g.ConsumerOff[j]--
			}
			break
		}
	}
	wantError(t, Graph(p.Graph), LayerDFG, "consumer")
}

func TestGraphCatchesLeafTableCorruption(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	leaves := p.Graph.DataLeaves["x"]
	leaves[0], leaves[1] = leaves[1], leaves[0]
	wantError(t, Graph(p.Graph), LayerDFG, "entry")
}

func TestScheduleCatchesUnplacedComputeNode(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	for i := range p.Graph.Nodes {
		if !p.Graph.Nodes[i].Op.IsLeaf() {
			p.PE[i] = -5
			break
		}
	}
	wantError(t, Schedule(p), LayerSchedule, "PE")
}

func TestScheduleCatchesDroppedAccumulation(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	for pe, ids := range p.GradAccum {
		if len(ids) > 0 {
			p.GradAccum[pe] = ids[:len(ids)-1]
			break
		}
	}
	wantError(t, Schedule(p), LayerSchedule, "accumulated")
}

func TestScheduleCatchesStorageOverflow(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	p.Plan.Chip.StorageKB = 0
	wantError(t, Schedule(p), LayerSchedule, "budget")
}

func TestMemScheduleCatchesDroppedEntry(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	p.MemSchedule = p.MemSchedule[:len(p.MemSchedule)-1]
	wantError(t, MemSchedule(p), LayerMemSched, "words")
}

func TestMemScheduleCatchesBadBasePE(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	p.MemSchedule[0].BasePE = -1
	wantError(t, MemSchedule(p), LayerMemSched, "base PE")
}

func TestMemScheduleCatchesEmptyTransfer(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	p.MemSchedule[0].Size = 0
	wantError(t, MemSchedule(p), LayerMemSched, "empty")
}

func TestTapeDiagnosticsOnCorruptGraph(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	// Breaking topological order — an argument that is a later node —
	// makes tape compilation itself refuse.
	g := p.Graph
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Arity > 0 {
			n.Arg[0] = int32(len(g.Nodes) - 1)
			break
		}
	}
	ds := Tape(p.Graph)
	if !ds.HasErrors() {
		t.Fatalf("corrupt graph compiled a tape cleanly:\n%s", ds)
	}
}

func TestMicrocodeCatchesBadDestination(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	img, err := verilog.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for pe := range img.PEs {
		if len(img.PEs[pe].Instructions) > 0 {
			img.PEs[pe].Instructions[0].Dst = img.PEs[pe].InterimSlots + 9
			break
		}
	}
	wantError(t, Microcode(img), LayerMicrocode, "destination")
}

func TestMicrocodeCatchesBadRoutingTarget(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	img, err := verilog.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for pe := range img.PEs {
		for i, ins := range img.PEs[pe].Instructions {
			for k, s := range ins.Srcs {
				if s.Class == verilog.ClsBus {
					img.PEs[pe].Instructions[i].Srcs[k].SrcPE = len(img.PEs) + 3
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("mapping produced no bus transfer")
	}
	wantError(t, Microcode(img), LayerMicrocode, "routes from PE")
}

func TestMicrocodeCatchesUndecodableOpcode(t *testing.T) {
	p := compileFor(t, dsl.SourceSVM, map[string]int{"M": 12}, compiler.StyleCoSMIC)
	img, err := verilog.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for pe := range img.PEs {
		if len(img.PEs[pe].Instructions) > 0 {
			img.PEs[pe].Instructions[0].Opc = verilog.Opcode(200)
			break
		}
	}
	wantError(t, Microcode(img), LayerMicrocode, "disassembly failed")
}

func TestDiagnosticsRendering(t *testing.T) {
	var ds Diagnostics
	ds.errorf(LayerDFG, "node 3", "bad thing")
	ds.warnf(LayerTape, "tape", "odd thing")
	if ds.Errors() != 1 || !ds.HasErrors() {
		t.Errorf("errors = %d, want 1", ds.Errors())
	}
	out := ds.String()
	for _, want := range []string{"dfg: error: node 3: bad thing", "tape: warning: tape: odd thing"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if len(ds.ByLayer(LayerTape)) != 1 {
		t.Error("ByLayer(tape) should return one finding")
	}
}
