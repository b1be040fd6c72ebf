package verilog

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
)

var fpgaChip = arch.ChipSpec{
	Name: "test-fpga", Kind: arch.FPGA,
	PEBudget: 64, StorageKB: 256,
	MemBandwidthGBps: 3.2, FrequencyMHz: 100,
}

var pasicChip = arch.ChipSpec{
	Name: "test-pasic", Kind: arch.PASIC,
	PEBudget: 64, StorageKB: 256,
	MemBandwidthGBps: 32, FrequencyMHz: 1000,
}

func imageFor(t *testing.T, alg ml.Algorithm, chip arch.ChipSpec, threads, rows int) *Image {
	t.Helper()
	u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: threads, RowsPerThread: rows}
	prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Encode(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestEncodeCoversAllOps(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 24}, fpgaChip, 2, 2)
	instructions, busy, maxProg := img.Stats()
	wantOps := img.Prog.Graph.NumOps() + img.Prog.Graph.GradientWords()
	if instructions != wantOps {
		t.Errorf("encoded %d instructions, want %d (ops + accumulations)", instructions, wantOps)
	}
	if busy == 0 || maxProg == 0 {
		t.Errorf("degenerate image: busy=%d maxProg=%d", busy, maxProg)
	}
}

func TestEncodeBufferSlotsAreDense(t *testing.T) {
	img := imageFor(t, &ml.LogisticRegression{M: 32}, fpgaChip, 1, 2)
	for _, pe := range img.PEs {
		for _, ins := range pe.Instructions {
			if ins.Dst >= pe.InterimSlots && ins.Opc != OpcAcc {
				t.Fatalf("PE %d: dst slot %d beyond interim partition %d", pe.PE, ins.Dst, pe.InterimSlots)
			}
			for _, src := range ins.Srcs {
				var limit int
				switch src.Class {
				case ClsData:
					limit = pe.DataSlots
				case ClsModel:
					limit = pe.ModelSlots
				case ClsInterim:
					limit = pe.InterimSlots
				default:
					continue
				}
				if src.Index >= limit {
					t.Fatalf("PE %d: %s slot %d beyond partition %d", pe.PE, src.Class, src.Index, limit)
				}
			}
		}
	}
}

func TestMicrocodePackingRoundTrip(t *testing.T) {
	ins := Instruction{
		Opc: OpcMul,
		Srcs: []Operand{
			{Class: ClsData, Index: 5},
			{Class: ClsModel, Index: 9},
		},
		Dst: 3,
	}
	words := ins.AppendMicrocode(nil)
	if len(words) != 2 {
		t.Fatalf("2-operand op packed into %d words", len(words))
	}
	if op := Opcode(words[0] >> 24); op != OpcMul {
		t.Errorf("opcode field = %v", op)
	}
	if cls := OperandClass(words[0] >> 21 & 0x7); cls != ClsData {
		t.Errorf("srcA class = %v", cls)
	}
	if idx := words[0] >> 8 & 0x1fff; idx != 5 {
		t.Errorf("srcA index = %d", idx)
	}
	if cls := OperandClass(words[1] >> 29); cls != ClsModel {
		t.Errorf("srcB class = %v", cls)
	}
	if dst := words[1] & 0xffff; dst != 3 {
		t.Errorf("dst = %d", dst)
	}
	sel := Instruction{Opc: OpcSel, Srcs: []Operand{{}, {}, {Class: ClsInterim, Index: 7}}, Dst: 1}
	if words := sel.AppendMicrocode(nil); len(words) != 3 {
		t.Errorf("3-operand select packed into %d words", len(words))
	}
}

func TestGenerateFPGAHasFSM(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 16}, fpgaChip, 1, 2)
	rtl, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module cosmic_top", "module cosmic_pe", "module cosmic_mem_iface",
		"module cosmic_tree_bus", "module cosmic_row_bus", "module cosmic_shifter",
		"module cosmic_pe_ctrl", "case (state)", "`define COLS 8",
	} {
		if !strings.Contains(rtl, want) {
			t.Errorf("FPGA RTL missing %q", want)
		}
	}
	if strings.Contains(rtl, "ucode[") {
		t.Error("FPGA RTL contains a microcode ROM; control must be FSM-based")
	}
}

func TestGeneratePASICHasMicrocode(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 16}, pasicChip, 1, 2)
	rtl, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtl, "ucode[") {
		t.Error("P-ASIC RTL missing microcode ROM")
	}
	if strings.Contains(rtl, "case (state)") {
		t.Error("P-ASIC RTL contains schedule-specialized FSMs")
	}
}

func TestGenerateNonlinearLUTOnlyWhenNeeded(t *testing.T) {
	withNL := imageFor(t, &ml.LogisticRegression{M: 16}, fpgaChip, 1, 1)
	rtl, err := Generate(withNL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtl, "cosmic_nl_lut") {
		t.Error("logreg RTL missing the nonlinear LUT unit")
	}
	withoutNL := imageFor(t, &ml.LinearRegression{M: 16}, fpgaChip, 1, 1)
	rtl2, err := Generate(withoutNL)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rtl2, "cosmic_nl_lut") {
		t.Error("linreg RTL instantiates the nonlinear LUT it never uses")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	img := imageFor(t, &ml.MLP{In: 6, Hid: 4, Out: 2}, fpgaChip, 2, 1)
	r1, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateBalancedModules(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 16}, fpgaChip, 1, 2)
	rtl, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(rtl, "\nendmodule"), strings.Count(rtl, "\nmodule "); got != want {
		t.Errorf("%d module headers but %d endmodules", want, got)
	}
	begins := strings.Count(rtl, " begin")
	ends := strings.Count(rtl, " end")
	if begins == 0 || ends == 0 {
		t.Error("no begin/end blocks generated")
	}
}

func TestMemScheduleEmbedded(t *testing.T) {
	img := imageFor(t, &ml.SVM{M: 16}, fpgaChip, 2, 1)
	rtl, err := Generate(img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtl, "sched[0] = 32'h") {
		t.Error("memory schedule ROM not emitted")
	}
	if !strings.Contains(rtl, "thread_table[1]") {
		t.Error("thread index table missing the second thread")
	}
}
