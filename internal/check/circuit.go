package check

import (
	"fmt"
	"reflect"

	"repro/internal/dfg"
	"repro/internal/verilog"
)

// Microcode field widths (see Instruction.AppendMicrocode): operand indices ride
// 13-bit fields, destinations and routing slots 16-bit fields. An index
// beyond its field is silently truncated by the packer, so the checker
// rejects it statically.
const (
	maxIdx13 = 0x1fff
	maxIdx16 = 0xffff
)

// Tape compiles the graph's evaluation tape and audits it (dfg.Tape.Check),
// lifting each issue into a diagnostic.
func Tape(g *dfg.Graph) Diagnostics {
	var ds Diagnostics
	t, err := g.CompileTape()
	if err != nil {
		ds.errorf(LayerTape, "compile", "%v", err)
		return ds
	}
	for _, issue := range t.Check(g) {
		ds.errorf(LayerTape, "tape", "%s", issue)
	}
	return ds
}

// Microcode audits the encoded accelerator image: buffer-slot allocation
// consistency, operand and routing-target validity (every bus read names a
// real remote PE and an in-range slot of the right partition — the
// microcode's "branch targets"), field-width fit, and the encode→disassemble
// round trip over every PE's control ROM.
func Microcode(img *verilog.Image) Diagnostics {
	var ds Diagnostics
	prog := img.Prog
	if len(img.PEs) != prog.NPE {
		ds.errorf(LayerMicrocode, "image", "%d PE programs for %d PEs", len(img.PEs), prog.NPE)
		return ds
	}

	for pe := range img.PEs {
		p := &img.PEs[pe]
		loc := func(i int) string { return fmt.Sprintf("PE %d instr %d", pe, i) }
		if want := len(prog.PEOps[pe]) + len(prog.GradAccum[pe]); len(p.Instructions) != want {
			ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe),
				"%d instructions, schedule has %d ops + %d accumulations", len(p.Instructions), len(prog.PEOps[pe]), len(prog.GradAccum[pe]))
		}
		for i, ins := range p.Instructions {
			if ins.Dst < 0 || ins.Dst >= p.InterimSlots {
				ds.errorf(LayerMicrocode, loc(i), "destination slot %d of %d interims", ins.Dst, p.InterimSlots)
			}
			if ins.Dst > maxIdx16 {
				ds.errorf(LayerMicrocode, loc(i), "destination slot %d overflows its 16-bit field", ins.Dst)
			}
			if len(ins.Srcs) > 3 {
				ds.errorf(LayerMicrocode, loc(i), "%d sources (ISA maximum 3)", len(ins.Srcs))
			}
			for k, s := range ins.Srcs {
				checkOperand(&ds, img, pe, loc(i), k, s)
			}
		}
	}

	// Slot tables: every scheduled compute node owns an in-range interim
	// slot on its PE; every accumulated output owns an accumulator slot.
	for pe, ops := range prog.PEOps {
		for _, id := range ops {
			slot := slotOf(img.InterimSlotOf, id)
			if slot < 0 || slot >= img.PEs[pe].InterimSlots {
				ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe), "compute node %d has no valid interim slot", id)
			}
		}
	}
	for pe, ids := range prog.GradAccum {
		for _, id := range ids {
			slot := slotOf(img.AccSlotOf, id)
			if slot < 0 || slot >= img.PEs[pe].InterimSlots {
				ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe), "output node %d has no valid accumulator slot", id)
			}
		}
	}

	// Encode→disassemble round trip: each PE's control ROM must decode back
	// to the same instructions and re-encode to identical words.
	for pe, words := range verilog.MicrocodeOf(img) {
		decoded, err := verilog.Disassemble(words)
		if err != nil {
			ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe), "disassembly failed: %v", err)
			continue
		}
		if !reflect.DeepEqual(normalizeSrcs(decoded), normalizeSrcs(img.PEs[pe].Instructions)) {
			ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe), "disassembly disagrees with the encoded program")
			continue
		}
		var rewords []uint32
		for _, ins := range decoded {
			rewords = ins.AppendMicrocode(rewords)
		}
		if !reflect.DeepEqual(rewords, words) {
			ds.errorf(LayerMicrocode, fmt.Sprintf("PE %d", pe), "re-encoded ROM differs from the original")
		}
	}
	return ds
}

// slotOf reads a node's slot from one of the image's dense slot tables, -1
// when the table has none for it.
func slotOf(slots []int, id int) int {
	if id < 0 || id >= len(slots) {
		return -1
	}
	return slots[id]
}

// checkOperand audits one resolved operand against the image's buffer
// allocation and the microcode field widths.
func checkOperand(ds *Diagnostics, img *verilog.Image, pe int, loc string, k int, s verilog.Operand) {
	slots := func(p *verilog.PEImage, cls verilog.OperandClass) (int, bool) {
		switch cls {
		case verilog.ClsData:
			return p.DataSlots, true
		case verilog.ClsModel:
			return p.ModelSlots, true
		case verilog.ClsInterim:
			return p.InterimSlots, true
		}
		return 0, false
	}
	if s.Index > maxIdx13 {
		ds.errorf(LayerMicrocode, loc, "src %d index %d overflows its 13-bit field", k, s.Index)
	}
	switch s.Class {
	case verilog.ClsImm:
		if s.Index < 0 || s.Index >= len(img.Consts) {
			ds.errorf(LayerMicrocode, loc, "src %d immediate %d of %d constants", k, s.Index, len(img.Consts))
		}
	case verilog.ClsBus:
		if s.SrcPE < 0 || s.SrcPE >= len(img.PEs) {
			ds.errorf(LayerMicrocode, loc, "src %d routes from PE %d of %d", k, s.SrcPE, len(img.PEs))
			return
		}
		if s.SrcPE == pe {
			ds.errorf(LayerMicrocode, loc, "src %d routes over the bus from its own PE", k)
		}
		if s.SrcPE > maxIdx13 {
			ds.errorf(LayerMicrocode, loc, "src %d source PE %d overflows its 13-bit field", k, s.SrcPE)
		}
		n, ok := slots(&img.PEs[s.SrcPE], s.SrcClass)
		if !ok {
			ds.errorf(LayerMicrocode, loc, "src %d routes from class %s", k, s.SrcClass)
		} else if s.Index < 0 || s.Index >= n {
			ds.errorf(LayerMicrocode, loc, "src %d routes from PE %d %s slot %d of %d", k, s.SrcPE, s.SrcClass, s.Index, n)
		}
	default:
		n, ok := slots(&img.PEs[pe], s.Class)
		if !ok {
			ds.errorf(LayerMicrocode, loc, "src %d has class %s", k, s.Class)
		} else if s.Index < 0 || s.Index >= n {
			ds.errorf(LayerMicrocode, loc, "src %d reads %s slot %d of %d", k, s.Class, s.Index, n)
		}
	}
}

// normalizeSrcs maps empty source slices to nil so DeepEqual compares the
// operands, not an allocation artifact of the decoder.
func normalizeSrcs(ins []verilog.Instruction) []verilog.Instruction {
	out := make([]verilog.Instruction, len(ins))
	copy(out, ins)
	for i := range out {
		if len(out[i].Srcs) == 0 {
			out[i].Srcs = nil
		}
	}
	return out
}
