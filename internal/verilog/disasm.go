package verilog

import (
	"fmt"
	"strings"
)

// Disassemble decodes a microcode word stream (the exact contents of a
// P-ASIC control ROM) back into instructions. Together with
// Instruction.AppendMicrocode it round-trips the ISA, which the tests verify —
// the property a real toolchain needs before anyone trusts ROM images.
func Disassemble(words []uint32) ([]Instruction, error) {
	var out []Instruction
	i := 0
	for i < len(words) {
		w0 := words[i]
		i++
		opc := Opcode(w0 >> 24)
		if !opc.valid() {
			return out, fmt.Errorf("verilog: word %d: unknown opcode %d", i-1, uint8(opc))
		}
		srcCount := int(w0 & 0xff)
		if srcCount > 3 {
			return out, fmt.Errorf("verilog: word %d: %d sources", i-1, srcCount)
		}
		if i >= len(words) {
			return out, fmt.Errorf("verilog: truncated instruction at word %d", i-1)
		}
		w1 := words[i]
		i++

		ins := Instruction{Opc: opc, Dst: int(w1 & 0xffff)}
		if srcCount >= 1 {
			ins.Srcs = append(ins.Srcs, Operand{
				Class: OperandClass(w0 >> 21 & 0x7),
				Index: int(w0 >> 8 & 0x1fff),
			})
		}
		if srcCount >= 2 {
			ins.Srcs = append(ins.Srcs, Operand{
				Class: OperandClass(w1 >> 29),
				Index: int(w1 >> 16 & 0x1fff),
			})
		}
		if srcCount >= 3 {
			if i >= len(words) {
				return out, fmt.Errorf("verilog: truncated 3-operand instruction")
			}
			w2 := words[i]
			i++
			ins.Srcs = append(ins.Srcs, Operand{
				Class: OperandClass(w2 >> 29),
				Index: int(w2 >> 16 & 0x1fff),
			})
		}
		// Routing words follow, one per bus operand, in source order.
		for s := range ins.Srcs {
			if ins.Srcs[s].Class != ClsBus {
				continue
			}
			if i >= len(words) {
				return out, fmt.Errorf("verilog: missing routing word for bus operand")
			}
			route := words[i]
			i++
			ins.Srcs[s].SrcClass = OperandClass(route >> 29)
			ins.Srcs[s].SrcPE = int(route >> 16 & 0x1fff)
			ins.Srcs[s].Index = int(route & 0xffff)
		}
		out = append(out, ins)
	}
	return out, nil
}

// String renders the instruction in assembly-like form.
func (ins Instruction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", ins.Opc)
	for i, s := range ins.Srcs {
		if i > 0 {
			b.WriteString(", ")
		}
		if s.Class == ClsBus {
			fmt.Fprintf(&b, "BUS(pe%d.%s[%d])", s.SrcPE, s.SrcClass, s.Index)
		} else {
			fmt.Fprintf(&b, "%s[%d]", s.Class, s.Index)
		}
	}
	fmt.Fprintf(&b, " -> INTERIM[%d]", ins.Dst)
	return b.String()
}

// MicrocodeOf flattens an image's control programs into one word stream per
// PE (what each ROM holds).
func MicrocodeOf(img *Image) [][]uint32 {
	out := make([][]uint32, len(img.PEs))
	for pe, p := range img.PEs {
		for _, ins := range p.Instructions {
			out[pe] = ins.AppendMicrocode(out[pe])
		}
	}
	return out
}
