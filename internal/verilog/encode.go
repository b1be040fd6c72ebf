// Package verilog implements CoSMIC's circuit layer: the Constructor, which
// lowers a compiled program and its architectural plan into synthesizable
// RTL Verilog. For FPGAs the static schedule becomes per-PE finite state
// machines ("the accelerator avoids the von Neumann overhead by bypassing
// instruction fetch and decode"); for P-ASICs the schedule becomes microcode
// executed by a small control unit, so one taped-out chip can run any
// program the DSL expresses.
//
// Synthesis itself is out of scope for this reproduction (no vendor tools
// offline); generation is exercised by golden-structure tests instead.
package verilog

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/dfg"
)

// Opcode is the PE ALU/LUT operation encoding shared by the FSM and
// microcode backends.
type Opcode uint8

// Opcodes. The arithmetic group maps to the DSP-slice ALU; the nonlinear
// group to the lookup-table unit.
const (
	OpcNop Opcode = iota
	OpcAdd
	OpcSub
	OpcMul
	OpcDiv
	OpcNeg
	OpcGT
	OpcLT
	OpcGE
	OpcLE
	OpcEQ
	OpcNE
	OpcSel
	OpcSigmoid
	OpcGaussian
	OpcLog
	OpcExp
	OpcSqrt
	OpcTanh
	OpcRelu
	OpcAbs
	OpcSign
	OpcAcc // gradient accumulation into the interim buffer
)

// opcodeOf maps each compute op to its opcode; leaves map to OpcNop, which
// no compute op uses.
var opcodeOf = [...]Opcode{
	dfg.OpAdd: OpcAdd, dfg.OpSub: OpcSub, dfg.OpMul: OpcMul, dfg.OpDiv: OpcDiv,
	dfg.OpNeg: OpcNeg, dfg.OpGT: OpcGT, dfg.OpLT: OpcLT, dfg.OpGE: OpcGE,
	dfg.OpLE: OpcLE, dfg.OpEQ: OpcEQ, dfg.OpNE: OpcNE, dfg.OpSelect: OpcSel,
	dfg.OpSigmoid: OpcSigmoid, dfg.OpGaussian: OpcGaussian, dfg.OpLog: OpcLog,
	dfg.OpExp: OpcExp, dfg.OpSqrt: OpcSqrt, dfg.OpTanh: OpcTanh,
	dfg.OpRelu: OpcRelu, dfg.OpAbs: OpcAbs, dfg.OpSign: OpcSign,
}

var opcodeNames = [...]string{
	OpcNop: "NOP", OpcAdd: "ADD", OpcSub: "SUB", OpcMul: "MUL", OpcDiv: "DIV",
	OpcNeg: "NEG", OpcGT: "GT", OpcLT: "LT", OpcGE: "GE", OpcLE: "LE",
	OpcEQ: "EQ", OpcNE: "NE", OpcSel: "SEL", OpcSigmoid: "SIGMOID",
	OpcGaussian: "GAUSS", OpcLog: "LOG", OpcExp: "EXP", OpcSqrt: "SQRT",
	OpcTanh: "TANH", OpcRelu: "RELU", OpcAbs: "ABS", OpcSign: "SIGN",
	OpcAcc: "ACC",
}

// String names the opcode.
func (o Opcode) String() string {
	if o.valid() {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OPC(%d)", uint8(o))
}

// valid reports whether o is a defined opcode.
func (o Opcode) valid() bool {
	return int(o) < len(opcodeNames)
}

// OperandClass selects which PE buffer (or bus port) an operand reads from.
type OperandClass uint8

// Operand classes: the PE's three buffer partitions, the bus receive
// register, and an immediate from the constant table.
const (
	ClsData OperandClass = iota
	ClsModel
	ClsInterim
	ClsBus
	ClsImm
)

var classNames = [...]string{"DATA", "MODEL", "INTERIM", "BUS", "IMM"}

// String names the class.
func (c OperandClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("CLS(%d)", uint8(c))
}

// Operand is one resolved ALU input. Bus operands additionally carry the
// routing information the interconnect schedule encodes on real hardware:
// which PE produces the value and which of its buffer partitions holds it.
type Operand struct {
	Class OperandClass
	Index int
	// SrcPE and SrcClass route ClsBus operands.
	SrcPE    int
	SrcClass OperandClass
}

// Instruction is one PE control word: execute Opc over the operands and
// write the result to interim slot Dst.
type Instruction struct {
	Opc  Opcode
	Srcs []Operand
	Dst  int
}

// PEImage is the per-PE control program plus buffer allocation.
type PEImage struct {
	PE           int
	Instructions []Instruction
	// DataSlots/ModelSlots/InterimSlots are the buffer partition sizes.
	DataSlots, ModelSlots, InterimSlots int
}

// Image is the encoded accelerator: one control program per PE plus the
// shared constant table and the slot tables the write-back and aggregation
// schedules are generated from.
type Image struct {
	Prog   *compiler.Program
	PEs    []PEImage
	Consts []float64
	// InterimSlotOf gives, per node ID, a compute node's interim-buffer slot
	// on its owning PE; AccSlotOf gives a gradient output node's running-sum
	// accumulator slot. Both are -1 for nodes without one.
	InterimSlotOf []int
	AccSlotOf     []int
}

// Encode lowers the compiled program into per-PE control programs,
// allocating buffer slots for every value each PE holds.
func Encode(prog *compiler.Program) (*Image, error) {
	g := prog.Graph
	img := &Image{Prog: prog, AccSlotOf: filled(len(g.Nodes), -1)}

	// Constant table (shared; immediates are replicated into each PE's
	// decoder ROM at generation time), keyed like the translator's constant
	// interning so -0 and +0 stay apart and every NaN shares one entry.
	constIdx := map[uint64]int{}
	constOf := func(v float64) int {
		key := dfg.ConstBits(v)
		i, ok := constIdx[key]
		if !ok {
			i = len(img.Consts)
			constIdx[key] = i
			img.Consts = append(img.Consts, v)
		}
		return i
	}

	// Per-PE slot allocation, indexed by node ID: the slot within the owning
	// PE's partition.
	dataSlot := make([]int, len(g.Nodes))
	modelSlot := make([]int, len(g.Nodes))
	interimSlot := filled(len(g.Nodes), -1)
	dataCount := make([]int, prog.NPE)
	modelCount := make([]int, prog.NPE)
	interimCount := make([]int, prog.NPE)

	// Data and model slots are allocated in stream/broadcast order — the
	// order the memory interface writes them — so the loaders and the
	// control programs agree without a side table.
	for _, id := range prog.DataStream {
		if id < 0 {
			continue
		}
		pe := prog.PE[id]
		dataSlot[id] = dataCount[pe]
		dataCount[pe]++
	}
	for _, id := range prog.ModelStream {
		pe := prog.PE[id]
		modelSlot[id] = modelCount[pe]
		modelCount[pe]++
	}
	for i := range g.Nodes {
		pe := prog.PE[i]
		if pe < 0 || g.Nodes[i].Op.IsLeaf() {
			continue
		}
		interimSlot[i] = interimCount[pe]
		interimCount[pe]++
	}

	operandFor := func(a int32, pe int) Operand {
		switch op := g.Nodes[a].Op; {
		case op == dfg.OpConst:
			return Operand{Class: ClsImm, Index: constOf(g.Nodes[a].Const)}
		case prog.PE[a] != pe:
			// Remote values arrive over a bus port; the routing fields name
			// the producer PE and its buffer slot, exactly what the
			// interconnect schedule's transaction carries.
			slot, cls := busSlotOf(op, a, dataSlot, modelSlot, interimSlot)
			return Operand{Class: ClsBus, Index: slot, SrcPE: prog.PE[a], SrcClass: cls}
		case op == dfg.OpData:
			return Operand{Class: ClsData, Index: dataSlot[a]}
		case op == dfg.OpModel:
			return Operand{Class: ClsModel, Index: modelSlot[a]}
		default:
			return Operand{Class: ClsInterim, Index: interimSlot[a]}
		}
	}

	// Every instruction's operands are carved, capacity-capped, from one
	// slab: one operand per argument of every scheduled op, one per
	// accumulation.
	nsrcs := 0
	for pe, ids := range prog.PEOps {
		for _, id := range ids {
			nsrcs += int(g.Nodes[id].Arity)
		}
		nsrcs += len(prog.GradAccum[pe])
	}
	slab := make([]Operand, nsrcs)
	srcs := func(n int) []Operand {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}

	img.PEs = make([]PEImage, prog.NPE)
	for pe := range img.PEs {
		p := &img.PEs[pe]
		p.PE = pe
		p.Instructions = make([]Instruction, 0, len(prog.PEOps[pe])+len(prog.GradAccum[pe]))
		for _, id := range prog.PEOps[pe] {
			n := &g.Nodes[id]
			var opc Opcode
			if int(n.Op) < len(opcodeOf) {
				opc = opcodeOf[n.Op]
			}
			if opc == OpcNop {
				return nil, fmt.Errorf("verilog: no opcode for %s", n.Op)
			}
			ins := Instruction{Opc: opc, Srcs: srcs(int(n.Arity)), Dst: interimSlot[id]}
			for k, a := range n.Args() {
				ins.Srcs[k] = operandFor(a, pe)
			}
			p.Instructions = append(p.Instructions, ins)
		}
		// Gradient accumulations append to the control program, each with
		// its own running-sum slot after the ordinary interims (so the
		// per-vector values can be overwritten while the sums persist).
		for _, id := range prog.GradAccum[pe] {
			src := srcs(1)
			src[0] = operandFor(int32(id), pe)
			accSlot := interimCount[pe]
			interimCount[pe]++
			img.AccSlotOf[id] = accSlot
			p.Instructions = append(p.Instructions, Instruction{Opc: OpcAcc, Srcs: src, Dst: accSlot})
		}
		p.DataSlots = dataCount[pe]
		p.ModelSlots = modelCount[pe]
		p.InterimSlots = interimCount[pe]
	}
	img.InterimSlotOf = interimSlot
	return img, nil
}

// filled returns a slice of n copies of v.
func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func busSlotOf(op dfg.Op, a int32, dataSlot, modelSlot, interimSlot []int) (int, OperandClass) {
	switch op {
	case dfg.OpData:
		return dataSlot[a], ClsData
	case dfg.OpModel:
		return modelSlot[a], ClsModel
	default:
		return interimSlot[a], ClsInterim
	}
}

// AppendMicrocode packs one instruction into 32-bit control words for the
// P-ASIC backend and appends them to dst:
//
//	word0: [31:24] opcode | [23:21] srcA class | [20:8] srcA index | [7:0] src count
//	word1: [31:29] srcB class | [28:16] srcB index | [15:0] dst slot
//
// Three-operand selects emit an extra word for the third source, and each
// ClsBus operand appends a routing word:
//
//	route: [31:29] source class | [28:16] source PE | [15:0] source slot
func (ins Instruction) AppendMicrocode(dst []uint32) []uint32 {
	src := func(i int) (cls, idx uint32) {
		if i < len(ins.Srcs) {
			return uint32(ins.Srcs[i].Class), uint32(ins.Srcs[i].Index)
		}
		return 0, 0
	}
	aCls, aIdx := src(0)
	bCls, bIdx := src(1)
	w0 := uint32(ins.Opc)<<24 | aCls<<21 | (aIdx&0x1fff)<<8 | uint32(len(ins.Srcs))
	w1 := bCls<<29 | (bIdx&0x1fff)<<16 | uint32(ins.Dst)&0xffff
	dst = append(dst, w0, w1)
	if len(ins.Srcs) > 2 {
		cCls, cIdx := src(2)
		dst = append(dst, cCls<<29|(cIdx&0x1fff)<<16)
	}
	for _, s := range ins.Srcs {
		if s.Class == ClsBus {
			dst = append(dst,
				uint32(s.SrcClass)<<29|uint32(s.SrcPE&0x1fff)<<16|uint32(s.Index)&0xffff)
		}
	}
	return dst
}

// Stats summarizes the image for reports.
func (img *Image) Stats() (instructions, busyPEs, maxProgram int) {
	for _, pe := range img.PEs {
		instructions += len(pe.Instructions)
		if len(pe.Instructions) > 0 {
			busyPEs++
		}
		if len(pe.Instructions) > maxProgram {
			maxProgram = len(pe.Instructions)
		}
	}
	return
}
