package verilog

import (
	"fmt"
	"math"

	"repro/internal/dfg"
)

// Machine functionally executes an encoded accelerator image — the same
// per-PE control programs the microcode ROMs and FSMs are generated from —
// against real buffer contents. It is the executable semantics of the
// circuit layer: the interpreter computes gradients from the encoded
// instructions, buffer allocations, and bus routing fields alone, never
// consulting the dataflow graph, so agreement with the DFG evaluator
// demonstrates the Constructor's control programs are self-contained and
// correct.
type Machine struct {
	img *Image
	// Per-PE buffer partitions, as in the hardware PE.
	data, model, interim [][]float64
}

// NewMachine builds an interpreter over the encoded image.
func NewMachine(img *Image) *Machine {
	m := &Machine{img: img}
	m.data = make([][]float64, len(img.PEs))
	m.model = make([][]float64, len(img.PEs))
	m.interim = make([][]float64, len(img.PEs))
	for pe, p := range img.PEs {
		m.data[pe] = make([]float64, p.DataSlots)
		m.model[pe] = make([]float64, p.ModelSlots)
		m.interim[pe] = make([]float64, p.InterimSlots)
	}
	return m
}

// LoadVector fills the data buffers from one training vector in stream
// order (the memory interface's job). Slot order matches Encode's
// allocation: ascending stream order per PE.
func (m *Machine) LoadVector(stream []float64) error {
	prog := m.img.Prog
	if len(stream) != len(prog.DataStream) {
		return fmt.Errorf("verilog: vector has %d words, stream expects %d", len(stream), len(prog.DataStream))
	}
	cursor := make([]int, len(m.data))
	for k, id := range prog.DataStream {
		if id < 0 {
			continue // padding word, discarded by the shifter
		}
		pe := prog.PE[id]
		m.data[pe][cursor[pe]] = stream[k]
		cursor[pe]++
	}
	return nil
}

// LoadModel loads model words in broadcast order.
func (m *Machine) LoadModel(words []float64) error {
	prog := m.img.Prog
	if len(words) != len(prog.ModelStream) {
		return fmt.Errorf("verilog: %d model words, broadcast expects %d", len(words), len(prog.ModelStream))
	}
	cursor := make([]int, len(m.model))
	for k, id := range prog.ModelStream {
		pe := prog.PE[id]
		m.model[pe][cursor[pe]] = words[k]
		cursor[pe]++
	}
	return nil
}

// Run executes the compute portion of every PE's control program in the
// compiler's global issue order (the hardware's dataflow-consistent
// schedule), leaving per-vector results in the interim buffers.
func (m *Machine) Run() error {
	prog := m.img.Prog
	cursor := make([]int, len(m.img.PEs))
	for _, id := range prog.IssueOrder {
		pe := prog.PE[id]
		ins := m.img.PEs[pe].Instructions[cursor[pe]]
		cursor[pe]++
		if err := m.execute(pe, ins); err != nil {
			return err
		}
	}
	return nil
}

// Accumulate executes the gradient-accumulation tail of every PE's program,
// folding the vector's gradient into the persistent running sums.
func (m *Machine) Accumulate() error {
	prog := m.img.Prog
	for pe := range m.img.PEs {
		tail := len(prog.PEOps[pe])
		for _, ins := range m.img.PEs[pe].Instructions[tail:] {
			if err := m.execute(pe, ins); err != nil {
				return err
			}
		}
	}
	return nil
}

// Gradient reads the current vector's gradient outputs from the interim
// buffers, using only the image's slot tables.
func (m *Machine) Gradient() (map[string][]float64, error) {
	return m.readOutputs(m.img.InterimSlotOf, false)
}

// Accumulated reads the running gradient sums.
func (m *Machine) Accumulated() (map[string][]float64, error) {
	return m.readOutputs(m.img.AccSlotOf, true)
}

func (m *Machine) readOutputs(slots []int, accumulated bool) (map[string][]float64, error) {
	prog := m.img.Prog
	out := map[string][]float64{}
	for name, ids := range prog.Graph.Outputs {
		vec := make([]float64, len(ids))
		for i, id := range ids {
			if n := &prog.Graph.Nodes[id]; n.Op == dfg.OpConst && !accumulated {
				vec[i] = n.Const
				continue
			}
			pe := prog.PE[id]
			if pe < 0 {
				// Constant outputs are accumulated on PE 0 (see
				// compiler.buildGradAccum).
				pe = 0
			}
			if int(id) >= len(slots) || slots[id] < 0 {
				return nil, fmt.Errorf("verilog: no slot for output node %d", id)
			}
			slot := slots[id]
			vec[i] = m.interim[pe][slot]
		}
		out[name] = vec
	}
	return out, nil
}

// fetch resolves one operand. Bus operands read the producer PE's buffer
// directly — the interpreter-level equivalent of the value arriving on the
// snooped bus transaction the routing word describes.
func (m *Machine) fetch(pe int, op Operand) (float64, error) {
	cls, srcPE, idx := op.Class, pe, op.Index
	if op.Class == ClsBus {
		cls, srcPE = op.SrcClass, op.SrcPE
	}
	switch cls {
	case ClsImm:
		return m.img.Consts[idx], nil
	case ClsData:
		return m.data[srcPE][idx], nil
	case ClsModel:
		return m.model[srcPE][idx], nil
	case ClsInterim:
		return m.interim[srcPE][idx], nil
	}
	return 0, fmt.Errorf("verilog: bad operand class %v", op.Class)
}

func (m *Machine) execute(pe int, ins Instruction) error {
	srcs := make([]float64, len(ins.Srcs))
	for i, s := range ins.Srcs {
		v, err := m.fetch(pe, s)
		if err != nil {
			return err
		}
		srcs[i] = v
	}
	v, err := evalOpcode(ins.Opc, srcs, m.interim[pe], ins.Dst)
	if err != nil {
		return err
	}
	m.interim[pe][ins.Dst] = v
	return nil
}

// evalOpcode is the PE ALU/LUT semantics.
func evalOpcode(opc Opcode, s []float64, interim []float64, dst int) (float64, error) {
	a := func(i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	switch opc {
	case OpcAdd:
		return a(0) + a(1), nil
	case OpcSub:
		return a(0) - a(1), nil
	case OpcMul:
		return a(0) * a(1), nil
	case OpcDiv:
		return a(0) / a(1), nil
	case OpcNeg:
		return -a(0), nil
	case OpcGT:
		return b2f(a(0) > a(1)), nil
	case OpcLT:
		return b2f(a(0) < a(1)), nil
	case OpcGE:
		return b2f(a(0) >= a(1)), nil
	case OpcLE:
		return b2f(a(0) <= a(1)), nil
	case OpcEQ:
		return b2f(a(0) == a(1)), nil
	case OpcNE:
		return b2f(a(0) != a(1)), nil
	case OpcSel:
		if a(0) != 0 {
			return a(1), nil
		}
		return a(2), nil
	case OpcSigmoid:
		return 1 / (1 + math.Exp(-a(0))), nil
	case OpcGaussian:
		x := a(0)
		return math.Exp(-(x * x)), nil // as Graph.Eval: a NaN's sign is not the multiply's choice
	case OpcLog:
		return math.Log(a(0)), nil
	case OpcExp:
		return math.Exp(a(0)), nil
	case OpcSqrt:
		return math.Sqrt(a(0)), nil
	case OpcTanh:
		return math.Tanh(a(0)), nil
	case OpcRelu:
		return math.Max(0, a(0)), nil
	case OpcAbs:
		return math.Abs(a(0)), nil
	case OpcSign:
		switch {
		case a(0) > 0:
			return 1, nil
		case a(0) < 0:
			return -1, nil
		}
		return 0, nil
	case OpcAcc:
		return interim[dst] + a(0), nil
	}
	return 0, fmt.Errorf("verilog: unknown opcode %v", opc)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
