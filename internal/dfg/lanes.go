package dfg

import "math"

// Lanes is the lane-major (structure-of-arrays) twin of Arena: width
// independent evaluations of one tape laid side by side, slot s of lane l at
// vals[s*width+l]. Eval walks the tape once for all lanes, so each
// instruction is decoded once and then runs as a loop over contiguous
// floats — the shape of the paper's MIMD threads, which all replay the same
// static schedule on their own data. A lane computes exactly what an Arena
// bound to the same values computes, bit for bit (lanes_test.go pins every
// op against Arena.Eval and Graph.Eval).
//
// A Lanes is not safe for concurrent use.
type Lanes struct {
	tape  *Tape
	width int
	vals  []float64
}

// NewLanes allocates a lane arena of the given width (nSlots × width × 8
// bytes). Constant slots are filled once; no evaluation overwrites them.
func (t *Tape) NewLanes(width int) *Lanes {
	if width < 1 {
		panic("dfg: lane arena needs at least one lane")
	}
	la := &Lanes{tape: t, width: width, vals: make([]float64, t.nSlots*width)}
	for s, c := range t.template {
		fillRow(la.Row(s), c)
	}
	return la
}

// Row returns every lane's value of one slot (slots are node IDs), aliasing
// the arena: callers read a gradient output's row after Eval, or write a
// model leaf's row to give each lane its own parameters.
func (la *Lanes) Row(slot int) []float64 {
	return la.vals[slot*la.width : (slot+1)*la.width]
}

// BindModel validates the model bindings as Arena.BindModel does and
// broadcasts them to every lane.
func (la *Lanes) BindModel(model map[string][]float64) error {
	syms := la.tape.model
	for i := range syms {
		vec, err := syms[i].resolve(model, "model")
		if err != nil {
			return err
		}
		for _, ld := range syms[i].loads {
			fillRow(la.Row(int(ld.slot)), vec[ld.elem])
		}
	}
	return nil
}

// BindData validates one vector's data bindings as Arena.BindData does and
// scatters them into one lane.
func (la *Lanes) BindData(lane int, data map[string][]float64) error {
	syms := la.tape.data
	w, vals := la.width, la.vals
	for i := range syms {
		vec, err := syms[i].resolve(data, "data")
		if err != nil {
			return err
		}
		for _, ld := range syms[i].loads {
			vals[int(ld.slot)*w+lane] = vec[ld.elem]
		}
	}
	return nil
}

func fillRow(row []float64, v float64) {
	for l := range row {
		row[l] = v
	}
}

// Eval executes the tape on lanes [0, n). Results stay in the arena (read
// them with Row); like Arena.Eval it never allocates and never fails.
//
// Each case applies, lane by lane, the expression Arena.Eval applies to its
// one lane; the operand rows are cut to the destination's length first so
// the inner loops carry no bounds checks.
func (la *Lanes) Eval(n int) {
	w, vals := la.width, la.vals
	row := func(slot int32) []float64 { return vals[int(slot)*w:][:n] }
	for i := range la.tape.instrs {
		in := &la.tape.instrs[i]
		d, a := row(in.dst), row(in.a)
		switch in.op {
		case OpAdd:
			b := row(in.b)
			for l := range d {
				d[l] = a[l] + b[l]
			}
		case OpSub:
			b := row(in.b)
			for l := range d {
				d[l] = a[l] - b[l]
			}
		case OpMul:
			b := row(in.b)
			for l := range d {
				d[l] = a[l] * b[l]
			}
		case OpDiv:
			b := row(in.b)
			for l := range d {
				d[l] = a[l] / b[l]
			}
		case OpNeg:
			for l := range d {
				d[l] = -a[l]
			}
		case OpGT:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] > b[l])
			}
		case OpLT:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] < b[l])
			}
		case OpGE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] >= b[l])
			}
		case OpLE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] <= b[l])
			}
		case OpEQ:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] == b[l])
			}
		case OpNE:
			b := row(in.b)
			for l := range d {
				d[l] = boolVal(a[l] != b[l])
			}
		case OpSelect:
			b, c := row(in.b), row(in.c)
			for l := range d {
				if a[l] != 0 {
					d[l] = b[l]
				} else {
					d[l] = c[l]
				}
			}
		case OpSigmoid:
			for l := range d {
				d[l] = 1 / (1 + math.Exp(-a[l]))
			}
		case OpGaussian:
			for l := range d {
				x := a[l]
				d[l] = math.Exp(-x * x)
			}
		case OpLog:
			for l := range d {
				d[l] = math.Log(a[l])
			}
		case OpExp:
			for l := range d {
				d[l] = math.Exp(a[l])
			}
		case OpSqrt:
			for l := range d {
				d[l] = math.Sqrt(a[l])
			}
		case OpTanh:
			for l := range d {
				d[l] = math.Tanh(a[l])
			}
		case OpRelu:
			for l := range d {
				d[l] = math.Max(0, a[l])
			}
		case OpAbs:
			for l := range d {
				d[l] = math.Abs(a[l])
			}
		case OpSign:
			for l := range d {
				switch x := a[l]; {
				case x > 0:
					d[l] = 1
				case x < 0:
					d[l] = -1
				default:
					d[l] = 0
				}
			}
		}
	}
}
