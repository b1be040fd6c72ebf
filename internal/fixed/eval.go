package fixed

import (
	"fmt"

	"repro/internal/dfg"
)

// Evaluator interprets a dataflow graph entirely in fixed-point arithmetic,
// dispatching nonlinear operations to the LUT unit — the numeric behaviour
// of the real datapath. It mirrors dfg.Graph.Eval, which is the exact-math
// (float64) reference.
type Evaluator struct {
	F    Format
	Unit *Unit
}

// NewEvaluator builds a fixed-point evaluator in the given format.
func NewEvaluator(f Format) *Evaluator {
	return &Evaluator{F: f, Unit: NewUnit(f)}
}

// Eval runs the graph over quantized bindings and returns dequantized
// gradient outputs.
func (ev *Evaluator) Eval(g *dfg.Graph, b dfg.Bindings) (map[string][]float64, error) {
	vals := make([]Num, len(g.Nodes))
	for i := range g.Nodes {
		v, err := ev.evalNode(g, int32(i), vals, b)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	out := make(map[string][]float64, len(g.Outputs))
	for name, ids := range g.Outputs {
		vec := make([]float64, len(ids))
		for i, id := range ids {
			vec[i] = ev.F.ToFloat(vals[id])
		}
		out[name] = vec
	}
	return out, nil
}

func (ev *Evaluator) evalNode(g *dfg.Graph, id int32, vals []Num, b dfg.Bindings) (Num, error) {
	f := ev.F
	n := &g.Nodes[id]
	arg := func(i int) Num { return vals[n.Arg[i]] }
	switch n.Op {
	case dfg.OpConst:
		return f.FromFloat(n.Const), nil
	case dfg.OpData, dfg.OpModel:
		side, vecs := "data", b.Data
		if n.Op == dfg.OpModel {
			side, vecs = "model", b.Model
		}
		name := g.Var(id)
		vec, ok := vecs[name]
		if !ok || int(n.Index) >= len(vec) {
			return 0, fmt.Errorf("fixed: missing %s binding %s[%d]", side, name, n.Index)
		}
		return f.FromFloat(vec[n.Index]), nil
	case dfg.OpAdd:
		return f.Add(arg(0), arg(1)), nil
	case dfg.OpSub:
		return f.Sub(arg(0), arg(1)), nil
	case dfg.OpMul:
		return f.Mul(arg(0), arg(1)), nil
	case dfg.OpDiv:
		return f.Div(arg(0), arg(1)), nil
	case dfg.OpNeg:
		return f.clamp(-arg(0)), nil
	case dfg.OpGT:
		return boolNum(f, arg(0) > arg(1)), nil
	case dfg.OpLT:
		return boolNum(f, arg(0) < arg(1)), nil
	case dfg.OpGE:
		return boolNum(f, arg(0) >= arg(1)), nil
	case dfg.OpLE:
		return boolNum(f, arg(0) <= arg(1)), nil
	case dfg.OpEQ:
		return boolNum(f, arg(0) == arg(1)), nil
	case dfg.OpNE:
		return boolNum(f, arg(0) != arg(1)), nil
	case dfg.OpSelect:
		if arg(0) != 0 {
			return arg(1), nil
		}
		return arg(2), nil
	case dfg.OpSigmoid:
		return ev.Unit.Sigmoid.Eval(arg(0)), nil
	case dfg.OpTanh:
		return ev.Unit.Tanh.Eval(arg(0)), nil
	case dfg.OpGaussian:
		return ev.Unit.Gaussian.Eval(arg(0)), nil
	case dfg.OpExp:
		return ev.Unit.Exp.Eval(arg(0)), nil
	case dfg.OpLog:
		return ev.Unit.Log.Eval(arg(0)), nil
	case dfg.OpSqrt:
		return ev.Unit.Sqrt.Eval(arg(0)), nil
	case dfg.OpRelu:
		if arg(0) > 0 {
			return arg(0), nil
		}
		return 0, nil
	case dfg.OpAbs:
		return abs(arg(0)), nil
	case dfg.OpSign:
		switch {
		case arg(0) > 0:
			return f.one(), nil
		case arg(0) < 0:
			return -f.one(), nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("fixed: unsupported op %s", n.Op)
}

func boolNum(f Format, b bool) Num {
	if b {
		return f.one()
	}
	return 0
}
