package dfg

import (
	"fmt"
	"math"
)

// Bindings supplies values for graph leaves: Data holds one training
// vector's model_input/model_output values per symbol, Model holds the
// current model parameters per symbol.
type Bindings struct {
	Data  map[string][]float64
	Model map[string][]float64
}

// Eval functionally interprets the graph under b and returns the gradient
// outputs per gradient symbol. It is the golden reference against which the
// cycle-level accelerator simulation is checked.
func (g *Graph) Eval(b Bindings) (map[string][]float64, error) {
	vals := make([]float64, len(g.Nodes))
	for i := range g.Nodes {
		v, err := g.evalNode(int32(i), vals, b)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	out := make(map[string][]float64, len(g.Outputs))
	for name, ids := range g.Outputs {
		vec := make([]float64, len(ids))
		for i, id := range ids {
			vec[i] = vals[id]
		}
		out[name] = vec
	}
	return out, nil
}

func (g *Graph) evalNode(id int32, vals []float64, b Bindings) (float64, error) {
	n := &g.Nodes[id]
	arg := func(i int) float64 { return vals[n.Arg[i]] }
	switch n.Op {
	case OpConst:
		return n.Const, nil
	case OpData, OpModel:
		side, vecs := "data", b.Data
		if n.Op == OpModel {
			side, vecs = "model", b.Model
		}
		name := g.Var(id)
		vec, ok := vecs[name]
		if !ok || int(n.Index) >= len(vec) {
			return 0, fmt.Errorf("dfg: eval: missing %s binding %s[%d]", side, name, n.Index)
		}
		return vec[n.Index], nil
	case OpAdd:
		return arg(0) + arg(1), nil
	case OpSub:
		return arg(0) - arg(1), nil
	case OpMul:
		return arg(0) * arg(1), nil
	case OpDiv:
		return arg(0) / arg(1), nil
	case OpNeg:
		return -arg(0), nil
	case OpGT:
		return boolVal(arg(0) > arg(1)), nil
	case OpLT:
		return boolVal(arg(0) < arg(1)), nil
	case OpGE:
		return boolVal(arg(0) >= arg(1)), nil
	case OpLE:
		return boolVal(arg(0) <= arg(1)), nil
	case OpEQ:
		return boolVal(arg(0) == arg(1)), nil
	case OpNE:
		return boolVal(arg(0) != arg(1)), nil
	case OpSelect:
		if arg(0) != 0 {
			return arg(1), nil
		}
		return arg(2), nil
	default:
		return EvalNonlinear(n.Op, arg(0))
	}
}

// EvalNonlinear applies a unary nonlinear operation. The accelerator
// implements these with lookup tables; the simulator and the reference
// evaluator share this exact-math implementation so they agree bit-for-bit.
func EvalNonlinear(op Op, x float64) (float64, error) {
	switch op {
	case OpSigmoid:
		return 1 / (1 + math.Exp(-x)), nil
	case OpGaussian:
		// −(x·x), not (−x)·x: with a NaN x the product's two operands would
		// be NaNs of opposite signs, and which one survives depends on the
		// order the compiler emits them in. The square of one NaN does not.
		return math.Exp(-(x * x)), nil
	case OpLog:
		return math.Log(x), nil
	case OpExp:
		return math.Exp(x), nil
	case OpSqrt:
		return math.Sqrt(x), nil
	case OpTanh:
		return math.Tanh(x), nil
	case OpRelu:
		return math.Max(0, x), nil
	case OpAbs:
		return math.Abs(x), nil
	case OpSign:
		if x > 0 {
			return 1, nil
		}
		if x < 0 {
			return -1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("dfg: eval: unsupported op %s", op)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
