package dfg

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the compiled evaluation tape: a lowering of a Graph
// into a flat, topologically ordered instruction array executed by a
// register-machine loop over a per-thread scratch arena. The tape is the
// hot-path twin of Graph.Eval — the interpreter remains the golden
// reference, and the tape is differentially tested against it bit-for-bit.
//
// The lowering eliminates the interpreter's steady-state overheads:
//
//   - per-leaf map lookups become per-symbol binding resolutions applied as
//     direct (slot, element) copies into the value arena;
//   - missing-binding error checks move to Bind time (once per binding map,
//     not once per leaf per vector);
//   - unsupported-op errors move to compile time, so instruction dispatch
//     is a bare switch with no error return;
//   - the per-call vals slice and output map become arena state reused
//     across evaluations, making the steady state allocation-free.

// instr is one tape instruction. dst is the value-arena slot the result is
// written to (slot == node ID); a, b, c are operand slots, -1 when unused.
type instr struct {
	op      Op
	dst     int32
	a, b, c int32
}

// leafLoad copies element elem of a bound symbol vector into arena slot
// slot.
type leafLoad struct {
	slot int32
	elem int32
}

// symBinding is a symbol's compiled binding plan: the loads that scatter
// its vector into the arena, and the minimum vector length that makes every
// load in range (validated once per Bind).
type symBinding struct {
	name   string
	minLen int
	loads  []leafLoad
}

// outGather collects arena slots into one named gradient output vector.
type outGather struct {
	name  string
	slots []int32
}

// Tape is a Graph compiled for repeated evaluation. A Tape is immutable
// after compilation and safe to share across goroutines; each evaluating
// goroutine owns a private Arena (one evaluation at a time) or Lanes (many
// side by side).
type Tape struct {
	nSlots int
	// template holds OpConst values at their slots; copied into each new
	// arena once (const slots are never overwritten afterwards).
	template []float64
	instrs   []instr
	data     []symBinding
	model    []symBinding
	outs     []outGather
}

// CompileTape lowers the graph into an evaluation tape. All structural
// checks — dense topological IDs, known ops, correct arities — happen here,
// so Arena.Eval needs no error path.
func (g *Graph) CompileTape() (*Tape, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t := &Tape{
		nSlots:   len(g.Nodes),
		template: make([]float64, len(g.Nodes)),
	}

	dataSyms := map[string]*symBinding{}
	modelSyms := map[string]*symBinding{}
	for _, n := range g.Nodes {
		switch n.Op {
		case OpConst:
			t.template[n.ID] = n.Const
		case OpData, OpModel:
			syms := dataSyms
			if n.Op == OpModel {
				syms = modelSyms
			}
			sb := syms[n.Var]
			if sb == nil {
				sb = &symBinding{name: n.Var}
				syms[n.Var] = sb
			}
			if n.Index < 0 {
				return nil, fmt.Errorf("dfg: compile: leaf %s has negative index %d", n.Var, n.Index)
			}
			sb.loads = append(sb.loads, leafLoad{slot: int32(n.ID), elem: int32(n.Index)})
			if n.Index+1 > sb.minLen {
				sb.minLen = n.Index + 1
			}
		default:
			in, err := lowerNode(n)
			if err != nil {
				return nil, err
			}
			t.instrs = append(t.instrs, in)
		}
	}
	t.data = sortedBindings(dataSyms)
	t.model = sortedBindings(modelSyms)

	names := make([]string, 0, len(g.Outputs))
	for name := range g.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nodes := g.Outputs[name]
		slots := make([]int32, len(nodes))
		for i, n := range nodes {
			slots[i] = int32(n.ID)
		}
		t.outs = append(t.outs, outGather{name: name, slots: slots})
	}
	if debugCheck {
		if issues := t.Check(g); len(issues) > 0 {
			return nil, fmt.Errorf("dfg: tape self-check failed: %s", issues[0])
		}
	}
	return t, nil
}

// lowerNode translates one compute node into an instruction, checking op
// and arity validity.
func lowerNode(n *Node) (instr, error) {
	in := instr{op: n.Op, dst: int32(n.ID), a: -1, b: -1, c: -1}
	var arity int
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpGT, OpLT, OpGE, OpLE, OpEQ, OpNE:
		arity = 2
	case OpNeg, OpSigmoid, OpGaussian, OpLog, OpExp, OpSqrt, OpTanh, OpRelu, OpAbs, OpSign:
		arity = 1
	case OpSelect:
		arity = 3
	default:
		return in, fmt.Errorf("dfg: compile: unsupported op %s", n.Op)
	}
	if len(n.Args) != arity {
		return in, fmt.Errorf("dfg: compile: op %s has %d args, want %d", n.Op, len(n.Args), arity)
	}
	in.a = int32(n.Args[0].ID)
	if arity > 1 {
		in.b = int32(n.Args[1].ID)
	}
	if arity > 2 {
		in.c = int32(n.Args[2].ID)
	}
	return in, nil
}

func sortedBindings(syms map[string]*symBinding) []symBinding {
	names := make([]string, 0, len(syms))
	for name := range syms {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]symBinding, len(names))
	for i, name := range names {
		out[i] = *syms[name]
	}
	return out
}

// NumInstrs returns the number of compute instructions on the tape.
func (t *Tape) NumInstrs() int { return len(t.instrs) }

// Instr returns instruction i's operation and destination node ID (arena
// slots are node IDs). Profilers use this to attribute simulated cycles to
// the DFG nodes a batch executed; i must be in [0, NumInstrs()).
func (t *Tape) Instr(i int) (op Op, node int) {
	in := t.instrs[i]
	return in.op, int(in.dst)
}

// Arena is one evaluator's private scratch state: the value slots, the
// reusable gradient output map, and the currently bound symbol vectors. An
// Arena is not safe for concurrent use; create one per goroutine with
// Tape.NewArena.
type Arena struct {
	tape *Tape
	vals []float64
	// out and outVecs alias the same slices: out is handed to callers,
	// outVecs drives the allocation-free gather.
	out     map[string][]float64
	outVecs [][]float64
}

// NewArena allocates the per-thread scratch state for evaluating t. The
// returned arena owns its output map: successive Eval calls overwrite the
// same slices, so callers must consume (or copy) results before the next
// evaluation.
func (t *Tape) NewArena() *Arena {
	a := &Arena{
		tape:    t,
		vals:    make([]float64, t.nSlots),
		out:     make(map[string][]float64, len(t.outs)),
		outVecs: make([][]float64, len(t.outs)),
	}
	copy(a.vals, t.template)
	for i, o := range t.outs {
		vec := make([]float64, len(o.slots))
		a.out[o.name] = vec
		a.outVecs[i] = vec
	}
	return a
}

// BindData resolves and validates one vector's data bindings, scattering
// the bound values into the arena. It is the only steady-state error check:
// each symbol costs one map lookup and one length comparison, independent
// of how many leaves read it.
func (a *Arena) BindData(data map[string][]float64) error {
	return a.bind(a.tape.data, data, "data")
}

// BindModel resolves and validates the model bindings. Model vectors are
// bound by reference semantics at copy time: callers that update the bound
// slices in place (a local SGD step, as in ml.TapeEvaluator) must re-bind
// before the next evaluation observes the update.
func (a *Arena) BindModel(model map[string][]float64) error {
	return a.bind(a.tape.model, model, "model")
}

// Bind resolves both halves of a binding set.
func (a *Arena) Bind(b Bindings) error {
	if err := a.BindData(b.Data); err != nil {
		return err
	}
	return a.BindModel(b.Model)
}

func (a *Arena) bind(syms []symBinding, vecs map[string][]float64, kind string) error {
	vals := a.vals
	for i := range syms {
		vec, err := syms[i].resolve(vecs, kind)
		if err != nil {
			return err
		}
		for _, ld := range syms[i].loads {
			vals[ld.slot] = vec[ld.elem]
		}
	}
	return nil
}

// resolve looks the symbol up in a binding map and checks the vector covers
// every element the tape loads from it.
func (sb *symBinding) resolve(vecs map[string][]float64, kind string) ([]float64, error) {
	vec, ok := vecs[sb.name]
	if !ok || len(vec) < sb.minLen {
		return nil, fmt.Errorf("dfg: bind: missing %s binding %s[%d]", kind, sb.name, sb.minLen-1)
	}
	return vec, nil
}

// Eval executes the tape over the currently bound leaves and returns the
// gradient outputs. The returned map and its slices are owned by the arena
// and reused by the next Eval; it never allocates and never fails — all
// failure modes were discharged at compile or bind time.
//
// The nonlinear cases below are textually identical to EvalNonlinear so the
// tape stays bit-for-bit equal to the interpreter (enforced by the
// differential tests in tape_test.go).
func (a *Arena) Eval() map[string][]float64 {
	vals := a.vals
	for i := range a.tape.instrs {
		in := &a.tape.instrs[i]
		switch in.op {
		case OpAdd:
			vals[in.dst] = vals[in.a] + vals[in.b]
		case OpSub:
			vals[in.dst] = vals[in.a] - vals[in.b]
		case OpMul:
			vals[in.dst] = vals[in.a] * vals[in.b]
		case OpDiv:
			vals[in.dst] = vals[in.a] / vals[in.b]
		case OpNeg:
			vals[in.dst] = -vals[in.a]
		case OpGT:
			vals[in.dst] = boolVal(vals[in.a] > vals[in.b])
		case OpLT:
			vals[in.dst] = boolVal(vals[in.a] < vals[in.b])
		case OpGE:
			vals[in.dst] = boolVal(vals[in.a] >= vals[in.b])
		case OpLE:
			vals[in.dst] = boolVal(vals[in.a] <= vals[in.b])
		case OpEQ:
			vals[in.dst] = boolVal(vals[in.a] == vals[in.b])
		case OpNE:
			vals[in.dst] = boolVal(vals[in.a] != vals[in.b])
		case OpSelect:
			if vals[in.a] != 0 {
				vals[in.dst] = vals[in.b]
			} else {
				vals[in.dst] = vals[in.c]
			}
		case OpSigmoid:
			vals[in.dst] = 1 / (1 + math.Exp(-vals[in.a]))
		case OpGaussian:
			x := vals[in.a]
			vals[in.dst] = math.Exp(-x * x)
		case OpLog:
			vals[in.dst] = math.Log(vals[in.a])
		case OpExp:
			vals[in.dst] = math.Exp(vals[in.a])
		case OpSqrt:
			vals[in.dst] = math.Sqrt(vals[in.a])
		case OpTanh:
			vals[in.dst] = math.Tanh(vals[in.a])
		case OpRelu:
			vals[in.dst] = math.Max(0, vals[in.a])
		case OpAbs:
			vals[in.dst] = math.Abs(vals[in.a])
		case OpSign:
			x := vals[in.a]
			switch {
			case x > 0:
				vals[in.dst] = 1
			case x < 0:
				vals[in.dst] = -1
			default:
				vals[in.dst] = 0
			}
		}
	}
	for i := range a.tape.outs {
		dst := a.outVecs[i]
		for j, s := range a.tape.outs[i].slots {
			dst[j] = vals[s]
		}
	}
	return a.out
}

// EvalBindings binds b and evaluates in one call: the drop-in compiled
// replacement for Graph.Eval when the caller owns an arena.
func (a *Arena) EvalBindings(b Bindings) (map[string][]float64, error) {
	if err := a.Bind(b); err != nil {
		return nil, err
	}
	return a.Eval(), nil
}
