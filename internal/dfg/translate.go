package dfg

import (
	"fmt"
	"math"

	"repro/internal/dsl"
)

// translator elaborates a dsl.Unit into a Graph, hash-consing nodes so that
// common subexpressions (and repeated leaf references) are shared. Node
// identity is typed, never formatted: an interior node is its op plus its
// argument IDs, a constant is its ConstBits, and a leaf is its slot in
// Graph.DataLeaves/ModelLeaves, which doubles as the leaf intern table.
type translator struct {
	unit  *dsl.Unit
	graph *Graph
	// ops and consts map structural keys to existing nodes.
	ops    map[opKey]*Node
	consts map[uint64]*Node
	// env maps interim symbol elements and assigned model/gradient elements
	// to their producing nodes: env[name][flatIndex].
	env map[string][]*Node
}

// Translate elaborates the analyzed program into a dataflow graph for one
// worker thread's partial-gradient computation.
func Translate(u *dsl.Unit) (*Graph, error) {
	tr := &translator{
		unit: u,
		graph: &Graph{
			DataLeaves:  map[string][]*Node{},
			ModelLeaves: map[string][]*Node{},
			Outputs:     map[string][]*Node{},
			Unit:        u,
		},
		ops:    map[opKey]*Node{},
		consts: map[uint64]*Node{},
		env:    map[string][]*Node{},
	}
	for _, st := range u.Program.Stmts {
		if err := tr.elaborate(st); err != nil {
			return nil, err
		}
	}
	// Collect gradient outputs in declaration order.
	for _, sym := range u.SymbolsOfKind(dsl.KindGradient) {
		nodes := tr.env[sym.Name]
		if nodes == nil {
			return nil, fmt.Errorf("dfg: gradient %q has no assignments", sym.Name)
		}
		outs := make([]*Node, sym.Size())
		for i := range outs {
			if i < len(nodes) && nodes[i] != nil {
				outs[i] = nodes[i]
			} else {
				// Elements never assigned default to zero gradient.
				outs[i] = tr.constNode(0)
			}
		}
		tr.graph.Outputs[sym.Name] = outs
		tr.graph.OutputOrder = append(tr.graph.OutputOrder, sym.Name)
	}
	computeLevels(tr.graph)
	return tr.graph, nil
}

// MustTranslate translates a known-good unit, panicking on error.
func MustTranslate(u *dsl.Unit) *Graph {
	g, err := Translate(u)
	if err != nil {
		panic(err)
	}
	return g
}

// opKey identifies an interior node: its op and up to three argument IDs
// (-1 past the op's arity), packed into 16 bytes to hash cheaply.
type opKey struct {
	op   int32
	args [3]int32
}

// ConstBits is a constant's identity: its IEEE bits, with every NaN mapped
// to one canonical NaN. +0 and -0 stay distinct. The translator interns
// constants by it and the circuit layer's immediate table is keyed by it.
func ConstBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// newNode appends a node; args is copied, so callers may pass a stack slice.
func (tr *translator) newNode(op Op, args []*Node) *Node {
	n := &Node{ID: len(tr.graph.Nodes), Op: op}
	if len(args) > 0 {
		n.Args = append(make([]*Node, 0, len(args)), args...)
	}
	tr.graph.Nodes = append(tr.graph.Nodes, n)
	for _, a := range args {
		a.Consumers = append(a.Consumers, n)
	}
	return n
}

func (tr *translator) constNode(v float64) *Node {
	key := ConstBits(v)
	if n, ok := tr.consts[key]; ok {
		return n
	}
	n := tr.newNode(OpConst, nil)
	n.Const = v
	tr.consts[key] = n
	return n
}

func (tr *translator) leafNode(op Op, name string, size, flat int) *Node {
	table := tr.graph.DataLeaves
	if op == OpModel {
		table = tr.graph.ModelLeaves
	}
	leaves := table[name]
	if leaves == nil {
		leaves = make([]*Node, size)
		table[name] = leaves
	} else if n := leaves[flat]; n != nil {
		return n
	}
	n := tr.newNode(op, nil)
	n.Var = name
	n.Index = flat
	leaves[flat] = n
	return n
}

func (tr *translator) opNode(op Op, args ...*Node) *Node {
	// Constant folding for fully constant operands keeps graphs tidy when
	// the programmer writes literal arithmetic.
	if allConst(args) {
		if v, ok := foldConst(op, args); ok {
			return tr.constNode(v)
		}
	}
	key := opKey{op: int32(op), args: [3]int32{-1, -1, -1}}
	for i, a := range args {
		key.args[i] = int32(a.ID)
	}
	if n, ok := tr.ops[key]; ok {
		return n
	}
	n := tr.newNode(op, args)
	tr.ops[key] = n
	return n
}

func allConst(args []*Node) bool {
	for _, a := range args {
		if a.Op != OpConst {
			return false
		}
	}
	return true
}

func foldConst(op Op, args []*Node) (float64, bool) {
	a := func(i int) float64 { return args[i].Const }
	switch op {
	case OpAdd:
		return a(0) + a(1), true
	case OpSub:
		return a(0) - a(1), true
	case OpMul:
		return a(0) * a(1), true
	case OpNeg:
		return -a(0), true
	case OpDiv:
		if a(1) != 0 {
			return a(0) / a(1), true
		}
	}
	return 0, false
}

// iterEnv maps bound iterator names to their current values during
// elaboration.
type iterEnv map[string]int

// elaborate expands one assignment statement over its LHS iteration space.
func (tr *translator) elaborate(st *dsl.Assign) error {
	sym := tr.unit.Symbols[st.Name]
	if sym == nil {
		return fmt.Errorf("dfg: unknown symbol %q", st.Name)
	}
	// Determine the iteration space from plain-iterator LHS subscripts.
	type axis struct {
		iter   string
		lo, hi int
	}
	var axes []axis
	for pos, ix := range st.Indices {
		ref, ok := ix.(*dsl.VarRef)
		if ok && len(ref.Indices) == 0 {
			if it := tr.unit.Symbols[ref.Name]; it != nil && it.Kind == dsl.KindIterator {
				// An iterator may cover a prefix of the dimension (the
				// uncovered gradient elements default to zero); spilling
				// past the dimension is caught by the flat-index bounds
				// check below.
				axes = append(axes, axis{iter: ref.Name, lo: it.Lo, hi: it.Hi})
				continue
			}
		}
		return fmt.Errorf("dfg: %s: LHS subscript %d of %s must be a plain iterator", st.Pos, pos, st.Name)
	}

	if tr.env[st.Name] == nil {
		tr.env[st.Name] = make([]*Node, sym.Size())
	}
	// Enumerate all points of the (possibly empty) iteration space.
	env := iterEnv{}
	var walk func(d int) error
	walk = func(d int) error {
		if d == len(axes) {
			node, err := tr.eval(st.RHS, env)
			if err != nil {
				return err
			}
			flat, err := tr.flatIndex(sym, st.Indices, env, st.Pos)
			if err != nil {
				return err
			}
			tr.env[st.Name][flat] = node
			return nil
		}
		ax := axes[d]
		for v := ax.lo; v < ax.hi; v++ {
			env[ax.iter] = v
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		delete(env, ax.iter)
		return nil
	}
	return walk(0)
}

// flatIndex computes the row-major flat index of a subscripted reference.
func (tr *translator) flatIndex(sym *dsl.Symbol, indices []dsl.Expr, env iterEnv, pos dsl.Pos) (int, error) {
	flat := 0
	for d, ix := range indices {
		v, err := tr.evalIndex(ix, env)
		if err != nil {
			return 0, err
		}
		if v < 0 || v >= sym.Dims[d] {
			return 0, fmt.Errorf("dfg: %s: index %d out of range [0,%d) for dimension %d of %s",
				pos, v, sym.Dims[d], d, sym.Name)
		}
		flat = flat*sym.Dims[d] + v
	}
	return flat, nil
}

// evalIndex evaluates an index expression to a concrete integer under the
// current iterator bindings.
func (tr *translator) evalIndex(e dsl.Expr, env iterEnv) (int, error) {
	switch e := e.(type) {
	case *dsl.NumberLit:
		return int(e.Value), nil
	case *dsl.VarRef:
		if v, ok := env[e.Name]; ok {
			return v, nil
		}
		if v, ok := tr.unit.Params[e.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("dfg: %s: index variable %q is not a bound iterator or parameter",
			e.Position(), e.Name)
	case *dsl.UnaryExpr:
		v, err := tr.evalIndex(e.X, env)
		return -v, err
	case *dsl.BinaryExpr:
		x, err := tr.evalIndex(e.X, env)
		if err != nil {
			return 0, err
		}
		y, err := tr.evalIndex(e.Y, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case dsl.OpAdd:
			return x + y, nil
		case dsl.OpSub:
			return x - y, nil
		case dsl.OpMul:
			return x * y, nil
		case dsl.OpDiv:
			if y == 0 {
				return 0, fmt.Errorf("dfg: %s: division by zero in index", e.Position())
			}
			return x / y, nil
		}
	}
	return 0, fmt.Errorf("dfg: %s is not a valid index expression", e)
}

var binOpMap = map[dsl.BinaryOp]Op{
	dsl.OpAdd: OpAdd, dsl.OpSub: OpSub, dsl.OpMul: OpMul, dsl.OpDiv: OpDiv,
	dsl.OpGT: OpGT, dsl.OpLT: OpLT, dsl.OpGE: OpGE, dsl.OpLE: OpLE,
	dsl.OpEQ: OpEQ, dsl.OpNE: OpNE,
}

var callOpMap = map[string]Op{
	"sigmoid": OpSigmoid, "gaussian": OpGaussian, "log": OpLog, "exp": OpExp,
	"sqrt": OpSqrt, "tanh": OpTanh, "relu": OpRelu, "abs": OpAbs, "sign": OpSign,
}

// eval builds the DFG node for an expression under the current iterator
// bindings.
func (tr *translator) eval(e dsl.Expr, env iterEnv) (*Node, error) {
	switch e := e.(type) {
	case *dsl.NumberLit:
		return tr.constNode(e.Value), nil
	case *dsl.VarRef:
		return tr.evalRef(e, env)
	case *dsl.UnaryExpr:
		x, err := tr.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		if x.Op == OpConst {
			return tr.constNode(-x.Const), nil
		}
		return tr.opNode(OpNeg, x), nil
	case *dsl.BinaryExpr:
		x, err := tr.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		y, err := tr.eval(e.Y, env)
		if err != nil {
			return nil, err
		}
		return tr.opNode(binOpMap[e.Op], x, y), nil
	case *dsl.CondExpr:
		c, err := tr.eval(e.Cond, env)
		if err != nil {
			return nil, err
		}
		t, err := tr.eval(e.Then, env)
		if err != nil {
			return nil, err
		}
		f, err := tr.eval(e.Else, env)
		if err != nil {
			return nil, err
		}
		return tr.opNode(OpSelect, c, t, f), nil
	case *dsl.Reduce:
		return tr.evalReduce(e, env)
	case *dsl.CallExpr:
		op, ok := callOpMap[e.Fn]
		if !ok {
			return nil, fmt.Errorf("dfg: %s: unknown function %q", e.Position(), e.Fn)
		}
		x, err := tr.eval(e.Args[0], env)
		if err != nil {
			return nil, err
		}
		return tr.opNode(op, x), nil
	}
	return nil, fmt.Errorf("dfg: unknown expression %T", e)
}

func (tr *translator) evalRef(e *dsl.VarRef, env iterEnv) (*Node, error) {
	if v, ok := env[e.Name]; ok {
		return tr.constNode(float64(v)), nil
	}
	if v, ok := tr.unit.Params[e.Name]; ok {
		return tr.constNode(float64(v)), nil
	}
	sym := tr.unit.Symbols[e.Name]
	if sym == nil {
		return nil, fmt.Errorf("dfg: %s: undefined %q", e.Position(), e.Name)
	}
	flat, err := tr.flatIndex(sym, e.Indices, env, e.Position())
	if err != nil {
		return nil, err
	}
	switch sym.Kind {
	case dsl.KindModelInput, dsl.KindModelOutput:
		return tr.leafNode(OpData, sym.Name, sym.Size(), flat), nil
	case dsl.KindModel:
		return tr.leafNode(OpModel, sym.Name, sym.Size(), flat), nil
	case dsl.KindInterim, dsl.KindGradient:
		nodes := tr.env[sym.Name]
		if nodes == nil || nodes[flat] == nil {
			return nil, fmt.Errorf("dfg: %s: %s[%d] read before assignment", e.Position(), sym.Name, flat)
		}
		return nodes[flat], nil
	}
	return nil, fmt.Errorf("dfg: %s: cannot reference %s %q", e.Position(), sym.Kind, e.Name)
}

// evalReduce expands Σ/Π over the iterator into a balanced binary tree.
func (tr *translator) evalReduce(e *dsl.Reduce, env iterEnv) (*Node, error) {
	it := tr.unit.Symbols[e.Iter]
	terms := make([]*Node, 0, it.Count())
	for v := it.Lo; v < it.Hi; v++ {
		env[e.Iter] = v
		n, err := tr.eval(e.Body, env)
		if err != nil {
			delete(env, e.Iter)
			return nil, err
		}
		terms = append(terms, n)
	}
	delete(env, e.Iter)
	op := OpAdd
	if e.Kind == dsl.ReduceProd {
		op = OpMul
	}
	return tr.reduceTree(op, terms), nil
}

// reduceTree combines terms by power-of-two recursive halving — fold the
// top half onto the bottom half — with any non-power-of-two remainder
// reduced recursively and merged at the root. Halving over a power-of-two
// span matters for the mapped schedule: with the memory-aligned data layout
// and power-of-two PE arrays, term k and term k+half live on the same PE
// whenever half is a multiple of the per-thread PE count, so the first
// log2(n/PEs) reduction levels are bus-free local accumulations and only
// the final log2(PEs) levels travel the interconnect — exactly the
// local-then-tree reduction the hardware's tree-bus ALUs perform.
func (tr *translator) reduceTree(op Op, terms []*Node) *Node {
	n := len(terms)
	if n == 1 {
		return terms[0]
	}
	k := 1
	for k*2 <= n {
		k *= 2
	}
	work := append([]*Node(nil), terms[:k]...)
	for len(work) > 1 {
		half := len(work) / 2
		for i := 0; i < half; i++ {
			work[i] = tr.opNode(op, work[i], work[i+half])
		}
		work = work[:half]
	}
	if k == n {
		return work[0]
	}
	return tr.opNode(op, work[0], tr.reduceTree(op, terms[k:]))
}

// computeLevels fills in ASAP levels and heights. Creation order is
// topological, so a single forward and a single backward pass suffice.
func computeLevels(g *Graph) {
	for _, n := range g.Nodes {
		lvl := 0
		for _, a := range n.Args {
			al := a.Level
			if !a.Op.IsLeaf() {
				al++ // a compute arg adds a pipeline step
			}
			if al > lvl {
				lvl = al
			}
		}
		n.Level = lvl
	}
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		h := 0
		for _, c := range n.Consumers {
			if c.Height+1 > h {
				h = c.Height + 1
			}
		}
		n.Height = h
	}
}
