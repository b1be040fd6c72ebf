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
// Every table holds node IDs, never pointers.
type translator struct {
	graph *Graph
	// ops and consts intern interior and constant nodes.
	ops, consts internTable
	// names resolves every identifier of the program once: each reference
	// costs one lookup here, and the name carries the rest.
	names map[string]*name
	// terms is the reductions' shared term stack: a reduction pushes its
	// terms above those of the reductions it is nested in and pops them
	// when its tree is built.
	terms []int32
}

// name is what one identifier denotes during elaboration: a dimension
// parameter or a symbol, with the symbol's elaboration state.
type name struct {
	sym   *dsl.Symbol // nil for a parameter
	param int         // a parameter's value
	// An iterator's current value, while a statement or reduction binds it.
	val   int
	bound bool
	// A data or model symbol's leaf table (nil until its first read) and
	// Graph.Symbols ID.
	leaves []int32
	symID  int32
	// env maps an assigned symbol's elements to their producing nodes, -1
	// before assignment (nil until its first assignment).
	env []int32
}

// Translate elaborates the analyzed program into a dataflow graph for one
// worker thread's partial-gradient computation. A program that could
// elaborate to more than MaxNodes nodes is refused before any is built.
func Translate(u *dsl.Unit) (*Graph, error) {
	if err := checkWork(u, MaxNodes); err != nil {
		return nil, err
	}
	tr := &translator{
		graph: &Graph{
			Symbols:     []string{""},
			DataLeaves:  map[string][]int32{},
			ModelLeaves: map[string][]int32{},
			Outputs:     map[string][]int32{},
			Unit:        u,
		},
		names: make(map[string]*name, len(u.Symbols)+len(u.Params)),
	}
	for n, v := range u.Params {
		tr.names[n] = &name{param: v}
	}
	for n, sym := range u.Symbols {
		tr.names[n] = &name{sym: sym}
	}
	for _, st := range u.Program.Stmts {
		if err := tr.elaborate(st); err != nil {
			return nil, err
		}
	}
	// Collect gradient outputs in declaration order. A gradient's env
	// table is the symbol's size and becomes its output table.
	for _, sym := range u.SymbolsOfKind(dsl.KindGradient) {
		outs := tr.names[sym.Name].env
		if outs == nil {
			return nil, fmt.Errorf("dfg: gradient %q has no assignments", sym.Name)
		}
		for i, id := range outs {
			if id < 0 {
				// Elements never assigned default to zero gradient.
				outs[i] = tr.constNode(0)
			}
		}
		tr.graph.Outputs[sym.Name] = outs
		tr.graph.OutputOrder = append(tr.graph.OutputOrder, sym.Name)
	}
	tr.graph.Link()
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

// MaxNodes bounds a graph's size: the same bound the front end puts on a
// symbol or an iteration range, dsl.MaxElements. Every Table 1 program at
// full scale fits well inside it (netflix, the largest, has 2.27 M ops).
const MaxNodes = dsl.MaxElements

// checkWork refuses a program whose elaboration could build more than limit
// (at most MaxNodes) nodes. Each expression instance the translator
// evaluates builds at most one node, and a reduction over n terms at most
// n-1 more, so the count of instances — a statement's LHS points times its
// RHS's size, with every reduction multiplying its body by its trip count —
// bounds the graph before any of it is built. Nested reductions grow that
// count multiplicatively, which is how a few bytes of source would
// otherwise ask for billions of nodes.
func checkWork(u *dsl.Unit, limit int) error {
	total := 1 // the zero constant unassigned gradient elements default to
	for _, st := range u.Program.Stmts {
		points := 1
		for _, ix := range st.Indices {
			if ref, ok := ix.(*dsl.VarRef); ok {
				if it := u.Symbols[ref.Name]; it != nil && it.Kind == dsl.KindIterator {
					points = capWork(points * it.Count())
				}
			}
		}
		total = capWork(total + capWork(points*exprWork(u, st.RHS)))
		if total > limit {
			return fmt.Errorf("dfg: %s: the program elaborates more than %d nodes by this statement", st.Pos, limit)
		}
	}
	return nil
}

// exprWork bounds the nodes one evaluation of e builds, capped just past
// MaxNodes so that products of two bounds cannot overflow.
func exprWork(u *dsl.Unit, e dsl.Expr) int {
	switch e := e.(type) {
	case *dsl.UnaryExpr:
		return capWork(exprWork(u, e.X) + 1)
	case *dsl.BinaryExpr:
		return capWork(exprWork(u, e.X) + exprWork(u, e.Y) + 1)
	case *dsl.CondExpr:
		return capWork(exprWork(u, e.Cond) + exprWork(u, e.Then) + exprWork(u, e.Else) + 1)
	case *dsl.CallExpr:
		return capWork(exprWork(u, e.Args[0]) + 1)
	case *dsl.Reduce:
		n := u.Symbols[e.Iter].Count()
		return capWork(n*exprWork(u, e.Body) + n)
	}
	return 1
}

func capWork(n int) int { return min(n, MaxNodes+1) }

// ConstBits is a constant's identity: its IEEE bits, with every NaN mapped
// to one canonical NaN. +0 and -0 stay distinct. The translator interns
// constants by it and the circuit layer's immediate table is keyed by it.
func ConstBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// newNode appends n to the node table and returns its ID. The table grows
// by doubling, not by append's gentler factor for large slices, so that
// building a graph copies each node about once.
func (tr *translator) newNode(n Node) int32 {
	nodes := tr.graph.Nodes
	if len(nodes) == cap(nodes) {
		nodes = append(make([]Node, 0, max(2*cap(nodes), 1024)), nodes...)
	}
	tr.graph.Nodes = append(nodes, n)
	return int32(len(nodes))
}

func (tr *translator) constNode(v float64) int32 {
	key := ConstBits(v)
	h := uint32(mix64(key))
	id, slot := tr.consts.find(h, func(id int32) bool { return ConstBits(tr.graph.Nodes[id].Const) == key })
	if id >= 0 {
		return id
	}
	id = tr.newNode(Node{Op: OpConst, Const: v})
	tr.consts.insert(slot, h, id)
	return id
}

func (tr *translator) leafNode(op Op, nm *name, flat int) int32 {
	if nm.leaves == nil {
		nm.leaves = make([]int32, nm.sym.Size())
		for i := range nm.leaves {
			nm.leaves[i] = -1
		}
		table := tr.graph.DataLeaves
		if op == OpModel {
			table = tr.graph.ModelLeaves
		}
		table[nm.sym.Name] = nm.leaves
		nm.symID = int32(len(tr.graph.Symbols))
		tr.graph.Symbols = append(tr.graph.Symbols, nm.sym.Name)
	} else if id := nm.leaves[flat]; id >= 0 {
		return id
	}
	id := tr.newNode(Node{Op: op, Sym: nm.symID, Index: int32(flat)})
	nm.leaves[flat] = id
	return id
}

func (tr *translator) opNode(op Op, args ...int32) int32 {
	// Constant folding for fully constant operands keeps graphs tidy when
	// the programmer writes literal arithmetic.
	if v, ok := tr.foldConst(op, args); ok {
		return tr.constNode(v)
	}
	// An interior node is its op and argument IDs.
	n := Node{Op: op, Arity: uint8(len(args))}
	copy(n.Arg[:], args)
	h := uint32(mix64(uint64(uint32(n.Arg[0]))<<32|uint64(uint32(n.Arg[1]))) ^
		mix64(uint64(uint32(n.Arg[2]))<<8|uint64(op)))
	id, slot := tr.ops.find(h, func(id int32) bool {
		m := &tr.graph.Nodes[id]
		return m.Op == n.Op && m.Arity == n.Arity && m.Arg == n.Arg
	})
	if id >= 0 {
		return id
	}
	id = tr.newNode(n)
	tr.ops.insert(slot, h, id)
	return id
}

// foldConst evaluates op when every operand is a constant and the result is
// one too.
func (tr *translator) foldConst(op Op, args []int32) (float64, bool) {
	nodes := tr.graph.Nodes
	for _, a := range args {
		if nodes[a].Op != OpConst {
			return 0, false
		}
	}
	a := func(i int) float64 { return nodes[args[i]].Const }
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

// elaborate expands one assignment statement over its LHS iteration space.
func (tr *translator) elaborate(st *dsl.Assign) error {
	target := tr.names[st.Name]
	if target == nil || target.sym == nil {
		return fmt.Errorf("dfg: unknown symbol %q", st.Name)
	}
	// Determine the iteration space from plain-iterator LHS subscripts.
	var axes []*name
	for pos, ix := range st.Indices {
		ref, ok := ix.(*dsl.VarRef)
		if ok && len(ref.Indices) == 0 {
			if it := tr.names[ref.Name]; it != nil && it.sym != nil && it.sym.Kind == dsl.KindIterator {
				// An iterator may cover a prefix of the dimension (the
				// uncovered gradient elements default to zero); spilling
				// past the dimension is caught by the flat-index bounds
				// check below.
				axes = append(axes, it)
				continue
			}
		}
		return fmt.Errorf("dfg: %s: LHS subscript %d of %s must be a plain iterator", st.Pos, pos, st.Name)
	}

	if target.env == nil {
		target.env = make([]int32, target.sym.Size())
		for i := range target.env {
			target.env[i] = -1
		}
	}
	// Enumerate all points of the (possibly empty) iteration space.
	var walk func(d int) error
	walk = func(d int) error {
		if d == len(axes) {
			node, err := tr.eval(st.RHS)
			if err != nil {
				return err
			}
			flat, err := tr.flatIndex(target.sym, st.Indices, st.Pos)
			if err != nil {
				return err
			}
			target.env[flat] = node
			return nil
		}
		it := axes[d]
		for v := it.sym.Lo; v < it.sym.Hi; v++ {
			it.val, it.bound = v, true
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		it.bound = false
		return nil
	}
	return walk(0)
}

// flatIndex computes the row-major flat index of a subscripted reference.
func (tr *translator) flatIndex(sym *dsl.Symbol, indices []dsl.Expr, pos dsl.Pos) (int, error) {
	flat := 0
	for d, ix := range indices {
		v, err := tr.evalIndex(ix)
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
func (tr *translator) evalIndex(e dsl.Expr) (int, error) {
	switch e := e.(type) {
	case *dsl.NumberLit:
		return int(e.Value), nil
	case *dsl.VarRef:
		if nm := tr.names[e.Name]; nm != nil {
			if nm.bound {
				return nm.val, nil
			}
			if nm.sym == nil {
				return nm.param, nil
			}
		}
		return 0, fmt.Errorf("dfg: %s: index variable %q is not a bound iterator or parameter",
			e.Position(), e.Name)
	case *dsl.UnaryExpr:
		v, err := tr.evalIndex(e.X)
		return -v, err
	case *dsl.BinaryExpr:
		x, err := tr.evalIndex(e.X)
		if err != nil {
			return 0, err
		}
		y, err := tr.evalIndex(e.Y)
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
func (tr *translator) eval(e dsl.Expr) (int32, error) {
	switch e := e.(type) {
	case *dsl.NumberLit:
		return tr.constNode(e.Value), nil
	case *dsl.VarRef:
		return tr.evalRef(e)
	case *dsl.UnaryExpr:
		x, err := tr.eval(e.X)
		if err != nil {
			return -1, err
		}
		if n := &tr.graph.Nodes[x]; n.Op == OpConst {
			return tr.constNode(-n.Const), nil
		}
		return tr.opNode(OpNeg, x), nil
	case *dsl.BinaryExpr:
		x, err := tr.eval(e.X)
		if err != nil {
			return -1, err
		}
		y, err := tr.eval(e.Y)
		if err != nil {
			return -1, err
		}
		return tr.opNode(binOpMap[e.Op], x, y), nil
	case *dsl.CondExpr:
		c, err := tr.eval(e.Cond)
		if err != nil {
			return -1, err
		}
		t, err := tr.eval(e.Then)
		if err != nil {
			return -1, err
		}
		f, err := tr.eval(e.Else)
		if err != nil {
			return -1, err
		}
		return tr.opNode(OpSelect, c, t, f), nil
	case *dsl.Reduce:
		return tr.evalReduce(e)
	case *dsl.CallExpr:
		op, ok := callOpMap[e.Fn]
		if !ok {
			return -1, fmt.Errorf("dfg: %s: unknown function %q", e.Position(), e.Fn)
		}
		x, err := tr.eval(e.Args[0])
		if err != nil {
			return -1, err
		}
		return tr.opNode(op, x), nil
	}
	return -1, fmt.Errorf("dfg: unknown expression %T", e)
}

func (tr *translator) evalRef(e *dsl.VarRef) (int32, error) {
	nm := tr.names[e.Name]
	switch {
	case nm == nil:
		return -1, fmt.Errorf("dfg: %s: undefined %q", e.Position(), e.Name)
	case nm.bound:
		return tr.constNode(float64(nm.val)), nil
	case nm.sym == nil:
		return tr.constNode(float64(nm.param)), nil
	}
	sym := nm.sym
	flat, err := tr.flatIndex(sym, e.Indices, e.Position())
	if err != nil {
		return -1, err
	}
	switch sym.Kind {
	case dsl.KindModelInput, dsl.KindModelOutput:
		return tr.leafNode(OpData, nm, flat), nil
	case dsl.KindModel:
		return tr.leafNode(OpModel, nm, flat), nil
	case dsl.KindInterim, dsl.KindGradient:
		if nm.env == nil || nm.env[flat] < 0 {
			return -1, fmt.Errorf("dfg: %s: %s[%d] read before assignment", e.Position(), sym.Name, flat)
		}
		return nm.env[flat], nil
	}
	return -1, fmt.Errorf("dfg: %s: cannot reference %s %q", e.Position(), sym.Kind, e.Name)
}

// evalReduce expands Σ/Π over the iterator into a balanced binary tree. Its
// terms live on the shared term stack above base until the tree is built.
func (tr *translator) evalReduce(e *dsl.Reduce) (int32, error) {
	it := tr.names[e.Iter]
	base := len(tr.terms)
	for v := it.sym.Lo; v < it.sym.Hi; v++ {
		it.val, it.bound = v, true
		n, err := tr.eval(e.Body)
		if err != nil {
			it.bound = false
			tr.terms = tr.terms[:base]
			return -1, err
		}
		tr.terms = append(tr.terms, n)
	}
	it.bound = false
	op := OpAdd
	if e.Kind == dsl.ReduceProd {
		op = OpMul
	}
	root := tr.reduceTree(op, tr.terms[base:])
	tr.terms = tr.terms[:base]
	return root, nil
}

// reduceTree combines terms by power-of-two recursive halving — fold the
// top half onto the bottom half — with any non-power-of-two remainder
// reduced recursively and merged at the root. Halving over a power-of-two
// span matters for the mapped schedule: with the memory-aligned data layout
// and power-of-two PE arrays, term k and term k+half live on the same PE
// whenever half is a multiple of the per-thread PE count, so the first
// log2(n/PEs) reduction levels are bus-free local accumulations and only
// the final log2(PEs) levels travel the interconnect — exactly the
// local-then-tree reduction the hardware's tree-bus ALUs perform. It
// overwrites the power-of-two prefix of terms as its work space.
func (tr *translator) reduceTree(op Op, terms []int32) int32 {
	n := len(terms)
	if n == 1 {
		return terms[0]
	}
	k := 1
	for k*2 <= n {
		k *= 2
	}
	for half := k / 2; half > 0; half /= 2 {
		for i := 0; i < half; i++ {
			terms[i] = tr.opNode(op, terms[i], terms[i+half])
		}
	}
	if k == n {
		return terms[0]
	}
	return tr.opNode(op, terms[0], tr.reduceTree(op, terms[k:]))
}
