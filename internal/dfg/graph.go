// Package dfg implements CoSMIC's Translator: it elaborates an analyzed DSL
// program into a Dataflow Graph (DFG) of scalar operations, the intermediate
// representation consumed by the Planner (architecture layer) and the
// Compiler (mapping/scheduling layer).
//
// Nodes produce exactly one value. Leaf nodes carry training data (DATA),
// model parameters (MODEL) or constants; interior nodes are arithmetic,
// comparison, select, or nonlinear operations; nodes assigned to gradient
// variables are the graph's outputs. Reductions (Σ, Π) are expanded into
// balanced binary trees, mirroring the logarithmic-depth reduction the
// template architecture's tree bus performs in hardware.
package dfg

import (
	"fmt"
	"sort"

	"repro/internal/dsl"
)

// Op enumerates DFG operation kinds.
type Op uint8

// DFG operations. OpData/OpModel/OpConst are leaves.
const (
	OpData Op = iota
	OpModel
	OpConst
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpGT
	OpLT
	OpGE
	OpLE
	OpEQ
	OpNE
	OpSelect // Args[0] ? Args[1] : Args[2]
	OpSigmoid
	OpGaussian
	OpLog
	OpExp
	OpSqrt
	OpTanh
	OpRelu
	OpAbs
	OpSign
)

var opNames = [...]string{
	OpData: "data", OpModel: "model", OpConst: "const",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpNeg: "neg",
	OpGT: ">", OpLT: "<", OpGE: ">=", OpLE: "<=", OpEQ: "==", OpNE: "!=",
	OpSelect: "select", OpSigmoid: "sigmoid", OpGaussian: "gaussian",
	OpLog: "log", OpExp: "exp", OpSqrt: "sqrt", OpTanh: "tanh",
	OpRelu: "relu", OpAbs: "abs", OpSign: "sign",
}

// String returns the operation's printable name.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// IsLeaf reports whether the op is a graph input (no computation).
func (op Op) IsLeaf() bool { return op == OpData || op == OpModel || op == OpConst }

// IsNonlinear reports whether the op is implemented by the PE's lookup-table
// nonlinear unit rather than its ALU.
func (op Op) IsNonlinear() bool {
	switch op {
	case OpSigmoid, OpGaussian, OpLog, OpExp, OpSqrt, OpTanh, OpDiv:
		return true
	}
	return false
}

// Node is a single DFG vertex producing one scalar value. A node's ID is its
// index in Graph.Nodes, and its arguments are IDs too, so the node table
// holds no pointers: it is one allocation the garbage collector never scans.
type Node struct {
	// Const holds the literal value for OpConst leaves.
	Const float64
	// Arg holds the argument IDs; the first Arity entries are set.
	Arg [3]int32
	// Sym and Index identify the symbol element of an OpData/OpModel leaf:
	// element Index of Graph.Symbols[Sym]. Sym is 0, the empty name, on
	// every other node.
	Sym   int32
	Index int32

	// Level is the node's ASAP depth (leaves at 0). Height is the longest
	// path from this node to any output, used as scheduling priority (the
	// Compiler "prioritizes scheduling operations that have the longest
	// dependence chain").
	Level  int32
	Height int32

	Op    Op
	Arity uint8
}

// Args returns the node's argument IDs.
func (n *Node) Args() []int32 { return n.Arg[:n.Arity] }

// Graph is an elaborated dataflow graph for one worker thread's gradient
// computation.
type Graph struct {
	// Nodes in creation order; creation order is topological (arguments
	// always precede their consumers).
	Nodes []Node
	// Symbols interns the leaves' symbol names; Symbols[0] is "".
	Symbols []string
	// ConsumerOff and ConsumerIDs list every node's consumers in CSR form:
	// node i's consumers are ConsumerIDs[ConsumerOff[i]:ConsumerOff[i+1]],
	// in creation order, once per argument slot that reads node i (x*x
	// lists its consumer twice). Link fills them.
	ConsumerOff []int32
	ConsumerIDs []int32
	// DataLeaves and ModelLeaves index leaf node IDs by symbol name, in
	// flat element order (-1 for an element never referenced).
	DataLeaves  map[string][]int32
	ModelLeaves map[string][]int32
	// Outputs maps each gradient symbol to its element-producing node IDs
	// in flat element order.
	Outputs map[string][]int32
	// OutputOrder lists gradient symbol names in declaration order.
	OutputOrder []string
	Unit        *dsl.Unit
}

// Consumers returns the IDs of the nodes that read node id's value.
func (g *Graph) Consumers(id int32) []int32 {
	return g.ConsumerIDs[g.ConsumerOff[id]:g.ConsumerOff[id+1]]
}

// Var returns the symbol name of a leaf node ("" for any other node).
func (g *Graph) Var(id int32) string {
	if s := g.Nodes[id].Sym; s > 0 {
		return g.Symbols[s]
	}
	return ""
}

// Link derives everything the node table implies: the consumer lists, and
// each node's Level and Height. The translator calls it once; a graph built
// or edited by hand calls it before use.
func (g *Graph) Link() {
	nodes := g.Nodes
	off := make([]int32, len(nodes)+1)
	for i := range nodes {
		for _, a := range nodes[i].Args() {
			off[a+1]++
		}
	}
	for i := range nodes {
		off[i+1] += off[i]
	}
	ids := make([]int32, off[len(nodes)])
	next := make([]int32, len(nodes))
	copy(next, off)
	for i := range nodes {
		for _, a := range nodes[i].Args() {
			ids[next[a]] = int32(i)
			next[a]++
		}
	}
	g.ConsumerOff, g.ConsumerIDs = off, ids

	// Creation order is topological, so a single forward and a single
	// backward pass fill in levels and heights.
	for i := range nodes {
		n := &nodes[i]
		var lvl int32
		for _, a := range n.Args() {
			al := nodes[a].Level
			if !nodes[a].Op.IsLeaf() {
				al++ // a compute arg adds a pipeline step
			}
			lvl = max(lvl, al)
		}
		n.Level = lvl
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		var h int32
		for _, c := range ids[off[i]:off[i+1]] {
			h = max(h, nodes[c].Height+1)
		}
		nodes[i].Height = h
	}
}

// NumOps returns the number of compute (non-leaf) nodes.
func (g *Graph) NumOps() int {
	n := 0
	for i := range g.Nodes {
		if !g.Nodes[i].Op.IsLeaf() {
			n++
		}
	}
	return n
}

// OpCensus returns compute-node counts per operation.
func (g *Graph) OpCensus() map[Op]int {
	c := map[Op]int{}
	for i := range g.Nodes {
		if op := g.Nodes[i].Op; !op.IsLeaf() {
			c[op]++
		}
	}
	return c
}

// HasNonlinear reports whether any node requires the LUT nonlinear unit.
func (g *Graph) HasNonlinear() bool {
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsNonlinear() {
			return true
		}
	}
	return false
}

// CriticalPath returns the longest compute-node chain in the graph, the
// lower bound on single-thread latency.
func (g *Graph) CriticalPath() int {
	var cp int32
	for i := range g.Nodes {
		cp = max(cp, g.Nodes[i].Level)
	}
	return int(cp)
}

// WidthProfile returns, per ASAP level, the number of compute nodes at that
// level: the fine-grained parallelism profile that bounds how many PEs a
// single thread can keep busy.
func (g *Graph) WidthProfile() []int {
	prof := make([]int, g.CriticalPath()+1)
	for i := range g.Nodes {
		if n := &g.Nodes[i]; !n.Op.IsLeaf() {
			prof[n.Level]++
		}
	}
	return prof
}

// MaxWidth returns the maximum of the width profile.
func (g *Graph) MaxWidth() int {
	max := 0
	for _, w := range g.WidthProfile() {
		if w > max {
			max = w
		}
	}
	return max
}

// AvgWidth returns the mean compute width per level, a measure of how much
// fine-grained parallelism a single thread exposes.
func (g *Graph) AvgWidth() float64 {
	cp := g.CriticalPath()
	if cp == 0 {
		return 0
	}
	return float64(g.NumOps()) / float64(cp)
}

// StorageWords estimates the per-thread on-chip storage footprint in words:
// one word per referenced data element, model parameter, and live interim
// value. The Planner uses this as DFG.storage() when bounding thread count.
func (g *Graph) StorageWords() int {
	return g.DataWords() + g.ModelWords() + g.NumOps()
}

// DataWords returns the number of distinct training-data elements the graph
// reads per input vector.
func (g *Graph) DataWords() int { return countLeaves(g.DataLeaves) }

// ModelWords returns the number of distinct model parameters the graph
// reads.
func (g *Graph) ModelWords() int { return countLeaves(g.ModelLeaves) }

// countLeaves counts the referenced elements of a leaf table.
func countLeaves(tables map[string][]int32) int {
	n := 0
	for _, leaves := range tables {
		for _, id := range leaves {
			if id >= 0 {
				n++
			}
		}
	}
	return n
}

// GradientWords returns the total number of gradient output elements.
func (g *Graph) GradientWords() int {
	n := 0
	for _, outs := range g.Outputs {
		n += len(outs)
	}
	return n
}

// Validate checks structural invariants: creation order is topological
// (every argument ID lies before its consumer), leaves take no arguments,
// symbol IDs are in range, and every output names a node. It returns the
// first violation found.
func (g *Graph) Validate() error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if int(n.Arity) > len(n.Arg) {
			return fmt.Errorf("dfg: node %d has arity %d", i, n.Arity)
		}
		for _, a := range n.Args() {
			if a < 0 || int(a) >= i {
				return fmt.Errorf("dfg: node %d consumes later node %d", i, a)
			}
		}
		if n.Op.IsLeaf() && n.Arity != 0 {
			return fmt.Errorf("dfg: leaf node %d has arguments", i)
		}
		if n.Sym < 0 || (n.Sym > 0 && int(n.Sym) >= len(g.Symbols)) {
			return fmt.Errorf("dfg: node %d has symbol %d of %d", i, n.Sym, len(g.Symbols))
		}
	}
	for name, outs := range g.Outputs {
		for i, o := range outs {
			if o < 0 || int(o) >= len(g.Nodes) {
				return fmt.Errorf("dfg: output %s[%d] is node %d of %d", name, i, o, len(g.Nodes))
			}
		}
	}
	return nil
}

// SortedOutputNames returns gradient symbol names sorted, for deterministic
// iteration when order does not matter semantically.
func (g *Graph) SortedOutputNames() []string {
	names := make([]string, 0, len(g.Outputs))
	for n := range g.Outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats summarizes the graph for reports and the Planner.
type Stats struct {
	Nodes        int
	ComputeOps   int
	DataWords    int
	ModelWords   int
	Gradients    int
	CriticalPath int
	MaxWidth     int
	AvgWidth     float64
	StorageWords int
	Nonlinear    bool
	MulOps       int
	AddSubOps    int
}

// Summary computes the graph's statistics.
func (g *Graph) Summary() Stats {
	census := g.OpCensus()
	return Stats{
		Nodes:        len(g.Nodes),
		ComputeOps:   g.NumOps(),
		DataWords:    g.DataWords(),
		ModelWords:   g.ModelWords(),
		Gradients:    g.GradientWords(),
		CriticalPath: g.CriticalPath(),
		MaxWidth:     g.MaxWidth(),
		AvgWidth:     g.AvgWidth(),
		StorageWords: g.StorageWords(),
		Nonlinear:    g.HasNonlinear(),
		MulOps:       census[OpMul],
		AddSubOps:    census[OpAdd] + census[OpSub],
	}
}
