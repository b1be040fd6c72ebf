package check

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/dsl"
)

// Graph audits the dataflow graph: structural validity (every argument ID
// lies before its consumer — which is the acyclicity proof, since every edge
// then points backward), a well-formed consumer table whose edges mirror
// the arguments, exact ASAP levels and heights, no orphan compute nodes,
// and binding-table completeness against the DSL unit's symbol table.
func Graph(g *dfg.Graph) Diagnostics {
	var ds Diagnostics
	if err := g.Validate(); err != nil {
		ds.errorf(LayerDFG, "graph", "%v", err)
		return ds // IDs unreliable; the remaining checks index by them
	}
	nodes := g.Nodes
	if err := consumerTableErr(g); err != nil {
		ds.errorf(LayerDFG, "consumers", "%v", err)
		return ds // the symmetry and height checks index through it
	}

	// Arg/consumer symmetry: the forward and backward edge sets must
	// describe the same graph, or level/height and the mappers (which walk
	// Consumers) silently disagree with evaluation (which walks Args).
	for i := range nodes {
		id := int32(i)
		for _, a := range nodes[i].Args() {
			if !containsID(g.Consumers(a), id) {
				ds.errorf(LayerDFG, nodeLoc(g, id), "argument %d does not list it as a consumer", a)
			}
		}
		for _, c := range g.Consumers(id) {
			if !containsID(nodes[c].Args(), id) {
				ds.errorf(LayerDFG, nodeLoc(g, id), "consumer %d does not list it as an argument", c)
			}
		}
	}

	// Exact level/height invariants (the scheduler's priority order and the
	// planner's width profile both read these).
	for i := range nodes {
		n, id := &nodes[i], int32(i)
		var lvl int32
		for _, a := range n.Args() {
			al := nodes[a].Level
			if !nodes[a].Op.IsLeaf() {
				al++
			}
			lvl = max(lvl, al)
		}
		if n.Level != lvl {
			ds.errorf(LayerDFG, nodeLoc(g, id), "level %d, want %d (ASAP)", n.Level, lvl)
		}
		var h int32
		for _, c := range g.Consumers(id) {
			h = max(h, nodes[c].Height+1)
		}
		if n.Height != h {
			ds.errorf(LayerDFG, nodeLoc(g, id), "height %d, want %d", n.Height, h)
		}
	}

	// Orphan compute nodes: a compute node must feed another node or be a
	// gradient output; anything else is dead work the mapper will still
	// schedule onto a PE.
	output := make([]bool, len(nodes))
	for _, outs := range g.Outputs {
		for _, o := range outs {
			output[o] = true
		}
	}
	for i := range nodes {
		if id := int32(i); !nodes[i].Op.IsLeaf() && len(g.Consumers(id)) == 0 && !output[i] {
			ds.errorf(LayerDFG, nodeLoc(g, id), "orphan compute node: no consumers and not an output")
		}
	}

	// Binding-table completeness per DSL unit: every data/model/gradient
	// symbol's table must exist with exactly Size() entries, and each leaf
	// must sit at its own element index.
	if g.Unit != nil {
		checkLeafTables(&ds, g, dsl.KindModelInput, g.DataLeaves)
		checkLeafTables(&ds, g, dsl.KindModelOutput, g.DataLeaves)
		checkLeafTables(&ds, g, dsl.KindModel, g.ModelLeaves)
		grads := map[string]bool{}
		for _, sym := range g.Unit.SymbolsOfKind(dsl.KindGradient) {
			grads[sym.Name] = true
			outs, ok := g.Outputs[sym.Name]
			if !ok {
				ds.errorf(LayerDFG, "output "+sym.Name, "gradient symbol has no output table")
				continue
			}
			if len(outs) != sym.Size() {
				ds.errorf(LayerDFG, "output "+sym.Name, "table has %d entries, symbol has %d elements", len(outs), sym.Size())
			}
		}
		for name := range g.Outputs {
			if !grads[name] {
				ds.errorf(LayerDFG, "output "+name, "output table for non-gradient symbol")
			}
		}
		order := map[string]bool{}
		for _, name := range g.OutputOrder {
			order[name] = true
		}
		if len(g.OutputOrder) != len(g.Outputs) {
			ds.errorf(LayerDFG, "outputs", "OutputOrder lists %d symbols, Outputs holds %d", len(g.OutputOrder), len(g.Outputs))
		}
		for name := range grads {
			if !order[name] {
				ds.errorf(LayerDFG, "output "+name, "gradient symbol missing from OutputOrder")
			}
		}
	}
	return ds
}

// consumerTableErr reports a consumer table that cannot be indexed: one
// offset per node plus one, starting at 0, never decreasing, ending at the
// ID list's length, with every ID naming a node.
func consumerTableErr(g *dfg.Graph) error {
	off, ids := g.ConsumerOff, g.ConsumerIDs
	if len(off) != len(g.Nodes)+1 {
		return fmt.Errorf("offset table has %d entries, want %d", len(off), len(g.Nodes)+1)
	}
	if off[0] != 0 || int(off[len(off)-1]) != len(ids) {
		return fmt.Errorf("offsets span [%d,%d), the table holds %d IDs", off[0], off[len(off)-1], len(ids))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offset %d decreases", i)
		}
	}
	for k, c := range ids {
		if c < 0 || int(c) >= len(g.Nodes) {
			return fmt.Errorf("entry %d names node %d of %d", k, c, len(g.Nodes))
		}
	}
	return nil
}

// checkLeafTables audits the leaf tables of one symbol kind against the
// unit: table length matches the symbol extent, and every present leaf
// carries its own (symbol, Index) identity.
func checkLeafTables(ds *Diagnostics, g *dfg.Graph, kind dsl.VarKind, tables map[string][]int32) {
	leafOp := dfg.OpData
	if kind == dsl.KindModel {
		leafOp = dfg.OpModel
	}
	for _, sym := range g.Unit.SymbolsOfKind(kind) {
		leaves, ok := tables[sym.Name]
		if !ok {
			// Legal — the words still stream and are discarded by the
			// shifter — but worth surfacing: it is usually a typo in the DSL.
			ds.warnf(LayerDFG, "leaf "+sym.Name, "%s symbol is never referenced; its words stream as padding", sym.Kind)
			continue
		}
		loc := "leaf " + sym.Name
		if len(leaves) != sym.Size() {
			ds.errorf(LayerDFG, loc, "table has %d entries, symbol has %d elements", len(leaves), sym.Size())
			continue
		}
		for i, id := range leaves {
			if id < 0 {
				continue
			}
			if int(id) >= len(g.Nodes) {
				ds.errorf(LayerDFG, loc, "entry %d is node %d of %d", i, id, len(g.Nodes))
				continue
			}
			if leaf := &g.Nodes[id]; leaf.Op != leafOp || g.Var(id) != sym.Name || int(leaf.Index) != i {
				ds.errorf(LayerDFG, loc, "entry %d is %s %s[%d]", i, leaf.Op, g.Var(id), leaf.Index)
			}
		}
	}
}

func containsID(ids []int32, want int32) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func nodeLoc(g *dfg.Graph, id int32) string { return fmt.Sprintf("node %d (%s)", id, g.Nodes[id].Op) }
