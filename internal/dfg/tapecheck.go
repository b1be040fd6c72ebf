package dfg

import (
	"fmt"
	"os"
)

// This file implements the tape's static self-verification: a structural
// audit of a compiled Tape against the graph it was lowered from. CompileTape
// constructs tapes that pass by construction; Check exists so the
// verification layer (internal/check, `cosmicc vet`) can prove that — and so
// corruption anywhere between lowering and evaluation is caught before it
// silently produces wrong gradients.

// debugCheck enables the self-audit at tape-construction time. It is the
// same flag `cosmicc vet` and core.BuildProgram honor, so one environment
// variable turns the whole stack's artifact verification on.
var debugCheck = os.Getenv("COSMIC_VET") != ""

// Check audits the tape against g and returns one human-readable issue per
// violation (empty means the tape is a faithful lowering). It verifies:
//
//   - arena geometry: one slot per graph node, template sized to match;
//   - instructions: known opcodes with correct arity, destination slots that
//     are compute nodes carrying the same op, operand slots in-bounds and
//     strictly below the destination (the topological property Eval's
//     single pass relies on);
//   - constants: the template holds exactly the OpConst values at their
//     slots and zero elsewhere;
//   - bindings: every DATA/MODEL leaf is loaded exactly once, from its own
//     symbol at its own element index, with minLen covering every load;
//   - outputs: the gather lists name every gradient symbol and collect the
//     exact producing nodes, in flat element order.
func (t *Tape) Check(g *Graph) []string {
	var issues []string
	bad := func(format string, args ...any) {
		issues = append(issues, fmt.Sprintf(format, args...))
	}
	if t.nSlots != len(g.Nodes) {
		bad("tape has %d slots, graph has %d nodes", t.nSlots, len(g.Nodes))
		return issues
	}
	if len(t.template) != t.nSlots {
		bad("template has %d entries, want %d", len(t.template), t.nSlots)
		return issues
	}

	// Instructions: one per compute node, in slot order.
	if len(t.instrs) != g.NumOps() {
		bad("tape has %d instructions, graph has %d compute nodes", len(t.instrs), g.NumOps())
	}
	covered := make([]bool, t.nSlots)
	for i := range t.instrs {
		in := &t.instrs[i]
		if in.dst < 0 || int(in.dst) >= t.nSlots {
			bad("instr %d: destination slot %d out of range", i, in.dst)
			continue
		}
		n := &g.Nodes[in.dst]
		if n.Op.IsLeaf() {
			bad("instr %d: destination slot %d is a %s leaf", i, in.dst, n.Op)
			continue
		}
		if covered[in.dst] {
			bad("instr %d: destination slot %d written twice", i, in.dst)
		}
		covered[in.dst] = true
		if in.op != n.Op {
			bad("instr %d: op %s but node %d is %s", i, in.op, in.dst, n.Op)
		}
		ops := []int32{in.a, in.b, in.c}
		for k, a := range n.Args() {
			if ops[k] != a {
				bad("instr %d: operand %d is slot %d, node %d wants %d", i, k, ops[k], in.dst, a)
			}
		}
		for k, s := range ops {
			if k < int(n.Arity) {
				if s < 0 || s >= in.dst {
					bad("instr %d: operand slot %d not strictly before destination %d", i, s, in.dst)
				}
			} else if s != -1 {
				bad("instr %d: unused operand %d is %d, want -1", i, k, s)
			}
		}
	}

	// Constants: template holds Const values at const slots, zero elsewhere.
	for i := range g.Nodes {
		switch n := &g.Nodes[i]; {
		case n.Op == OpConst:
			if t.template[i] != n.Const {
				bad("template slot %d holds %g, const node wants %g", i, t.template[i], n.Const)
			}
		case t.template[i] != 0:
			bad("template slot %d holds %g but node is not a constant", i, t.template[i])
		}
	}

	t.checkBindings(g, OpData, t.data, bad)
	t.checkBindings(g, OpModel, t.model, bad)

	// Outputs: sorted names covering every gradient symbol, slots matching
	// the producing nodes element-for-element.
	if len(t.outs) != len(g.Outputs) {
		bad("tape gathers %d outputs, graph has %d", len(t.outs), len(g.Outputs))
	}
	prev := ""
	for _, o := range t.outs {
		if o.name <= prev && prev != "" {
			bad("output %q out of sorted order", o.name)
		}
		prev = o.name
		ids, ok := g.Outputs[o.name]
		if !ok {
			bad("tape gathers unknown output %q", o.name)
			continue
		}
		if len(o.slots) != len(ids) {
			bad("output %q gathers %d slots, graph has %d elements", o.name, len(o.slots), len(ids))
			continue
		}
		for i, s := range o.slots {
			if ids[i] < 0 {
				bad("output %s[%d] has no producing node", o.name, i)
			} else if s != ids[i] {
				bad("output %s[%d] gathered from slot %d, want node %d", o.name, i, s, ids[i])
			}
		}
	}
	return issues
}

// checkBindings audits one side (data or model) of the binding plan. The
// graph's nodes are the authority (leaf tables may legitimately be absent
// on hand-built graphs; check.Graph audits those against the DSL unit).
func (t *Tape) checkBindings(g *Graph, kind Op, syms []symBinding, bad func(string, ...any)) {
	side := "data"
	if kind == OpModel {
		side = "model"
	}
	loaded := make(map[int32]bool, t.nSlots)
	for i := range syms {
		sb := &syms[i]
		for _, ld := range sb.loads {
			if ld.slot < 0 || int(ld.slot) >= t.nSlots {
				bad("%s binding %q: load slot %d out of range", side, sb.name, ld.slot)
				continue
			}
			n := &g.Nodes[ld.slot]
			if n.Op != kind || g.Var(ld.slot) != sb.name || n.Index != ld.elem {
				bad("%s binding %q: slot %d loads element %d, node is %s %s[%d]",
					side, sb.name, ld.slot, ld.elem, n.Op, g.Var(ld.slot), n.Index)
			}
			if int(ld.elem) >= sb.minLen {
				bad("%s binding %q: element %d not covered by minLen %d", side, sb.name, ld.elem, sb.minLen)
			}
			if loaded[ld.slot] {
				bad("%s binding %q: slot %d loaded twice", side, sb.name, ld.slot)
			}
			loaded[ld.slot] = true
		}
	}
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Op == kind && !loaded[int32(i)] {
			bad("%s leaf %s[%d] (slot %d) never loaded by any binding", side, g.Var(int32(i)), n.Index, i)
		}
	}
}
