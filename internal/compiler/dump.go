package compiler

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dfg"
)

// DumpSchedule writes a human-readable listing of the static schedule: the
// per-PE operation programs, the data/model placement summary, and the
// memory interface schedule — the artifacts a hardware engineer would
// inspect before signing off on generated control logic.
func (p *Program) DumpSchedule(w io.Writer) error {
	fmt.Fprintf(w, "schedule: %s mapping on %s\n", p.Style, p.Plan)
	fmt.Fprintf(w, "  %d compute ops over %d PEs/thread (%d rows x %d cols), %d threads\n",
		len(p.IssueOrder), p.NPE, p.Rows, p.Columns, p.Plan.Threads)
	fmt.Fprintf(w, "  stream: %d data words, %d model words, %d gradient words\n",
		len(p.DataStream), len(p.ModelStream), p.Graph.GradientWords())
	fmt.Fprintf(w, "  inter-PE transfers: %d\n\n", p.CommunicationCost())

	// Busiest PEs first; quiet PEs are summarized.
	type peLoad struct{ pe, ops int }
	loads := make([]peLoad, 0, p.NPE)
	for pe, ops := range p.PEOps {
		if len(ops)+len(p.GradAccum[pe]) > 0 {
			loads = append(loads, peLoad{pe, len(ops) + len(p.GradAccum[pe])})
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].ops != loads[j].ops {
			return loads[i].ops > loads[j].ops
		}
		return loads[i].pe < loads[j].pe
	})
	const showPEs = 4
	const showOps = 12
	for i, l := range loads {
		if i >= showPEs {
			fmt.Fprintf(w, "... %d more active PEs\n", len(loads)-showPEs)
			break
		}
		fmt.Fprintf(w, "PE %d (row %d, col %d): %d ops", l.pe, p.RowOf(l.pe), p.ColOf(l.pe), l.ops)
		if n := len(p.GradAccum[l.pe]); n > 0 {
			fmt.Fprintf(w, " (+%d gradient accumulations)", n)
		}
		fmt.Fprintln(w)
		for k, id := range p.PEOps[l.pe] {
			if k >= showOps {
				fmt.Fprintf(w, "    ... %d more\n", len(p.PEOps[l.pe])-showOps)
				break
			}
			fmt.Fprintf(w, "    %3d: %-8s %s\n", k, p.Graph.Nodes[id].Op, describeArgs(p, int32(id)))
		}
	}

	fmt.Fprintf(w, "\nmemory schedule (%d entries):\n", len(p.MemSchedule))
	const showEntries = 8
	for i, e := range p.MemSchedule {
		if i >= showEntries {
			fmt.Fprintf(w, "  ... %d more entries\n", len(p.MemSchedule)-showEntries)
			break
		}
		kind := "read "
		if e.Write {
			kind = "write"
		}
		if e.Broadcast {
			kind = "bcast"
		}
		fmt.Fprintf(w, "  %3d: %s base-PE %-4d size %d\n", i, kind, e.BasePE, e.Size)
	}
	return nil
}

// describeArgs renders a node's operands with their placements.
func describeArgs(p *Program, id int32) string {
	g := p.Graph
	s := ""
	for i, a := range g.Nodes[id].Args() {
		if i > 0 {
			s += ", "
		}
		switch an := &g.Nodes[a]; an.Op {
		case dfg.OpConst:
			s += fmt.Sprintf("#%g", an.Const)
		case dfg.OpData, dfg.OpModel:
			s += fmt.Sprintf("%s[%d]@pe%d", g.Var(a), an.Index, p.PE[a])
		default:
			place := "local"
			if p.PE[a] != p.PE[id] {
				place = fmt.Sprintf("pe%d", p.PE[a])
			}
			s += fmt.Sprintf("t%d@%s", a, place)
		}
	}
	return s
}
