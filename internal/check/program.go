package check

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/dfg"
)

// Schedule audits the compiled static schedule against its graph: the
// compiler's own Validate invariants (placement consistency, IssueOrder a
// topological permutation of the compute nodes, per-PE programs exact
// subsequences of it), plus leaf placement, gradient-accumulation coverage,
// and the per-PE storage accounting against the chip budget.
func Schedule(p *compiler.Program) Diagnostics {
	var ds Diagnostics
	// Program.Validate is the single source of truth for the core schedule
	// invariants; check reuses it rather than re-deriving them.
	if err := p.Validate(); err != nil {
		ds.errorf(LayerSchedule, "program", "%v", err)
	}
	g := p.Graph

	// Placement: every node the schedule touches must live on a real PE.
	peOK := func(pe int) bool { return pe >= 0 && pe < p.NPE }
	for i := range g.Nodes {
		pe := p.PE[i]
		switch {
		case g.Nodes[i].Op.IsLeaf():
			// Constants are immediates (-1); referenced data/model leaves
			// must be pinned somewhere the memory interface can reach.
			if pe != -1 && !peOK(pe) {
				ds.errorf(LayerSchedule, nodeLoc(g, int32(i)), "placed on PE %d of %d", pe, p.NPE)
			}
		case !peOK(pe):
			ds.errorf(LayerSchedule, nodeLoc(g, int32(i)), "compute node on PE %d of %d", pe, p.NPE)
		}
	}

	// Streams: every entry must be a leaf of the right kind, placed, and
	// appear at most once (the memory interface delivers each word once).
	seen := map[int]bool{}
	for k, id := range p.DataStream {
		loc := fmt.Sprintf("data stream word %d", k)
		if id < 0 {
			continue // padding word
		}
		if id >= len(g.Nodes) || g.Nodes[id].Op != dfg.OpData {
			ds.errorf(LayerSchedule, loc, "entry %d is not a DATA leaf", id)
			continue
		}
		if seen[id] {
			ds.errorf(LayerSchedule, loc, "leaf %d streamed twice", id)
		}
		seen[id] = true
		if !peOK(p.PE[id]) {
			ds.errorf(LayerSchedule, loc, "streamed leaf %d is unplaced", id)
		}
	}
	for k, id := range p.ModelStream {
		loc := fmt.Sprintf("model stream word %d", k)
		if id < 0 || id >= len(g.Nodes) || g.Nodes[id].Op != dfg.OpModel {
			ds.errorf(LayerSchedule, loc, "entry %d is not a MODEL leaf", id)
			continue
		}
		if seen[id] {
			ds.errorf(LayerSchedule, loc, "leaf %d streamed twice", id)
		}
		seen[id] = true
		if !peOK(p.PE[id]) {
			ds.errorf(LayerSchedule, loc, "broadcast leaf %d is unplaced", id)
		}
	}

	// Gradient accumulation: every output node exactly once, on its own PE.
	accum := map[int]int{}
	for pe, ids := range p.GradAccum {
		for _, id := range ids {
			accum[id]++
			if owner := p.PE[id]; owner >= 0 && owner != pe {
				ds.errorf(LayerSchedule, fmt.Sprintf("gradaccum PE %d", pe), "output %d produced on PE %d", id, owner)
			}
		}
	}
	for name, outs := range g.Outputs {
		for i, o := range outs {
			if accum[int(o)] != 1 {
				ds.errorf(LayerSchedule, fmt.Sprintf("output %s[%d]", name, i), "accumulated %d times", accum[int(o)])
			}
		}
	}

	// Storage accounting: the per-PE partitions must sum to exactly the
	// graph's storage footprint, and the planned thread count must fit the
	// chip's buffer budget (the Planner's own bound, re-proved here).
	perPE := make([]int, p.NPE)
	for _, id := range p.DataStream {
		if id >= 0 && peOK(p.PE[id]) {
			perPE[p.PE[id]]++
		}
	}
	for _, id := range p.ModelStream {
		if id >= 0 && id < len(g.Nodes) && peOK(p.PE[id]) {
			perPE[p.PE[id]]++
		}
	}
	for i := range g.Nodes {
		if !g.Nodes[i].Op.IsLeaf() && peOK(p.PE[i]) {
			perPE[p.PE[i]]++
		}
	}
	total := 0
	for _, w := range perPE {
		total += w
	}
	if want := g.StorageWords(); total != want {
		ds.errorf(LayerSchedule, "storage", "per-PE partitions hold %d words, graph needs %d", total, want)
	}
	chip := p.Plan.Chip
	if budget := chip.StorageWords(); p.Plan.Threads*g.StorageWords() > budget {
		ds.errorf(LayerSchedule, "storage", "%d threads × %d words exceed %s's %d-word budget",
			p.Plan.Threads, g.StorageWords(), chip.Name, budget)
	}
	return ds
}

// MemSchedule audits the memory-interface schedule queue: every entry
// in-range and non-empty, and the word accounting exactly covering the model
// broadcast, the data stream, and the gradient write-back — no word
// delivered twice, none forgotten.
func MemSchedule(p *compiler.Program) Diagnostics {
	var ds Diagnostics
	var bcast, read, write int
	for i, e := range p.MemSchedule {
		loc := fmt.Sprintf("entry %d", i)
		if e.Size <= 0 {
			ds.errorf(LayerMemSched, loc, "empty transfer (size %d)", e.Size)
		}
		if e.Size > p.Columns {
			ds.errorf(LayerMemSched, loc, "size %d exceeds the %d-column interface", e.Size, p.Columns)
		}
		if e.BasePE < 0 || e.BasePE >= p.NPE {
			ds.errorf(LayerMemSched, loc, "base PE %d of %d", e.BasePE, p.NPE)
		}
		if e.Write && e.Broadcast {
			ds.errorf(LayerMemSched, loc, "transfer is both write-back and broadcast")
		}
		switch {
		case e.Broadcast:
			bcast += e.Size
		case e.Write:
			write += e.Size
		default:
			read += e.Size
		}
	}
	if bcast != len(p.ModelStream) {
		ds.errorf(LayerMemSched, "accounting", "broadcast words %d, model stream needs %d", bcast, len(p.ModelStream))
	}
	if read != len(p.DataStream) {
		ds.errorf(LayerMemSched, "accounting", "read words %d, data stream needs %d", read, len(p.DataStream))
	}
	if grads := p.Graph.GradientWords(); write != grads {
		ds.errorf(LayerMemSched, "accounting", "write-back words %d, gradient has %d", write, grads)
	}
	return ds
}
