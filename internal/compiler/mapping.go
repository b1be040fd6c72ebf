package compiler

import (
	"container/heap"

	"repro/internal/dfg"
)

// nodeHeap is a max-heap of ready compute nodes ordered by Height (longest
// dependence chain first — the Compiler "prioritizes scheduling operations
// that have the longest dependence chain"), breaking ties by node ID for
// determinism.
type nodeHeap []*dfg.Node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].Height != h[j].Height {
		return h[i].Height > h[j].Height
	}
	return h[i].ID < h[j].ID
}
func (h nodeHeap) Swap(i, j int)         { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)           { *h = append(*h, x.(*dfg.Node)) }
func (h *nodeHeap) Pop() any             { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }
func (h *nodeHeap) PushNode(n *dfg.Node) { heap.Push(h, n) }

// priorityOrder returns the compute node IDs in the order both mappers visit
// them: a topological traversal in priority order, each node after all its
// compute arguments. The order is a property of the graph — readiness and
// priority never look at a placement — so it is also every program's
// IssueOrder.
func priorityOrder(g *dfg.Graph) []int {
	pending := make([]int, len(g.Nodes))
	ready := &nodeHeap{}
	ops := 0
	for _, n := range g.Nodes {
		if n.Op.IsLeaf() {
			continue
		}
		ops++
		cnt := 0
		for _, a := range n.Args {
			if !a.Op.IsLeaf() {
				cnt++
			}
		}
		pending[n.ID] = cnt
		if cnt == 0 {
			ready.PushNode(n)
		}
	}
	order := make([]int, 0, ops)
	for ready.Len() > 0 {
		n := heap.Pop(ready).(*dfg.Node)
		order = append(order, n.ID)
		for _, c := range n.Consumers {
			pending[c.ID]--
			if pending[c.ID] == 0 {
				ready.PushNode(c)
			}
		}
	}
	return order
}

// mapCoSMIC is Algorithm 1: data-first, minimum-communication mapping.
// Training data has already been pinned by placeData; this pass walks the
// DFG in dependence order and maps each operation to the PE that holds its
// operands, placing model parameters next to their consumers on the way.
func (p *Program) mapCoSMIC() {
	rr := 0 // the PE_i round-robin counter of Algorithm 1
	for _, id := range p.IssueOrder {
		v := p.Graph.Nodes[id]
		pe := -1

		// Step 3: an operand of type DATA anchors the operation. When
		// several operands are DATA (e.g. y·xᵢ pairs a scalar label with a
		// vector element), follow the least-loaded one — anchoring on the
		// scalar would serialize every instance onto its PE.
		for _, a := range v.Args {
			if a.Op == dfg.OpData {
				cand := p.PE[a.ID]
				if pe < 0 || len(p.PEOps[cand]) < len(p.PEOps[pe]) {
					pe = cand
				}
			}
		}
		if pe >= 0 {
			// Co-locate any unplaced MODEL operand with the operation.
			for _, a := range v.Args {
				if a.Op == dfg.OpModel && p.PE[a.ID] < 0 {
					p.PE[a.ID] = pe
				}
			}
		}

		// Step 4: otherwise a MODEL operand anchors it (placing the model
		// parameter round-robin if it has no home yet — incremental
		// assignment "enables parallel execution of the operations in
		// neighboring PEs"). Among several placed MODEL operands, follow
		// the least loaded.
		if pe < 0 {
			for _, a := range v.Args {
				if a.Op == dfg.OpModel && p.PE[a.ID] >= 0 {
					cand := p.PE[a.ID]
					if pe < 0 || len(p.PEOps[cand]) < len(p.PEOps[pe]) {
						pe = cand
					}
				}
			}
			if pe < 0 {
				for _, a := range v.Args {
					if a.Op == dfg.OpModel {
						p.PE[a.ID] = rr
						rr = (rr + 1) % p.NPE
						pe = p.PE[a.ID]
						break
					}
				}
			}
		}

		// Step 5: otherwise follow an INTERIM operand. Among the operands'
		// PEs pick the least loaded one: any choice avoids a transfer for
		// that operand, and balancing keeps deep reduction trees from
		// piling every level onto one PE.
		if pe < 0 {
			for _, a := range v.Args {
				if !a.Op.IsLeaf() && p.PE[a.ID] >= 0 {
					cand := p.PE[a.ID]
					if pe < 0 || len(p.PEOps[cand]) < len(p.PEOps[pe]) {
						pe = cand
					}
				}
			}
		}

		// Operations over constants alone go round-robin.
		if pe < 0 {
			pe = rr
			rr = (rr + 1) % p.NPE
		}

		p.PE[v.ID] = pe
		p.PEOps[pe] = append(p.PEOps[pe], v.ID)
	}
}

// tablaTransferPenalty is the greedy scheduler's estimate of one operand
// transfer, in load units.
const tablaTransferPenalty = 4

// mapTABLA is the baseline operation-first mapper modeled on TABLA's
// scheduler: a latency-greedy list scheduler that weighs each candidate
// PE's queue length against the transfers the placement would cost, one
// operation at a time ("map operations before the data to find the
// lowest-latency schedule"). It is locally sensible but — unlike Algorithm
// 1 — never plans data placement globally, and its template's flat bus
// hierarchy (8-PE group buses under one global bus) is what Figure 17
// charges at UltraScale+ scale.
func (p *Program) mapTABLA() {
	rr := 0
	for _, id := range p.IssueOrder {
		v := p.Graph.Nodes[id]
		// Candidate PEs: the operands' homes plus a rotating fallback.
		cands := make([]int, 0, len(v.Args)+1)
		for _, a := range v.Args {
			if a.Op != dfg.OpConst && p.PE[a.ID] >= 0 {
				cands = append(cands, p.PE[a.ID])
			}
		}
		cands = append(cands, rr)
		rr = (rr + 1) % p.NPE

		best, bestScore := -1, 1<<30
		for _, cand := range cands {
			score := len(p.PEOps[cand])
			for _, a := range v.Args {
				if a.Op != dfg.OpConst && p.PE[a.ID] >= 0 && p.PE[a.ID] != cand {
					score += tablaTransferPenalty
				}
			}
			if score < bestScore {
				best, bestScore = cand, score
			}
		}
		p.PE[v.ID] = best
		p.PEOps[best] = append(p.PEOps[best], v.ID)
		for _, a := range v.Args {
			if a.Op == dfg.OpModel && p.PE[a.ID] < 0 {
				p.PE[a.ID] = best
			}
		}
	}
	// Any model parameter that is never consumed directly still needs a
	// home for broadcast.
	for _, leaves := range p.Graph.ModelLeaves {
		for _, leaf := range leaves {
			if leaf != nil && p.PE[leaf.ID] < 0 {
				p.PE[leaf.ID] = 0
			}
		}
	}
}

// CommunicationCost counts the inter-PE value transfers the mapping implies:
// for every compute node, each argument living on a different PE is one
// transfer. The CoSMIC mapper exists to minimize this number; the Figure 17
// ablation reports it for both styles.
func (p *Program) CommunicationCost() int {
	cost := 0
	for _, n := range p.Graph.Nodes {
		if n.Op.IsLeaf() {
			continue
		}
		for _, a := range n.Args {
			if a.Op == dfg.OpConst {
				continue
			}
			if p.PE[a.ID] != p.PE[n.ID] {
				cost++
			}
		}
	}
	return cost
}
