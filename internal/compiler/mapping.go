package compiler

import "repro/internal/dfg"

// readyHeap is a max-heap of ready compute nodes ordered by Height (longest
// dependence chain first — the Compiler "prioritizes scheduling operations
// that have the longest dependence chain"), breaking ties by node ID for
// determinism. Each entry packs both into one key, Height above the
// complemented ID, so that the larger key is the node to issue first.
type readyHeap []uint64

func readyKey(g *dfg.Graph, id int32) uint64 {
	return uint64(g.Nodes[id].Height)<<32 | uint64(^uint32(id))
}

func (h *readyHeap) push(k uint64) {
	*h = append(*h, k)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] >= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *readyHeap) pop() int32 {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1] > q[c] {
			c++
		}
		if q[i] >= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return int32(^uint32(top))
}

// priorityOrder returns the compute node IDs in the order both mappers visit
// them: a topological traversal in priority order, each node after all its
// compute arguments. The order is a property of the graph — readiness and
// priority never look at a placement — so it is also every program's
// IssueOrder. Keys are unique, so the order does not depend on how the heap
// breaks ties.
func priorityOrder(g *dfg.Graph) []int {
	nodes := g.Nodes
	pending := make([]int32, len(nodes))
	var ready readyHeap
	ops := 0
	for i := range nodes {
		n := &nodes[i]
		if n.Op.IsLeaf() {
			continue
		}
		ops++
		var cnt int32
		for _, a := range n.Args() {
			if !nodes[a].Op.IsLeaf() {
				cnt++
			}
		}
		pending[i] = cnt
		if cnt == 0 {
			ready.push(readyKey(g, int32(i)))
		}
	}
	order := make([]int, 0, ops)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, int(id))
		for _, c := range g.Consumers(id) {
			pending[c]--
			if pending[c] == 0 {
				ready.push(readyKey(g, c))
			}
		}
	}
	return order
}

// mapCoSMIC is Algorithm 1: data-first, minimum-communication mapping.
// Training data has already been pinned by placeData; this pass walks the
// DFG in dependence order and maps each operation to the PE that holds its
// operands, placing model parameters next to their consumers on the way.
// load counts the operations mapped to each PE so far.
func (p *Program) mapCoSMIC() {
	nodes := p.Graph.Nodes
	load := make([]int32, p.NPE)
	rr := 0 // the PE_i round-robin counter of Algorithm 1
	for _, id := range p.IssueOrder {
		args := nodes[id].Args()
		pe := -1

		// Step 3: an operand of type DATA anchors the operation. When
		// several operands are DATA (e.g. y·xᵢ pairs a scalar label with a
		// vector element), follow the least-loaded one — anchoring on the
		// scalar would serialize every instance onto its PE.
		for _, a := range args {
			if nodes[a].Op == dfg.OpData {
				cand := p.PE[a]
				if pe < 0 || load[cand] < load[pe] {
					pe = cand
				}
			}
		}
		if pe >= 0 {
			// Co-locate any unplaced MODEL operand with the operation.
			for _, a := range args {
				if nodes[a].Op == dfg.OpModel && p.PE[a] < 0 {
					p.PE[a] = pe
				}
			}
		}

		// Step 4: otherwise a MODEL operand anchors it (placing the model
		// parameter round-robin if it has no home yet — incremental
		// assignment "enables parallel execution of the operations in
		// neighboring PEs"). Among several placed MODEL operands, follow
		// the least loaded.
		if pe < 0 {
			for _, a := range args {
				if nodes[a].Op == dfg.OpModel && p.PE[a] >= 0 {
					cand := p.PE[a]
					if pe < 0 || load[cand] < load[pe] {
						pe = cand
					}
				}
			}
			if pe < 0 {
				for _, a := range args {
					if nodes[a].Op == dfg.OpModel {
						p.PE[a] = rr
						rr = (rr + 1) % p.NPE
						pe = p.PE[a]
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
			for _, a := range args {
				if !nodes[a].Op.IsLeaf() && p.PE[a] >= 0 {
					cand := p.PE[a]
					if pe < 0 || load[cand] < load[pe] {
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

		p.PE[id] = pe
		load[pe]++
	}
	p.fillPEOps(load)
}

// fillPEOps lists each PE's operations in issue order: load[pe] is the
// number of operations the mapper put on pe.
func (p *Program) fillPEOps(load []int32) {
	p.PEOps = carve(load)
	for _, id := range p.IssueOrder {
		pe := p.PE[id]
		p.PEOps[pe] = append(p.PEOps[pe], id)
	}
}

// carve returns one empty list per count, each with room for exactly its
// count, all cut from one backing array.
func carve(counts []int32) [][]int {
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	backing := make([]int, total)
	lists := make([][]int, len(counts))
	off := 0
	for i, n := range counts {
		lists[i] = backing[off : off : off+int(n)]
		off += int(n)
	}
	return lists
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
	nodes := p.Graph.Nodes
	load := make([]int32, p.NPE)
	rr := 0
	for _, id := range p.IssueOrder {
		args := nodes[id].Args()
		// Candidate PEs: the operands' homes plus a rotating fallback.
		var candBuf [4]int
		cands := candBuf[:0]
		for _, a := range args {
			if nodes[a].Op != dfg.OpConst && p.PE[a] >= 0 {
				cands = append(cands, p.PE[a])
			}
		}
		cands = append(cands, rr)
		rr = (rr + 1) % p.NPE

		best, bestScore := -1, 1<<30
		for _, cand := range cands {
			score := int(load[cand])
			for _, a := range args {
				if nodes[a].Op != dfg.OpConst && p.PE[a] >= 0 && p.PE[a] != cand {
					score += tablaTransferPenalty
				}
			}
			if score < bestScore {
				best, bestScore = cand, score
			}
		}
		p.PE[id] = best
		load[best]++
		for _, a := range args {
			if nodes[a].Op == dfg.OpModel && p.PE[a] < 0 {
				p.PE[a] = best
			}
		}
	}
	// Any model parameter that is never consumed directly still needs a
	// home for broadcast.
	for _, leaves := range p.Graph.ModelLeaves {
		for _, id := range leaves {
			if id >= 0 && p.PE[id] < 0 {
				p.PE[id] = 0
			}
		}
	}
	p.fillPEOps(load)
}

// CommunicationCost counts the inter-PE value transfers the mapping implies:
// for every compute node, each argument living on a different PE is one
// transfer. The CoSMIC mapper exists to minimize this number; the Figure 17
// ablation reports it for both styles.
func (p *Program) CommunicationCost() int {
	nodes := p.Graph.Nodes
	cost := 0
	for i := range nodes {
		n := &nodes[i]
		if n.Op.IsLeaf() {
			continue
		}
		for _, a := range n.Args() {
			if nodes[a].Op == dfg.OpConst {
				continue
			}
			if p.PE[a] != p.PE[i] {
				cost++
			}
		}
	}
	return cost
}
