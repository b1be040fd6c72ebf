// Package compiler implements CoSMIC's compilation layer: the static
// mapping and scheduling of a dataflow graph onto the planned multi-threaded
// template accelerator.
//
// The centerpiece is the paper's Algorithm 1, a minimum-communication
// mapping that places *data before operations*: training-data elements are
// pinned to the PEs their memory-interface column feeds (so no marshaling is
// ever needed), then operations are mapped onto the PEs that already hold
// their operands, and model parameters onto the PEs of their consuming
// operations. A TABLA-style operation-first mapper is provided as the
// baseline for the paper's Figure 17 comparison.
//
// Because every thread executes the same gradient DFG on a different data
// sub-partition, the compiler maps and schedules one thread; the memory
// interface replays the single schedule per thread through the Thread Index
// Table (PE offset + data base address).
package compiler

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// Style selects the mapping algorithm.
type Style int

// Mapping styles.
const (
	// StyleCoSMIC is the paper's Algorithm 1: data-first,
	// minimum-communication mapping onto the tree-bus template.
	StyleCoSMIC Style = iota
	// StyleTABLA is the baseline: operation-first, latency-balancing
	// mapping onto a single-shared-bus template (the prior work's design).
	StyleTABLA
)

// String names the style.
func (s Style) String() string {
	if s == StyleTABLA {
		return "TABLA"
	}
	return "CoSMIC"
}

// Interconnect identifies the on-chip interconnect the schedule assumes.
type Interconnect int

// Interconnect kinds.
const (
	// TreeBus is CoSMIC's template: bidirectional neighbor links, a shared
	// bus per row, and a tree bus (with reduction ALUs) across rows.
	TreeBus Interconnect = iota
	// FlatBus is TABLA's template: one shared bus across all PEs.
	FlatBus
)

// MemEntry is one entry of the programmable memory interface's Memory
// Schedule queue (Section 5.2): the base PE index the transfer targets, the
// direction, whether the transfer is broadcast to all threads, and its size
// in words. At runtime the interface adds each thread's PE Offset from the
// Thread Index Table.
type MemEntry struct {
	BasePE    int
	Write     bool // true = accelerator writes back to memory
	Broadcast bool // true = one read delivered to all worker threads
	Size      int
}

// Program is the compiled artifact for one worker thread: placement of data,
// model parameters and operations, per-PE issue order, and the memory
// interface schedule. All threads share it (MIMD execution differs only in
// base addresses and PE offsets). A Program is read-only once compiled:
// programs of one Prepared graph share IssueOrder, DataStream and
// ModelStream, and the Planner's design points of one mapping share the rest.
type Program struct {
	Plan         arch.Plan
	Graph        *dfg.Graph
	Style        Style
	Interconnect Interconnect

	// NPE is the number of PEs per thread (Plan.PEsPerThread()).
	NPE int
	// Columns and Rows describe the thread's PE sub-array shape.
	Columns, Rows int

	// PE[nodeID] is the PE index (within the thread) that holds the node's
	// value: for DATA/MODEL leaves the buffer that stores the element, for
	// compute nodes the PE that executes the operation. Constants are
	// immediates and carry -1.
	PE []int

	// PEOps[pe] lists compute node IDs in the static issue order of that
	// PE's scheduler.
	PEOps [][]int

	// IssueOrder lists all compute node IDs in the global mapping order (a
	// topological order of the DFG); each PE's PEOps list is a subsequence
	// of it. Timing simulation walks this order.
	IssueOrder []int

	// DataStream lists DATA leaf node IDs in the order their words stream
	// from off-chip memory (the training vector's memory layout); entries
	// of -1 are padding words the shifter discards.
	DataStream []int
	// ModelStream lists MODEL leaf node IDs in broadcast order.
	ModelStream []int

	// GradAccum[pe] lists gradient output node IDs whose running sums the
	// PE accumulates locally after each training vector ("the accelerator
	// internally aggregates the partial gradients for all its worker
	// threads" — the per-PE halves of that work).
	GradAccum [][]int

	// MemSchedule is the Memory Schedule queue contents.
	MemSchedule []MemEntry
}

// Validate checks structural invariants of the compiled program.
func (p *Program) Validate() error {
	if p.NPE != p.Columns*p.Rows {
		return fmt.Errorf("compiler: NPE %d != %d cols × %d rows", p.NPE, p.Columns, p.Rows)
	}
	nodes := p.Graph.Nodes
	if len(p.PE) != len(nodes) {
		return fmt.Errorf("compiler: placement covers %d of %d nodes", len(p.PE), len(nodes))
	}
	// Node IDs are dense, so the bookkeeping below is indexed by ID: mark
	// first records which nodes some PE schedules, then 1 + each node's
	// index in IssueOrder (0 = not issued).
	mark := make([]int32, len(nodes))
	for pe, ops := range p.PEOps {
		if pe >= p.NPE {
			return fmt.Errorf("compiler: ops scheduled on PE %d of %d", pe, p.NPE)
		}
		for _, id := range ops {
			if id < 0 || id >= len(nodes) {
				return fmt.Errorf("compiler: PE %d schedules node %d, outside the graph", pe, id)
			}
			if mark[id] != 0 {
				return fmt.Errorf("compiler: node %d scheduled twice", id)
			}
			mark[id] = 1
			if p.PE[id] != pe {
				return fmt.Errorf("compiler: node %d on PE list %d but placed on %d", id, pe, p.PE[id])
			}
		}
	}
	numOps := 0
	for i := range nodes {
		if nodes[i].Op.IsLeaf() {
			continue
		}
		numOps++
		if mark[i] == 0 {
			return fmt.Errorf("compiler: compute node %d never scheduled", i)
		}
	}
	// IssueOrder must be a permutation of the compute nodes…
	clear(mark)
	pos := mark
	for i, id := range p.IssueOrder {
		if id < 0 || id >= len(nodes) || nodes[id].Op.IsLeaf() {
			return fmt.Errorf("compiler: issue order entry %d is not a compute node", id)
		}
		if pos[id] != 0 {
			return fmt.Errorf("compiler: node %d issued twice", id)
		}
		pos[id] = int32(i + 1)
	}
	if len(p.IssueOrder) != numOps {
		return fmt.Errorf("compiler: issue order covers %d of %d compute nodes", len(p.IssueOrder), numOps)
	}
	// …in a topological order: every compute operand — on any PE — is
	// issued before its consumer (global def-before-use).
	for i, id := range p.IssueOrder {
		for _, a := range nodes[id].Args() {
			if nodes[a].Op.IsLeaf() {
				continue
			}
			if int(pos[a]) > i+1 {
				return fmt.Errorf("compiler: node %d (PE %d) issued before operand %d (PE %d)",
					id, p.PE[id], a, p.PE[a])
			}
		}
	}
	// Each PE's program must be exactly its subsequence of the issue order
	// (the memory interface replays one global schedule per thread).
	cursor := make([]int, p.NPE)
	for _, id := range p.IssueOrder {
		pe := p.PE[id]
		if cursor[pe] >= len(p.PEOps[pe]) || p.PEOps[pe][cursor[pe]] != id {
			return fmt.Errorf("compiler: PE %d program disagrees with issue order at node %d", pe, id)
		}
		cursor[pe]++
	}
	return nil
}

// RowOf returns the row of a PE index within the thread's sub-array.
func (p *Program) RowOf(pe int) int { return pe / p.Columns }

// ColOf returns the column of a PE index.
func (p *Program) ColOf(pe int) int { return pe % p.Columns }

// Prepared is the part of compilation that depends on the graph alone, so a
// design-space sweep does it once for all its plans and both styles: the
// priority order the mappers walk (which operation comes next never depends
// on where the earlier ones landed) and the data and model stream layouts.
// It is read-only once built; any number of goroutines may Compile from it.
type Prepared struct {
	g *dfg.Graph
	// Programs compiled from one Prepared share these three slices.
	issueOrder  []int
	dataStream  []int
	modelStream []int
}

// Prepare does the graph-only work of compilation.
func Prepare(g *dfg.Graph) *Prepared {
	return &Prepared{
		g:           g,
		issueOrder:  priorityOrder(g),
		dataStream:  dataStream(g),
		modelStream: modelStream(g),
	}
}

// Compile maps and schedules the graph onto one thread of the planned
// accelerator using the selected style.
func Compile(g *dfg.Graph, plan arch.Plan, style Style) (*Program, error) {
	return Prepare(g).Compile(plan, style)
}

// Compile maps and schedules the prepared graph onto one thread of the
// planned accelerator. The mapping depends on the plan's Columns and
// RowsPerThread and on the style only: plans that differ in Threads alone
// compile to programs that differ in Plan alone.
func (c *Prepared) Compile(plan arch.Plan, style Style) (*Program, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	p := &Program{
		Plan:        plan,
		Graph:       c.g,
		Style:       style,
		NPE:         plan.PEsPerThread(),
		Columns:     plan.Columns,
		Rows:        plan.RowsPerThread,
		PE:          make([]int, len(c.g.Nodes)),
		IssueOrder:  c.issueOrder,
		DataStream:  c.dataStream,
		ModelStream: c.modelStream,
	}
	for i := range p.PE {
		p.PE[i] = -1
	}
	p.Interconnect = TreeBus
	if style == StyleTABLA {
		p.Interconnect = FlatBus
	}

	p.placeData()
	switch style {
	case StyleCoSMIC:
		p.mapCoSMIC()
	case StyleTABLA:
		p.mapTABLA()
	default:
		return nil, fmt.Errorf("compiler: unknown style %d", style)
	}
	p.buildGradAccum()
	p.buildMemSchedule()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// placeData pins each training-data element to the PE fed by the memory
// column that delivers it: word k of the vector arrives on column k mod
// Columns and is steered to row (k / Columns) mod Rows. This is the step
// that lets the accelerator consume data in its raw memory layout, with the
// shifter handling alignment instead of software marshaling.
func (p *Program) placeData() {
	for k, id := range p.DataStream {
		if id >= 0 {
			p.PE[id] = p.peForStreamIndex(k)
		}
	}
}

// peForStreamIndex maps the k-th streamed word to its PE.
func (p *Program) peForStreamIndex(k int) int {
	col := k % p.Columns
	row := (k / p.Columns) % p.Rows
	return row*p.Columns + col
}

// dataStream lists DATA leaf node IDs in the training vector's memory order:
// model_input and model_output symbols in declaration order, flat element
// order. An element that exists in memory but that the DFG never reads
// still occupies a stream slot, as -1.
func dataStream(g *dfg.Graph) []int {
	u := g.Unit
	var stream []int
	for _, name := range u.Order {
		if leaves, ok := g.DataLeaves[name]; ok {
			for _, id := range leaves {
				stream = append(stream, int(id))
			}
			continue
		}
		// So does every element of a data symbol the DFG never references
		// at all.
		sym := u.Symbols[name]
		if sym.Kind == dsl.KindModelInput || sym.Kind == dsl.KindModelOutput {
			for i := sym.Size(); i > 0; i-- {
				stream = append(stream, -1)
			}
		}
	}
	return stream
}

// modelStream lists model parameters in broadcast order: symbol declaration
// order, flat element order. Only referenced parameters are broadcast.
func modelStream(g *dfg.Graph) []int {
	var stream []int
	for _, name := range g.Unit.Order {
		for _, id := range g.ModelLeaves[name] {
			if id >= 0 {
				stream = append(stream, int(id))
			}
		}
	}
	return stream
}

// buildGradAccum assigns each gradient output's local accumulation to the
// PE that produces it, carving every PE's list out of one backing array.
func (p *Program) buildGradAccum() {
	// Constant outputs (e.g. hinge-loss zeros) still need a home for their
	// running sum; column 0 of row 0 keeps them.
	home := func(id int32) int { return max(p.PE[id], 0) }
	count := make([]int32, p.NPE)
	for _, name := range p.Graph.OutputOrder {
		for _, id := range p.Graph.Outputs[name] {
			count[home(id)]++
		}
	}
	p.GradAccum = carve(count)
	for _, name := range p.Graph.OutputOrder {
		for _, id := range p.Graph.Outputs[name] {
			pe := home(id)
			p.GradAccum[pe] = append(p.GradAccum[pe], int(id))
		}
	}
}

// buildMemSchedule lowers the data and model streams into Memory Schedule
// queue entries: row-sized read bursts for training data, broadcast reads
// for model parameters, and a write-back burst for the locally aggregated
// gradient.
func (p *Program) buildMemSchedule() {
	// Model broadcast precedes data streaming for each mini-batch.
	for off := 0; off < len(p.ModelStream); off += p.Columns {
		size := p.Columns
		if off+size > len(p.ModelStream) {
			size = len(p.ModelStream) - off
		}
		p.MemSchedule = append(p.MemSchedule, MemEntry{
			BasePE: 0, Broadcast: true, Size: size,
		})
	}
	for off := 0; off < len(p.DataStream); off += p.Columns {
		size := p.Columns
		if off+size > len(p.DataStream) {
			size = len(p.DataStream) - off
		}
		p.MemSchedule = append(p.MemSchedule, MemEntry{
			BasePE: p.peForStreamIndex(off), Size: size,
		})
	}
	grads := p.Graph.GradientWords()
	for off := 0; off < grads; off += p.Columns {
		size := p.Columns
		if off+size > grads {
			size = grads - off
		}
		p.MemSchedule = append(p.MemSchedule, MemEntry{
			BasePE: p.peForStreamIndex(off), Write: true, Size: size,
		})
	}
}
