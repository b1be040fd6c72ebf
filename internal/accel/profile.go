package accel

import (
	"fmt"

	"repro/internal/obs/profile"
)

// CycleProfile snapshots the simulator's cycle accounting as a pprof
// profile attributing every simulated cycle since construction to a stack:
//
//	n<id> <op> / op <op> / pe <pe> / compute   per-tape-instruction share
//	n<id> accum / op accum / pe <pe> / compute gradient running-sum updates
//	model-broadcast                            model distribution cycles
//	tree-reduce                                cross-thread reduce + write-back
//
// Stacks are leaf-first (pprof order), so `go tool pprof -top` shows DFG
// nodes as flat entries and compute/broadcast/reduce as roots. The second
// sample type counts executions (vectors for compute frames, batches for
// the broadcast/reduce phases).
//
// Attribution is exact, not sampled: the per-stack cycle values sum to the
// Σ of every BatchResult.Cycles the simulator returned. Within the compute
// window, cycles are apportioned uniformly across tape instructions and
// gradient-accumulation slots (each executes once per vector) using
// largest-remainder rounding so integer shares still sum exactly.
//
// Safe to call concurrently with RunBatch; the snapshot is consistent as of
// some batch boundary.
func (s *Sim) CycleProfile() (*profile.Raw, error) {
	tape, err := s.compiledTape()
	if err != nil {
		return nil, err
	}
	s.profMu.Lock()
	batches, vectors := s.profBatches, s.profVectors
	broadcast, window, reduce := s.profBroadcast, s.profWindow, s.profReduce
	s.profMu.Unlock()
	if batches == 0 {
		return nil, fmt.Errorf("accel: no batches simulated yet")
	}

	cycles := profile.ValueType{Type: "cycles", Unit: "cycles"}
	p := profile.New(cycles, profile.ValueType{Type: "executions", Unit: "count"})
	p.SetPeriod(1, cycles)
	p.SetDefaultSampleType("cycles")
	p.AddComment(fmt.Sprintf("cosmic accel sim: threads=%d npe=%d batches=%d", s.threads, s.prog.NPE, batches))

	peFrame := func(node int) string {
		if node >= 0 && node < len(s.prog.PE) && s.prog.PE[node] >= 0 {
			return fmt.Sprintf("pe %d", s.prog.PE[node])
		}
		return "pe ?"
	}

	// The compute window is split uniformly over everything that executes
	// once per vector: tape instructions plus per-PE gradient accumulations.
	nInstr := tape.NumInstrs()
	items := nInstr
	for _, ids := range s.prog.GradAccum {
		items += len(ids)
	}
	var base, rem int64
	if items > 0 {
		base, rem = window/int64(items), window%int64(items)
	}
	next := 0
	share := func() int64 {
		v := base
		if int64(next) < rem {
			v++
		}
		next++
		return v
	}
	for i := 0; i < nInstr; i++ {
		op, node := tape.Instr(i)
		p.Add([]int64{share(), vectors},
			[]string{fmt.Sprintf("n%d %s", node, op), "op " + op.String(), peFrame(node), "compute"})
	}
	for pe, ids := range s.prog.GradAccum {
		for _, id := range ids {
			p.Add([]int64{share(), vectors},
				[]string{fmt.Sprintf("n%d accum", id), "op accum", fmt.Sprintf("pe %d", pe), "compute"})
		}
	}
	if items == 0 && window != 0 {
		p.Add([]int64{window, vectors}, []string{"compute"})
	}
	p.Add([]int64{broadcast, batches}, []string{"model-broadcast"})
	p.Add([]int64{reduce, batches}, []string{"tree-reduce"})
	return p.Raw(), nil
}
