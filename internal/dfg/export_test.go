package dfg

import "repro/internal/vec"

// CheckWork exposes the translator's size bound to the external tests.
var CheckWork = checkWork

// LaneShape reports a lane arena's program: its instructions, the gradient
// rows its update tail computes and those that fall back (unit rows
// included), its rows, and of those the temporaries.
func LaneShape(la *Lanes) (instrs, tail, fallback, rows, temps int) {
	rows = len(la.vals) / la.width
	return len(laneProgram(la)), len(la.tail), len(la.unit) + len(la.fallback), rows, len(laneTemps(la))
}

// LaneInstrs returns how many instructions an Eval runs: the lane program's,
// its update tail's and its unit rows'.
func LaneInstrs(la *Lanes) int { return len(laneProgram(la)) + len(la.tail) + len(la.unit) }

// laneProgram returns the lane program one instruction per tape
// instruction (or fused product-sum), its packed runs turned back into
// laneInstrs on rows.
func laneProgram(la *Lanes) []laneInstr {
	ops := map[vec.Op]Op{}
	for op, p := range packedOps {
		ops[p.op] = op
	}
	w := int32(la.width)
	var prog []laneInstr
	for _, li := range la.prog {
		if li.op != opKernels {
			prog = append(prog, li)
			continue
		}
		for _, in := range la.kern[li.a:li.b] {
			op := ops[in.Op]
			rows, offs := [4]int32{-1, -1, -1, -1}, [...]int32{in.A, in.B, in.C, in.E}
			for i := 0; i < packedOps[op].args; i++ {
				rows[i] = offs[i] / w
			}
			prog = append(prog, laneInstr{op: op, dst: in.D / w, a: rows[0], b: rows[1], c: rows[2], e: rows[3]})
		}
	}
	return prog
}

// laneTemps returns the rows that hold temporaries: the program's rows that
// are neither in the model and gradient blocks nor an addressable slot's.
func laneTemps(la *Lanes) map[int32]bool {
	stable := map[int32]bool{}
	for _, r := range la.rows {
		stable[r] = true
	}
	temps := map[int32]bool{}
	for _, in := range laneProgram(la) {
		for _, r := range [...]int32{in.dst, in.a, in.b, in.c, in.e} {
			if r >= int32(2*la.words) && !stable[r] {
				temps[r] = true
			}
		}
	}
	return temps
}

// LanePeakLive returns the most temporary values the lane program and its
// tail ever hold at once, measured on the lowered program itself: a value
// lives from the instruction that writes its row through the last one that
// reads it before the row is written again, both ends included.
func LanePeakLive(la *Lanes) int {
	temps := laneTemps(la)
	type access struct {
		reads []int32
		write int32
	}
	var seq []access
	for _, in := range laneProgram(la) {
		seq = append(seq, access{reads: []int32{in.a, in.b, in.c, in.e}, write: in.dst})
	}
	for _, tp := range la.tail {
		seq = append(seq, access{reads: []int32{tp.A / int32(la.width), tp.B / int32(la.width)}, write: -1})
	}
	// delta[i] counts values born at i minus values that died before i.
	delta := make([]int, len(seq)+1)
	born := map[int32]int{} // a temporary row → the instruction that wrote its live value
	lastRead := map[int32]int{}
	end := func(r int32) {
		if w, ok := born[r]; ok {
			delta[w]++
			delta[max(w, lastRead[r])+1]--
		}
	}
	for i, a := range seq {
		for _, r := range a.reads {
			if temps[r] {
				lastRead[r] = i
			}
		}
		if temps[a.write] {
			end(a.write)
			born[a.write], lastRead[a.write] = i, i
		}
	}
	for r := range born {
		end(r)
	}
	peak, live := 0, 0
	for _, d := range delta {
		live += d
		peak = max(peak, live)
	}
	return peak
}
