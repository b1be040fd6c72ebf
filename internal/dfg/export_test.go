package dfg

// CheckWork exposes the translator's size bound to the external tests.
var CheckWork = checkWork

// LaneShape reports a lane arena's program: its instructions, the gradient
// rows its update tail computes and those that fall back, its rows, and of
// those the temporaries.
func LaneShape(la *Lanes) (instrs, tail, fallback, rows, temps int) {
	rows = len(la.vals) / la.width
	return len(la.prog), len(la.tail), len(la.fallback), rows, len(laneTemps(la))
}

// laneTemps returns the rows that hold temporaries: the program's rows that
// are neither in the model and gradient blocks nor an addressable slot's.
func laneTemps(la *Lanes) map[int32]bool {
	stable := map[int32]bool{}
	for _, r := range la.rows {
		stable[r] = true
	}
	temps := map[int32]bool{}
	for _, in := range la.prog {
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
	for _, in := range la.prog {
		seq = append(seq, access{reads: []int32{in.a, in.b, in.c, in.e}, write: in.dst})
	}
	for _, tp := range la.tail {
		seq = append(seq, access{reads: []int32{tp.a, tp.b}, write: -1})
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
