package dfg_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// TestLaneArenaIsCompact pins the lane arena's size on the `deep` workload's
// program (mnist@0.05) with a trainer's layout and a 16-lane block: every
// gradient row joins the update tail, temporaries take at most twice as
// many rows as the program ever holds live values, and the arena is at most
// 0.55× the 835 KB it took when every slot had a row of its own.
func TestLaneArenaIsCompact(t *testing.T) {
	bm, err := dataset.ByName("mnist")
	if err != nil {
		t.Fatal(err)
	}
	alg := bm.Algorithm(0.05)
	u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := u.ModelGradientPairs()
	if err != nil {
		t.Fatal(err)
	}
	var layout dfg.LaneLayout
	for _, pr := range pairs {
		outs := g.Outputs[pr[1].Name]
		layout.Model = append(layout.Model, dfg.ModelSpan{Name: pr[0].Name, Words: len(outs)})
		for _, o := range outs {
			layout.Grads = append(layout.Grads, int(o))
		}
	}
	la := tape.NewLanes(16, layout)
	instrs, tail, fallback, rows, temps := dfg.LaneShape(la)
	peak := dfg.LanePeakLive(la)
	t.Logf("program %d + tail %d instructions (tape %d), %d fallback rows; %d rows, %d temporaries for a peak of %d live; %d KB",
		instrs, tail, tape.NumInstrs(), fallback, rows, temps, peak, la.Bytes()>>10)
	if tail != len(layout.Grads) || fallback != 0 {
		t.Errorf("%d of %d gradient rows fused, %d fell back", tail, len(layout.Grads), fallback)
	}
	if temps > 2*peak {
		t.Errorf("%d temporary rows for at most %d live values", temps, peak)
	}
	if limit := 0.55 * 835 * 1024; float64(la.Bytes()) > limit {
		t.Errorf("lane arena is %d bytes, want at most %.0f", la.Bytes(), limit)
	}
}
