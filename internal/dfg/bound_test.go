package dfg_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// TestSizeBoundAdmitsTable1AtFullScale: the bound that refuses runaway
// programs leaves room for every Table 1 benchmark at scale 1.0 — netflix,
// the largest, elaborates 2.27 M ops.
func TestSizeBoundAdmitsTable1AtFullScale(t *testing.T) {
	for _, bm := range dataset.Benchmarks {
		alg := bm.Algorithm(1.0)
		u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if err := dfg.CheckWork(u, dfg.MaxNodes); err != nil {
			t.Errorf("%s@1.0: %v", bm.Name, err)
		}
	}
}
