package planner

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// benchGraph elaborates a Table 1 benchmark at a geometry scale.
func benchGraph(tb testing.TB, name string, scale float64) *dfg.Graph {
	tb.Helper()
	bm, err := dataset.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	alg := bm.Algorithm(scale)
	u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		tb.Fatal(err)
	}
	g, err := dfg.Translate(u)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkExplore is the planner layer's own number: one design-space
// exploration for UltraScale+ at the repo benchmark's `stack` geometry
// (scale 0.1, mini-batch 256), with the points it costed and the distinct
// (rows-per-thread) mappings behind them.
func BenchmarkExplore(b *testing.B) {
	for _, name := range []string{"tumor", "mnist", "movielens"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name, 0.1)
			var points []DesignPoint
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if points, err = Explore(g, arch.UltraScalePlus, Options{MiniBatch: 256}); err != nil {
					b.Fatal(err)
				}
			}
			classes := map[int]bool{}
			for _, p := range points {
				classes[p.Plan.RowsPerThread] = true
			}
			b.ReportMetric(float64(len(points)), "points")
			b.ReportMetric(float64(len(classes)), "classes")
		})
	}
}
