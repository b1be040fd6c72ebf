package compiler_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// BenchmarkCompile is the compilation layer's own number: one whole Compile
// — the graph-only preparation, then mapping, scheduling and validation —
// of a Table 1 benchmark at the repo benchmark's `stack` geometry, for the
// narrowest and the widest thread the UltraScale+ sweep maps (1 and 32 rows
// of 128 PEs).
func BenchmarkCompile(b *testing.B) {
	chip := arch.UltraScalePlus
	for _, name := range []string{"mnist", "movielens"} {
		bm, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		alg := bm.Algorithm(0.1)
		unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
		if err != nil {
			b.Fatal(err)
		}
		g, err := dfg.Translate(unit)
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{1, 32} {
			plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: 1, RowsPerThread: rows}
			b.Run(fmt.Sprintf("%s/R%d", name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := compiler.Compile(g, plan, compiler.StyleCoSMIC); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
