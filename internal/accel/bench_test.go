package accel_test

import (
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/planner"
)

// plannedProgram compiles a Table 1 benchmark at a geometry scale as the
// Planner does for UltraScale+ at mini-batch 64. (External test package: the
// planner reaches accel again through perf.)
func plannedProgram(b *testing.B, bm dataset.Benchmark, scale float64) *compiler.Program {
	b.Helper()
	alg := bm.Algorithm(scale)
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		b.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		b.Fatal(err)
	}
	point, err := planner.Plan(g, arch.UltraScalePlus, planner.Options{
		MiniBatch: 64, Style: compiler.StyleCoSMIC,
	})
	if err != nil {
		b.Fatal(err)
	}
	return point.Program
}

// BenchmarkRunBatch is the simulator layer's own number: host nanoseconds per
// simulated training vector, and allocations per batch, for a program planned
// for UltraScale+ as a node's AccelEngine runs it — two vectors on every
// thread, the averaging aggregator, one Sim kept across batches.
func BenchmarkRunBatch(b *testing.B) {
	for _, f := range []struct {
		name  string
		scale float64
	}{{"mnist", 0.05}, {"tumor", 0.1}, {"movielens", 0.1}} {
		b.Run(f.name, func(b *testing.B) {
			bm, err := dataset.ByName(f.name)
			if err != nil {
				b.Fatal(err)
			}
			alg := bm.Algorithm(f.scale)
			prog := plannedProgram(b, bm, f.scale)
			threads := prog.Plan.Threads
			vectors := 2 * threads
			parts := make([][]map[string][]float64, threads)
			for i, s := range bm.Generate(alg, vectors, 7) {
				parts[i%threads] = append(parts[i%threads], alg.PackSample(s))
			}
			model := alg.PackModel(alg.InitModel(rand.New(rand.NewSource(1))))
			sim := accel.New(prog)
			if _, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vectors), "ns/vector")
		})
	}
}

// BenchmarkAnalyze is the static timing analysis alone — what the Planner
// pays once per mapping and accel.New once per simulator — at the repo
// benchmark's `stack` geometry.
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"mnist", "movielens"} {
		b.Run(name, func(b *testing.B) {
			bm, err := dataset.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			prog := plannedProgram(b, bm, 0.1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if accel.Analyze(prog).Startup() < 1 {
					b.Fatal("degenerate analysis")
				}
			}
		})
	}
}
