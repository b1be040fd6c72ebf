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

// BenchmarkRunBatch is the simulator layer's own number: host nanoseconds per
// simulated training vector, and allocations per batch, for a program planned
// for UltraScale+ as a node's AccelEngine runs it — two vectors on every
// thread, the averaging aggregator, one Sim kept across batches. (External
// test package: the planner reaches accel again through perf.)
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
			prog, err := compiler.Compile(g, point.Plan, compiler.StyleCoSMIC)
			if err != nil {
				b.Fatal(err)
			}
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
