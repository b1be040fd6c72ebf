package dfg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// BenchmarkTranslate is the Translator's own number: DSL unit → graph for
// the backprop and CF graphs the `stack` workload compiles (mnist@0.1 and
// movielens@0.1, ~93k nodes).
func BenchmarkTranslate(b *testing.B) {
	for _, f := range []struct{ name, bench string }{{"backprop", "mnist"}, {"cf", "movielens"}} {
		bm, err := dataset.ByName(f.bench)
		if err != nil {
			b.Fatal(err)
		}
		alg := bm.Algorithm(0.1)
		unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dfg.Translate(unit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTapeEval is the tape layer's own number: nanoseconds to evaluate
// one sample's gradient, on the scalar arena and on 16- and 32-lane arenas,
// for the graph the `deep` workload trains (mnist@0.05, ~5k instructions) and
// for one whose arena outgrows the cache (movielens@0.1, ~126k nodes).
func BenchmarkTapeEval(b *testing.B) {
	for _, f := range []struct {
		name  string
		scale float64
	}{{"mnist", 0.05}, {"movielens", 0.1}} {
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
		tape, err := g.CompileTape()
		if err != nil {
			b.Fatal(err)
		}
		model := alg.PackModel(alg.InitModel(rand.New(rand.NewSource(1))))
		samples := bm.Generate(alg, 32, 7)

		b.Run(f.name+"/scalar", func(b *testing.B) {
			arena := tape.NewArena()
			if err := arena.Bind(dfg.Bindings{Data: alg.PackSample(samples[0]), Model: model}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Eval()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
		})
		for _, width := range []int{16, 32} {
			b.Run(fmt.Sprintf("%s/lanes-%d", f.name, width), func(b *testing.B) {
				la := tape.NewLanes(width)
				if err := la.BindModel(model); err != nil {
					b.Fatal(err)
				}
				for l := 0; l < width; l++ {
					if err := la.BindData(l, alg.PackSample(samples[l])); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					la.Eval(width)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/sample")
			})
		}
	}
}
