package dfg_test

import (
	"fmt"
	"math/rand"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/vec"
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
		vecs := func(names []string, bind map[string][]float64) [][]float64 {
			out := make([][]float64, len(names))
			for i, name := range names {
				out[i] = bind[name]
			}
			return out
		}

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
				la := tape.NewLanes(width, dfg.LaneLayout{})
				if err := la.BindModel(vecs(tape.ModelSymbols(), model)); err != nil {
					b.Fatal(err)
				}
				lanes := make([][][]float64, width)
				for l := range lanes {
					lanes[l] = vecs(tape.DataSymbols(), alg.PackSample(samples[l]))
				}
				if err := la.BindData(0, lanes); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					la.Eval(width, dfg.UpdateNone, 0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/sample")
			})
		}
	}
}

// vecZMM is vec's switch for its 8-lane loops, which the CPU alone sets:
// vec exports no setter. BenchmarkLanesEval turns it off for its avx leg,
// to time the 4-lane loops on a CPU that has AVX-512F too.
//
//go:linkname vecZMM repro/internal/vec.zmm
var vecZMM bool

// BenchmarkLanesEval is a node's lane arena at the `deep` workload's shape
// — mnist@0.05 in the trainer layout, 32 lanes, one SGD step per Eval —
// timed in the four parts the simulator runs it in: eval (the lane
// program and its update tail, in ns per program instruction or tail row
// over all 32 lanes), bind (BindModel's broadcast, ns per model word), data
// (one step's BindData of all 32 lanes, ns per data word of a vector) and
// reduce (the cross-thread sum and average Sim.reduce applies to the model
// block, ns per model word). Each runs on the kernels in use and, where
// those are the AVX ones, on their portable Go loops (leg portable); on a
// CPU with AVX-512F, at eight lanes per instruction (avx512) and at four
// (avx).
func BenchmarkLanesEval(b *testing.B) {
	const width = 32
	bm, err := dataset.ByName("mnist")
	if err != nil {
		b.Fatal(err)
	}
	alg := bm.Algorithm(0.05)
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
	pairs, err := unit.ModelGradientPairs()
	if err != nil {
		b.Fatal(err)
	}
	model := alg.PackModel(alg.InitModel(rand.New(rand.NewSource(1))))
	var layout dfg.LaneLayout
	var vecs [][]float64
	for _, pr := range pairs {
		outs := g.Outputs[pr[1].Name]
		layout.Model = append(layout.Model, dfg.ModelSpan{Name: pr[0].Name, Words: len(outs)})
		for _, o := range outs {
			layout.Grads = append(layout.Grads, int(o))
		}
		vecs = append(vecs, model[pr[0].Name])
	}
	words := len(layout.Grads)
	la := tape.NewLanes(width, layout)
	instrs := dfg.LaneInstrs(la)
	samples := bm.Generate(alg, width, 7)
	lanes := make([][][]float64, width)
	for l := range lanes {
		data := alg.PackSample(samples[l])
		for _, name := range tape.DataSymbols() {
			lanes[l] = append(lanes[l], data[name])
		}
	}
	if err := la.BindData(0, lanes); err != nil {
		b.Fatal(err)
	}
	dataWords := 0
	for _, v := range lanes[0] {
		dataWords += len(v)
	}
	partial := make([]float64, words)

	impls := []string{"portable"}
	switch {
	case vecZMM:
		impls = []string{"avx512", "avx", "portable"}
	case vec.Accelerated():
		impls = []string{"avx", "portable"}
	}
	use := func(impl string) (restore func()) {
		restoreAVX, zmm := vec.SetAccelerated(impl != "portable"), vecZMM
		vecZMM = zmm && impl == "avx512"
		return func() { vecZMM = zmm; restoreAVX() }
	}
	for _, impl := range impls {
		b.Run("eval/"+impl, func(b *testing.B) {
			defer use(impl)()
			if err := la.BindModel(vecs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				la.Eval(width, dfg.UpdateStep, 1e-9)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/sample")
		})
		b.Run("bind/"+impl, func(b *testing.B) {
			defer use(impl)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := la.BindModel(vecs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
		})
		b.Run("data/"+impl, func(b *testing.B) {
			defer use(impl)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := la.BindData(0, lanes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dataWords), "ns/word")
		})
		b.Run("reduce/"+impl, func(b *testing.B) {
			defer use(impl)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(partial)
				vec.AddLanes(partial, la.Model(), width, width)
				vec.AverageInto(partial, partial, width)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
		})
	}
}
