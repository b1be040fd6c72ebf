package verilog_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/planner"
	"repro/internal/verilog"
)

type benchImage struct {
	name string
	img  *verilog.Image
}

// benchImages plans movielens@0.1 (the largest `stack` family, ~93k nodes)
// for an FPGA and a P-ASIC, whose control is emitted as FSMs and as
// microcode ROMs respectively.
func benchImages(b *testing.B) []benchImage {
	b.Helper()
	bm, err := dataset.ByName("movielens")
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
	var out []benchImage
	for _, c := range []struct {
		name string
		chip arch.ChipSpec
	}{{"ultrascale+", arch.UltraScalePlus}, {"pasic-f", arch.PASICF}} {
		point, err := planner.Plan(g, c.chip, planner.Options{MiniBatch: 64, Style: compiler.StyleCoSMIC})
		if err != nil {
			b.Fatal(err)
		}
		img, err := verilog.Encode(point.Program)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, benchImage{c.name, img})
	}
	return out
}

// BenchmarkEncode is the Constructor's first half: schedule → per-PE
// control programs and buffer slots.
func BenchmarkEncode(b *testing.B) {
	for _, c := range benchImages(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := verilog.Encode(c.img.Prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate is the Constructor's second half: control programs →
// Verilog text, reported with its size.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range benchImages(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var rtl string
			for i := 0; i < b.N; i++ {
				var err error
				if rtl, err = verilog.Generate(c.img); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rtl))/1024, "rtl_kb")
		})
	}
}
