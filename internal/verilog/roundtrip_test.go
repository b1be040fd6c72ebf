package verilog

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dataset"
	"repro/internal/dfg"
	"repro/internal/dsl"
)

// TestMicrocodeRoundTripAllBenchmarks is the golden ISA property over the
// paper's whole suite (Table 1), both mapping styles: every PE's control
// ROM disassembles back to the exact instruction list that produced it, and
// the disassembly re-encodes to the identical word stream. Geometry is
// scaled down so the elaborated graphs stay tractable, the same way the
// cycle-level simulator tests scale.
func TestMicrocodeRoundTripAllBenchmarks(t *testing.T) {
	for _, b := range dataset.Benchmarks {
		maxDim := 0
		for _, d := range b.Topology {
			if d > maxDim {
				maxDim = d
			}
		}
		scale := 48.0 / float64(maxDim)
		if scale > 1 {
			scale = 1
		}
		alg := b.Algorithm(scale)
		for _, style := range []compiler.Style{compiler.StyleCoSMIC, compiler.StyleTABLA} {
			t.Run(b.Name+"/"+style.String(), func(t *testing.T) {
				u, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
				if err != nil {
					t.Fatal(err)
				}
				g, err := dfg.Translate(u)
				if err != nil {
					t.Fatal(err)
				}
				threads := 2
				if style == compiler.StyleTABLA {
					threads = 1
				}
				plan := arch.Plan{Chip: pasicChip, Columns: pasicChip.Columns(), Threads: threads, RowsPerThread: 2}
				prog, err := compiler.Compile(g, plan, style)
				if err != nil {
					t.Fatal(err)
				}
				img, err := Encode(prog)
				if err != nil {
					t.Fatal(err)
				}
				roms := MicrocodeOf(img)
				for pe, words := range roms {
					dec, err := Disassemble(words)
					if err != nil {
						t.Fatalf("PE %d: disassembly failed: %v", pe, err)
					}
					want := img.PEs[pe].Instructions
					if len(dec) != len(want) {
						t.Fatalf("PE %d: decoded %d instructions, encoded %d", pe, len(dec), len(want))
					}
					var rewords []uint32
					for i := range dec {
						if !instructionEqual(dec[i], want[i]) {
							t.Fatalf("PE %d instruction %d: decoded %s, encoded %s", pe, i, dec[i], want[i])
						}
						rewords = dec[i].AppendMicrocode(rewords)
					}
					if !reflect.DeepEqual(rewords, words) && !(len(rewords) == 0 && len(words) == 0) {
						t.Fatalf("PE %d: re-encoded ROM differs from original (%d vs %d words)", pe, len(rewords), len(words))
					}
				}
			})
		}
	}
}

// instructionEqual compares modulo the nil-versus-empty Srcs distinction,
// which the word format cannot represent.
func instructionEqual(a, b Instruction) bool {
	if a.Opc != b.Opc || a.Dst != b.Dst || len(a.Srcs) != len(b.Srcs) {
		return false
	}
	for i := range a.Srcs {
		if a.Srcs[i] != b.Srcs[i] {
			return false
		}
	}
	return true
}
