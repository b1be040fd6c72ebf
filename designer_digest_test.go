package cosmic

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dfg"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/designer_digests.golden from the current code")

// digestScale shrinks every Table 1 benchmark so the whole suite compiles in
// a few seconds while keeping each family's graph shape.
const digestScale = 0.02

// dfgDigest hashes a graph's identity: per node its op, argument IDs,
// constant bits, symbol and flat index, then each gradient's output nodes.
func dfgDigest(g *dfg.Graph) string {
	h := sha256.New()
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprintf(h, "%d %d", i, n.Op)
		for _, a := range n.Args() {
			fmt.Fprintf(h, " %d", a)
		}
		fmt.Fprintf(h, " %016x %q %d\n", math.Float64bits(n.Const), g.Var(int32(i)), n.Index)
	}
	for _, name := range g.OutputOrder {
		fmt.Fprintf(h, "out %q", name)
		for _, id := range g.Outputs[name] {
			fmt.Fprintf(h, " %d", id)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// designerDigests compiles every Table 1 benchmark for UltraScale+ and
// P-ASIC-F in both mapping styles and returns one line per DFG and per RTL
// file: the designer path's output, pinned byte for byte.
func designerDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, bm := range dataset.Benchmarks {
		alg := bm.Algorithm(digestScale)
		for _, chip := range []Chip{UltraScalePlus, PASICF} {
			for _, tabla := range []bool{false, true} {
				prog, err := Compile(alg.DSLSource(), alg.DSLParams(), chip, Options{TABLABaseline: tabla})
				if err != nil {
					t.Fatalf("%s on %s: %v", bm.Name, chip.Name, err)
				}
				if chip.Name == UltraScalePlus.Name && !tabla {
					fmt.Fprintf(&b, "dfg %s %s\n", bm.Name, dfgDigest(prog.Graph()))
				}
				rtl, err := prog.Verilog()
				if err != nil {
					t.Fatalf("%s on %s: %v", bm.Name, chip.Name, err)
				}
				style := "cosmic"
				if tabla {
					style = "tabla"
				}
				fmt.Fprintf(&b, "rtl %s %q %s %x\n", bm.Name, chip.Name, style, sha256.Sum256([]byte(rtl)))
			}
		}
	}
	return b.String()
}

// TestDesignerDigests recompiles the Table 1 suite and compares every DFG
// and RTL digest with testdata/designer_digests.golden. Any difference in
// node identity or emitted Verilog fails; `go test -run TestDesignerDigests
// -update .` records a deliberate change.
func TestDesignerDigests(t *testing.T) {
	path := filepath.Join("testdata", "designer_digests.golden")
	got := designerDigests(t)
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest differs:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
