package dfg

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dsl"
)

// TestNodeIsPointerFree pins the node table's layout: a Node holds no
// pointer, slice, string or map, so Graph.Nodes is one allocation the
// garbage collector never scans and a node costs its fixed size.
func TestNodeIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	walk("Node", reflect.TypeOf(Node{}))
	if size := reflect.TypeOf(Node{}).Size(); size > 40 {
		t.Errorf("Node is %d bytes, want at most 40", size)
	}
}

// TestTranslateAllocsIndependentOfSize: the translator's allocations are a
// handful per symbol and per table, not per node — the same program at two
// geometries whose graphs differ more than fourfold allocates about the
// same number of times.
func TestTranslateAllocsIndependentOfSize(t *testing.T) {
	allocs := func(params map[string]int) (nodes int, n float64) {
		u, err := dsl.ParseAndAnalyze(dsl.SourceCollaborativeFiltering, params)
		if err != nil {
			t.Fatal(err)
		}
		nodes = len(MustTranslate(u).Nodes)
		return nodes, testing.AllocsPerRun(3, func() { MustTranslate(u) })
	}
	smallNodes, small := allocs(map[string]int{"NU": 64, "NV": 48, "K": 8})
	largeNodes, large := allocs(map[string]int{"NU": 512, "NV": 384, "K": 8})
	if largeNodes < 4*smallNodes {
		t.Fatalf("geometries too close: %d and %d nodes", smallNodes, largeNodes)
	}
	t.Logf("%d nodes: %.0f allocs; %d nodes: %.0f allocs", smallNodes, small, largeNodes, large)
	// Growing slices and tables add a few allocations per doubling.
	if large > small+64 || large > 1000 {
		t.Errorf("%d nodes took %.0f allocs, %d nodes %.0f: allocations grow with the graph",
			smallNodes, small, largeNodes, large)
	}
}

// TestTranslateRefusesOversizedPrograms: a few bytes of DSL must not ask
// for gigabytes. Symbols and iteration ranges past dsl.MaxElements fail in
// analysis; a program whose reductions nest into more than MaxNodes nodes
// fails in Translate before it builds any.
func TestTranslateRefusesOversizedPrograms(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"overflowing size",
			"aggregator average; model_input x[2]; model w[3037000500, 3037000500]; gradient g[3037000500, 3037000500]; iterator i[0:1]; g[i, i] = w[i, i] - x[0];",
			"elements"},
		{"16 GB table",
			"aggregator average; model_input x[2]; model w[2000000000]; gradient g[2000000000]; iterator i[0:1]; g[i] = w[i] - x[0];",
			"elements"},
		{"long iterator",
			"aggregator average; model_input x[2]; model w[1]; gradient g[1]; iterator i[0:2000000000]; g[0] = sum[i](w[0] - x[0]);",
			"trips"},
		{"nested sums",
			"aggregator average; model_input x[4096]; model w[4096]; gradient g[4096]; iterator i[0:4096]; iterator j[0:4096]; iterator k[0:4096]; g[i] = sum[j](sum[k](w[j] * x[k]));",
			"nodes"},
		{"one long sum",
			"aggregator average; model_input x[33554432]; model w[33554432]; gradient g[1]; iterator i[0:33554432]; g[0] = sum[i](w[i] * x[i]);",
			"nodes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			u, err := dsl.ParseAndAnalyze(c.src, nil)
			if err == nil {
				var g *Graph
				g, err = Translate(u)
				if g != nil {
					t.Fatalf("translated to %d nodes", len(g.Nodes))
				}
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("took %v to refuse", d)
			}
		})
	}
}
