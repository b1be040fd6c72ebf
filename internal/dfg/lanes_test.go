package dfg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneOutputs gathers one lane's gradient outputs from the arena rows.
func laneOutputs(g *Graph, la *Lanes, lane int) map[string][]float64 {
	out := map[string][]float64{}
	for name, nodes := range g.Outputs {
		vec := make([]float64, len(nodes))
		for i, n := range nodes {
			vec[i] = la.Row(n.ID)[lane]
		}
		out[name] = vec
	}
	return out
}

// TestLanesMatchScalarArenaAllOps pins the lane kernel to its scalar twin:
// every op — comparisons, select, each nonlinear — on every pairing of the
// inputs floating point treats specially, each lane holding different data
// and a different model value, must come out bit-equal to Arena.Eval and to
// Graph.Eval at every width.
func TestLanesMatchScalarArenaAllOps(t *testing.T) {
	g := allOpsGraph() // leaves x[0], x[1], w[0]
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	var wSlot int
	for _, n := range g.Nodes {
		if n.Op == OpModel {
			wSlot = n.ID
		}
	}
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, -2.25, 710, -746,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
		math.MaxFloat64, -math.MaxFloat64, 1e300, 1e-300,
	}
	var cases [][3]float64 // {x0, x1, w0}
	for i, a := range special {
		for j, b := range special {
			cases = append(cases, [3]float64{a, b, special[(i+j)%len(special)]})
		}
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 64; i++ {
		cases = append(cases, [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}

	arena := tape.NewArena()
	for _, width := range []int{1, 3, 16, 32} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			la := tape.NewLanes(width)
			for at := 0; at < len(cases); at += width {
				n := min(width, len(cases)-at)
				// The broadcast gives every lane one model; each lane then
				// gets its own through the leaf's row.
				if err := la.BindModel(map[string][]float64{"w": {7}}); err != nil {
					t.Fatal(err)
				}
				for l := 0; l < n; l++ {
					c := cases[at+l]
					if err := la.BindData(l, map[string][]float64{"x": {c[0], c[1]}}); err != nil {
						t.Fatal(err)
					}
					la.Row(wSlot)[l] = c[2]
				}
				la.Eval(n)
				for l := 0; l < n; l++ {
					c := cases[at+l]
					b := Bindings{
						Data:  map[string][]float64{"x": {c[0], c[1]}},
						Model: map[string][]float64{"w": {c[2]}},
					}
					got := laneOutputs(g, la, l)
					want, err := arena.EvalBindings(b)
					if err != nil {
						t.Fatal(err)
					}
					requireBitEqual(t, want, got)
					want, err = g.Eval(b)
					if err != nil {
						t.Fatal(err)
					}
					requireBitEqual(t, want, got)
				}
			}
		})
	}
}

// TestLanesMatchArenaOnBenchmarks runs every DSL benchmark program with a
// different random binding set on each lane, reusing one lane arena across
// trials, and evaluates only a prefix of the lanes: the lanes past it must
// keep what they held.
func TestLanesMatchArenaOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const width, live = 5, 3
	for name, u := range benchmarkPrograms(t) {
		t.Run(name, func(t *testing.T) {
			g, err := Translate(u)
			if err != nil {
				t.Fatal(err)
			}
			tape, err := g.CompileTape()
			if err != nil {
				t.Fatal(err)
			}
			arena, la := tape.NewArena(), tape.NewLanes(width)
			for trial := 0; trial < 5; trial++ {
				binds := make([]Bindings, width)
				for l := range binds {
					binds[l] = randomBindings(u, rng)
				}
				if err := la.BindModel(binds[0].Model); err != nil {
					t.Fatal(err)
				}
				for l, b := range binds {
					if err := la.BindData(l, b.Data); err != nil {
						t.Fatal(err)
					}
					b.Model = binds[0].Model
					binds[l] = b
				}
				la.Eval(width)
				idle := laneOutputs(g, la, live)
				if err := la.BindData(live, binds[0].Data); err != nil {
					t.Fatal(err)
				}
				la.Eval(live)
				for l := 0; l < live; l++ {
					want, err := arena.EvalBindings(binds[l])
					if err != nil {
						t.Fatal(err)
					}
					requireBitEqual(t, want, laneOutputs(g, la, l))
				}
				requireBitEqual(t, idle, laneOutputs(g, la, live))
			}
		})
	}
}

// TestLanesBindingErrors: a lane arena rejects what a scalar arena rejects,
// with the same message.
func TestLanesBindingErrors(t *testing.T) {
	tape, err := allOpsGraph().CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	arena, la := tape.NewArena(), tape.NewLanes(2)
	for _, data := range []map[string][]float64{{}, {"x": {1}}, {"x": {1, 2}}} {
		want, got := arena.BindData(data), la.BindData(1, data)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("BindData(%v): lanes %v, arena %v", data, got, want)
		}
	}
	for _, model := range []map[string][]float64{{}, {"w": {}}, {"w": {1}}} {
		want, got := arena.BindModel(model), la.BindModel(model)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("BindModel(%v): lanes %v, arena %v", model, got, want)
		}
	}
}

// TestLanesSteadyStateAllocFree: after construction, bind+eval must not
// allocate.
func TestLanesSteadyStateAllocFree(t *testing.T) {
	g := allOpsGraph()
	tape, err := g.CompileTape()
	if err != nil {
		t.Fatal(err)
	}
	la := tape.NewLanes(4)
	data := map[string][]float64{"x": {1.5, -2.25}}
	model := map[string][]float64{"w": {0.75}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := la.BindModel(model); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 4; l++ {
			if err := la.BindData(l, data); err != nil {
				t.Fatal(err)
			}
		}
		la.Eval(4)
	})
	if allocs != 0 {
		t.Errorf("steady-state bind+eval allocates %v objects per run", allocs)
	}
}
