package dfg

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsl"
)

// fuzzParams supplies every dimension parameter the shipped sources use.
var fuzzParams = map[string]int{
	"M": 8, "IN": 4, "HID": 3, "OUT": 2,
	"NU": 4, "NV": 3, "K": 2, "C": 3,
}

// fuzzNodeBudget keeps each fuzzed translation small: a program the bound
// admits but that could build more nodes than this is analyzed and skipped,
// not translated. Programs past MaxNodes still go through Translate, which
// must refuse them without building anything.
const fuzzNodeBudget = 1 << 16

// FuzzTranslate asserts the Translator's contract under arbitrary input:
// parse, analyze and translate never panic, Translate never returns
// (nil, nil), and every graph it returns passes Validate. The seeds are the
// shipped programs plus the size bombs TestTranslateRefusesOversizedPrograms
// pins.
func FuzzTranslate(f *testing.F) {
	for _, src := range []string{
		dsl.SourceLinearRegression,
		dsl.SourceLogisticRegression,
		dsl.SourceSVM,
		dsl.SourceBackprop,
		dsl.SourceCollaborativeFiltering,
		dsl.SourceSoftmax,
	} {
		f.Add(src)
	}
	f.Add("aggregator average; model_input x[2]; model w[3037000500, 3037000500]; gradient g[3037000500, 3037000500]; iterator i[0:1]; g[i, i] = w[i, i] - x[0];")
	f.Add("aggregator average; model_input x[2]; model w[2000000000]; gradient g[2000000000]; iterator i[0:1]; g[i] = w[i] - x[0];")
	f.Add("aggregator average; model_input x[M]; model w[M]; gradient g[M]; iterator i[0:M]; iterator j[0:M]; g[i] = sum[j](sum[i](w[j] * x[i]));")
	f.Add("aggregator sum; model_input x[M]; model w[M]; gradient g[M]; iterator i[0:M]; g[i] = x[i] > 0 ? w[i] * x[i] : -w[i];")
	f.Add("aggregator sum; model w[2]; gradient g[2]; iterator i[0:2]; t[i] = w[i] * w[i]; g[i] = t[1 - i] + 1 / 0;")
	f.Add("aggregator sum; model w[M]; gradient g[M]; iterator i[0:M]; g[i] = w[i + 1];")
	f.Add("aggregator sum; gradient g; g = " + strings.Repeat("-", 50) + "1;")

	f.Fuzz(func(t *testing.T, src string) {
		u, err := dsl.ParseAndAnalyze(src, fuzzParams)
		if err != nil {
			return
		}
		if checkWork(u, MaxNodes) == nil && checkWork(u, fuzzNodeBudget) != nil {
			return
		}
		g, err := Translate(u)
		if err != nil {
			if g != nil {
				t.Fatalf("Translate(%q) returned a graph with error %v", src, err)
			}
			return
		}
		if g == nil {
			t.Fatalf("Translate(%q) returned neither a graph nor an error", src)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Translate(%q) built an invalid graph: %v", src, err)
		}
	})
}

// laneFuzzOps are the ops FuzzLanes builds with, products and sums twice
// over so that fused product-sums and tail products are common.
var laneFuzzOps = []Op{
	OpMul, OpMul, OpMul, OpAdd, OpAdd, OpSub, OpDiv, OpNeg, OpGT, OpLE, OpEQ,
	OpSelect, OpSigmoid, OpGaussian, OpExp, OpLog, OpSqrt, OpTanh, OpRelu, OpSign,
	OpLT, OpGE, OpNE,
}

// laneFuzzGraph builds a random DAG from fuzz bytes: model symbols w and v
// of one to three elements, data x of one to three, two constants, up to 47
// ops, and gradients gw and gv pairing with w and v — each element any node
// at all, leaves and constants included. It returns the graph, a trainer's
// layout for it and a lane width of one to five.
func laneFuzzGraph(b []byte) (*Graph, LaneLayout, int) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return int(c)
	}
	g := &Graph{Symbols: []string{"", "w", "v", "x"}, Outputs: map[string][]int32{}}
	mk := func(n Node, args ...int32) int32 {
		n.Arity = uint8(copy(n.Arg[:], args))
		g.Nodes = append(g.Nodes, n)
		return int32(len(g.Nodes) - 1)
	}
	words := []int{1 + next()%3, 1 + next()%3} // w, v
	for sym, n := range [...]int{words[0], words[1], 1 + next()%3} {
		for i := 0; i < n; i++ {
			mk(Node{Op: [...]Op{OpModel, OpModel, OpData}[sym], Sym: int32(sym + 1), Index: int32(i)})
		}
	}
	for i := 0; i < 2; i++ {
		mk(Node{Op: OpConst, Const: laneSpecials[next()%len(laneSpecials)]})
	}
	for n := next() % 48; n > 0; n-- {
		op := laneFuzzOps[next()%len(laneFuzzOps)]
		arity := 2
		switch op {
		case OpSelect:
			arity = 3
		case OpNeg, OpSigmoid, OpGaussian, OpExp, OpLog, OpSqrt, OpTanh, OpRelu, OpSign:
			arity = 1
		}
		var args [3]int32
		for i := range args[:arity] {
			args[i] = int32(len(g.Nodes) - 1 - next()%len(g.Nodes)) // recent nodes first
		}
		mk(Node{Op: op}, args[:arity]...)
	}
	layout := LaneLayout{Model: []ModelSpan{{Name: "w", Words: words[0]}, {Name: "v", Words: words[1]}}}
	for i, name := range []string{"gw", "gv"} {
		for e := 0; e < words[i]; e++ {
			slot := int32(len(g.Nodes) - 1 - next()%len(g.Nodes))
			g.Outputs[name] = append(g.Outputs[name], slot)
			layout.Grads = append(layout.Grads, int(slot))
		}
		g.OutputOrder = append(g.OutputOrder, name)
	}
	g.Link()
	return g, layout, 1 + next()%5
}

// FuzzLanes asserts the lane arena's contract on random programs: under
// every update, at every width, each lane holds what a scalar Arena plus an
// explicit step holds (checkLaneUpdates), whichever gradient rows join the
// update tail and whichever fall back, and however temporaries share rows.
func FuzzLanes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 2, 0, 3, 20, 0, 1, 0, 2, 0, 1, 3, 1, 2, 4, 0, 5, 1, 0, 0, 1, 2, 3, 0, 2})
	f.Add([]byte{1, 1, 1, 7, 1, 40, 11, 3, 4, 5, 12, 1, 2, 0, 0, 1, 6, 2, 3, 9, 1, 0, 0, 3, 2, 0, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		g, layout, width := laneFuzzGraph(b)
		tape, err := g.CompileTape()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		checkLaneUpdates(t, tape, layout, width, specialDraw(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}
