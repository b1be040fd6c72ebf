package ml

import (
	"fmt"

	"repro/internal/dfg"
)

// TapeEvaluator executes an algorithm's gradient DFG on the compiled
// evaluation tape — the same compiled evaluator the accelerator simulator's
// MIMD threads run, minus the timing model. It gives the software reference
// stack a path that computes gradients from the DSL artifact itself, so
// models defined only as DSL programs (no hand-written Gradient) can train
// on the reference engine, and the hand-written gradients can be
// cross-checked against the compiled artifact.
type TapeEvaluator struct {
	alg  Algorithm
	tape *dfg.Tape
	// pairs matches model symbols to their updating gradient symbols in
	// declaration order (the fixed update rule θ ← θ − μ·∂f/∂θ).
	pairs [][2]string
	// gradSizes holds each gradient symbol's element count for
	// accumulator sizing.
	gradSizes map[string]int
}

// NewTapeEvaluator compiles the graph's evaluation tape for alg. The graph
// must carry its analyzed DSL unit (as every translated graph does) so
// model and gradient symbols can be paired.
func NewTapeEvaluator(alg Algorithm, g *dfg.Graph) (*TapeEvaluator, error) {
	if g.Unit == nil {
		return nil, fmt.Errorf("ml: tape evaluator needs a graph with its DSL unit")
	}
	tape, err := g.CompileTape()
	if err != nil {
		return nil, err
	}
	symPairs, err := g.Unit.ModelGradientPairs()
	if err != nil {
		return nil, err
	}
	te := &TapeEvaluator{alg: alg, tape: tape, gradSizes: map[string]int{}}
	for _, pr := range symPairs {
		te.pairs = append(te.pairs, [2]string{pr[0].Name, pr[1].Name})
	}
	for name, outs := range g.Outputs {
		te.gradSizes[name] = len(outs)
	}
	return te, nil
}

// LocalSGD is the tape-backed analog of ml.LocalSGD: sequential SGD over
// samples from a copy of model, evaluating each per-sample gradient on the
// tape, returning the updated flat parameters.
func (te *TapeEvaluator) LocalSGD(model []float64, samples []Sample, lr float64) ([]float64, error) {
	arena := te.tape.NewArena()
	// PackModel may alias the flat vector it is given; copy first so the
	// in-place local steps never leak into the caller's model.
	local := make([]float64, len(model))
	copy(local, model)
	packed := te.alg.PackModel(local)
	if err := arena.BindModel(packed); err != nil {
		return nil, err
	}
	for _, s := range samples {
		if err := arena.BindData(te.alg.PackSample(s)); err != nil {
			return nil, err
		}
		grads := arena.Eval()
		for _, pr := range te.pairs {
			mvec := packed[pr[0]]
			gvec := grads[pr[1]]
			for i := range mvec {
				mvec[i] -= lr * gvec[i]
			}
		}
		// Re-bind so the next sample's evaluation sees the update.
		if err := arena.BindModel(packed); err != nil {
			return nil, err
		}
	}
	return UnpackModel(te.alg, packed), nil
}

// AccumulateGradients is the tape-backed analog of ml.AccumulateGradients:
// the per-sample gradient sum at a fixed model, flattened to the model
// layout.
func (te *TapeEvaluator) AccumulateGradients(model []float64, samples []Sample) ([]float64, error) {
	arena := te.tape.NewArena()
	if err := arena.BindModel(te.alg.PackModel(model)); err != nil {
		return nil, err
	}
	acc := make(map[string][]float64, len(te.gradSizes))
	for name, n := range te.gradSizes {
		acc[name] = make([]float64, n)
	}
	for _, s := range samples {
		if err := arena.BindData(te.alg.PackSample(s)); err != nil {
			return nil, err
		}
		for name, g := range arena.Eval() {
			vec := acc[name]
			for i := range g {
				vec[i] += g[i]
			}
		}
	}
	return te.alg.UnpackGradient(acc), nil
}

// ModelLayout is where each packed model symbol's elements sit in an
// algorithm's flat model — symbol name → flat index of each element —
// recovered once from an index-stamped probe of PackModel.
type ModelLayout map[string][]int

// NewModelLayout probes alg's PackModel.
func NewModelLayout(alg Algorithm) ModelLayout {
	stamp := make([]float64, alg.ModelSize())
	for i := range stamp {
		stamp[i] = float64(i)
	}
	l := ModelLayout{}
	for name, vec := range alg.PackModel(stamp) {
		idx := make([]int, len(vec))
		for j, v := range vec {
			idx[j] = int(v)
		}
		l[name] = idx
	}
	return l
}

// Unpack writes the per-symbol vectors in packed to their places in the flat
// model out.
func (l ModelLayout) Unpack(out []float64, packed map[string][]float64) {
	for name, idx := range l {
		src := packed[name]
		for j, i := range idx {
			out[i] = src[j]
		}
	}
}

// UnpackModel flattens per-symbol model vectors back into the algorithm's
// flat layout.
func UnpackModel(alg Algorithm, packed map[string][]float64) []float64 {
	out := make([]float64, alg.ModelSize())
	NewModelLayout(alg).Unpack(out, packed)
	return out
}
