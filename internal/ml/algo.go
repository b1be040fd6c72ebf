// Package ml provides reference implementations of the paper's five learning
// algorithm families (linear regression, logistic regression, support vector
// machines, backpropagation, collaborative filtering) together with the
// sequential and parallel stochastic-gradient-descent optimizers CoSMIC
// distributes.
//
// These implementations are the golden functional reference: the DFG
// evaluator and the cycle-level accelerator simulator are both checked
// against them, and the distributed runtime uses them as its fast
// gradient engine.
package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/vec"
)

// Sample is one training example: the model_input values X and the
// model_output values Y, flattened per the algorithm's layout.
type Sample struct {
	X []float64
	Y []float64
}

// Algorithm is a trainable learning algorithm expressed as a loss and its
// gradient, the two ingredients stochastic gradient descent needs. The model
// is a flat parameter vector whose layout the algorithm defines.
type Algorithm interface {
	// Name returns the algorithm family name.
	Name() string
	// ModelSize returns the length of the flat parameter vector.
	ModelSize() int
	// FeatureSize returns the length of Sample.X.
	FeatureSize() int
	// OutputSize returns the length of Sample.Y.
	OutputSize() int
	// Gradient computes the partial gradient of the per-sample loss at
	// model into grad (len(grad) == ModelSize()).
	Gradient(model []float64, s Sample, grad []float64)
	// Loss returns the per-sample loss at model.
	Loss(model []float64, s Sample) float64
	// InitModel returns a freshly initialized parameter vector drawn
	// from rng.
	InitModel(rng *rand.Rand) []float64
	// DSLSource returns the CoSMIC DSL program for this algorithm.
	DSLSource() string
	// DSLParams returns the dimension parameters that instantiate
	// DSLSource at this algorithm's geometry.
	DSLParams() map[string]int
	// PackSample converts a flat sample into the per-symbol data bindings
	// the DFG evaluator and accelerator simulator consume.
	PackSample(s Sample) map[string][]float64
	// PackModel converts the flat model into per-symbol bindings.
	PackModel(model []float64) map[string][]float64
	// UnpackGradient flattens per-symbol gradient outputs back into the
	// flat layout of the model vector.
	UnpackGradient(grads map[string][]float64) []float64
}

// rank1 is implemented by the families whose per-sample gradient is a
// scalar residual times the features — LinearRegression,
// LogisticRegression and SVM. residual is the single definition of their
// math: the gradient is e·x, or all zeros when nonzero is false (SVM outside
// its margin). The SGD kernels use it to update the model with no gradient
// vector.
type rank1 interface {
	residual(model []float64, s Sample) (e float64, nonzero bool)
}

// rank1Gradient writes r's gradient at model into grad.
func rank1Gradient(r rank1, model []float64, s Sample, grad []float64) {
	e, nonzero := r.residual(model, s)
	if !nonzero {
		clear(grad)
		return
	}
	x := s.X[:len(grad)]
	for i, v := range x {
		grad[i] = e * v
	}
}

// checkLens panics if the model or gradient slices do not match the
// algorithm geometry; misuse here is a programming error, not an input
// error.
func checkLens(a Algorithm, model, grad []float64) {
	if len(model) != a.ModelSize() {
		panic(fmt.Sprintf("ml: %s: model length %d, want %d", a.Name(), len(model), a.ModelSize()))
	}
	if grad != nil && len(grad) != a.ModelSize() {
		panic(fmt.Sprintf("ml: %s: gradient length %d, want %d", a.Name(), len(grad), a.ModelSize()))
	}
}

// Dot returns the inner product of two equal-length vectors, summed in the
// accelerator's reduce-tree order (vec.Dot).
func Dot(a, b []float64) float64 { return vec.Dot(a, b) }

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) { vec.ScaleRow(y, x, alpha, vec.Acc) }

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) { vec.ScaleRow(x, x, alpha, vec.Set) }

// MeanLoss returns the average per-sample loss over samples.
func MeanLoss(a Algorithm, model []float64, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range samples {
		total += a.Loss(model, s)
	}
	return total / float64(len(samples))
}

// gaussianVec fills a vector with N(0, sigma) draws.
func gaussianVec(rng *rand.Rand, n int, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * sigma
	}
	return v
}
