package ml

import (
	"fmt"
	"math"
)

// Predictor exposes an algorithm's transfer function g(θ, X) for inference.
// Training subsumes prediction in this class of algorithms ("since training
// involves prediction, CoSMIC can accelerate prediction as well"), so every
// algorithm family implements it.
type Predictor interface {
	// Predict evaluates the trained model on one input vector, returning
	// the predicted output(s) in the same layout as Sample.Y.
	Predict(model []float64, x []float64) []float64
}

// Predict evaluates w·x.
func (a *LinearRegression) Predict(model []float64, x []float64) []float64 {
	return []float64{Dot(model, x)}
}

// Predict evaluates σ(w·x), the class-1 probability.
func (a *LogisticRegression) Predict(model []float64, x []float64) []float64 {
	return []float64{sigmoid(Dot(model, x))}
}

// Predict evaluates the signed margin w·x.
func (a *SVM) Predict(model []float64, x []float64) []float64 {
	return []float64{Dot(model, x)}
}

// Predict runs the forward pass.
func (a *MLP) Predict(model []float64, x []float64) []float64 {
	_, o := a.forward(model, x)
	return o
}

// Predict evaluates the factor model's rating uf·vf for the one-hot
// encoded (user, item) pair.
func (a *CF) Predict(model []float64, x []float64) []float64 {
	uf, vf := a.factors(model, x)
	return []float64{Dot(uf, vf)}
}

// Predict returns the class probabilities.
func (a *Softmax) Predict(model []float64, x []float64) []float64 {
	return a.probs(model, x)
}

// Statically assert every family implements Predictor.
var (
	_ Predictor = (*LinearRegression)(nil)
	_ Predictor = (*LogisticRegression)(nil)
	_ Predictor = (*SVM)(nil)
	_ Predictor = (*MLP)(nil)
	_ Predictor = (*CF)(nil)
	_ Predictor = (*Softmax)(nil)
)

// Accuracy returns the fraction of samples an algorithm classifies
// correctly, with the decision rule appropriate to each family: sign of
// the margin for SVM, a 0.5 threshold for logistic regression, and argmax
// for the multi-output families. It fails for pure-regression algorithms,
// which have no classification semantics — use RMSE for those.
func Accuracy(alg Algorithm, model []float64, data []Sample) (float64, error) {
	p, ok := alg.(Predictor)
	if !ok {
		return 0, fmt.Errorf("ml: %s does not predict", alg.Name())
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("ml: no samples")
	}
	correct := 0
	for _, s := range data {
		out := p.Predict(model, s.X)
		switch alg.(type) {
		case *SVM:
			pred := 1.0
			if out[0] < 0 {
				pred = -1
			}
			if pred == s.Y[0] {
				correct++
			}
		case *LogisticRegression:
			pred := 0.0
			if out[0] >= 0.5 {
				pred = 1
			}
			if pred == s.Y[0] {
				correct++
			}
		case *MLP, *Softmax:
			if argmax(out) == argmax(s.Y) {
				correct++
			}
		default:
			return 0, fmt.Errorf("ml: %s has no classification rule; use RMSE", alg.Name())
		}
	}
	return float64(correct) / float64(len(data)), nil
}

// RMSE returns the root-mean-square prediction error over data.
func RMSE(alg Algorithm, model []float64, data []Sample) (float64, error) {
	p, ok := alg.(Predictor)
	if !ok {
		return 0, fmt.Errorf("ml: %s does not predict", alg.Name())
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("ml: no samples")
	}
	sum := 0.0
	n := 0
	for _, s := range data {
		out := p.Predict(model, s.X)
		for k := range out {
			d := out[k] - s.Y[k]
			sum += float64(d * d)
			n++
		}
	}
	return math.Sqrt(sum / float64(n)), nil
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	_ = xs[best]
	return best
}
