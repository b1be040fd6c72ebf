package ml

import (
	"math"
	"math/rand"

	"repro/internal/dsl"
)

// sigmoid is the logistic function.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// LinearRegression trains y = w·x under squared loss (benchmarks: stock,
// texture).
type LinearRegression struct {
	M int // feature count
}

// Name returns "linreg".
func (a *LinearRegression) Name() string { return "linreg" }

// ModelSize returns M.
func (a *LinearRegression) ModelSize() int { return a.M }

// FeatureSize returns M.
func (a *LinearRegression) FeatureSize() int { return a.M }

// OutputSize returns 1.
func (a *LinearRegression) OutputSize() int { return 1 }

// Loss returns ½(w·x − y)².
func (a *LinearRegression) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	e := Dot(model, s.X) - s.Y[0]
	return 0.5 * e * e
}

// residual returns w·x − y.
func (a *LinearRegression) residual(model []float64, s Sample) (float64, bool) {
	checkLens(a, model, nil)
	return Dot(model, s.X) - s.Y[0], true
}

// Gradient computes ∂L/∂wᵢ = (w·x − y)·xᵢ.
func (a *LinearRegression) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	rank1Gradient(a, model, s, grad)
}

// InitModel returns small random weights.
func (a *LinearRegression) InitModel(rng *rand.Rand) []float64 {
	return gaussianVec(rng, a.M, 0.01)
}

// DSLSource returns the linear-regression DSL program.
func (a *LinearRegression) DSLSource() string { return dsl.SourceLinearRegression }

// DSLParams returns {M}.
func (a *LinearRegression) DSLParams() map[string]int { return map[string]int{"M": a.M} }

// PackSample maps X to symbol x and Y to symbol y.
func (a *LinearRegression) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"x": s.X, "y": s.Y}
}

// PackModel maps the flat model to symbol w.
func (a *LinearRegression) PackModel(model []float64) map[string][]float64 {
	return map[string][]float64{"w": model}
}

// UnpackGradient flattens symbol g.
func (a *LinearRegression) UnpackGradient(grads map[string][]float64) []float64 {
	return grads["g"]
}

// LogisticRegression trains p = σ(w·x) under cross-entropy loss
// (benchmarks: tumor, cancer1).
type LogisticRegression struct {
	M int
}

// Name returns "logreg".
func (a *LogisticRegression) Name() string { return "logreg" }

// ModelSize returns M.
func (a *LogisticRegression) ModelSize() int { return a.M }

// FeatureSize returns M.
func (a *LogisticRegression) FeatureSize() int { return a.M }

// OutputSize returns 1.
func (a *LogisticRegression) OutputSize() int { return 1 }

// Loss returns the binary cross-entropy with label y ∈ {0,1}.
func (a *LogisticRegression) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	p := sigmoid(Dot(model, s.X))
	const eps = 1e-12
	y := s.Y[0]
	return -(float64(y*math.Log(p+eps)) + float64((1-y)*math.Log(1-p+eps)))
}

// residual returns σ(w·x) − y.
func (a *LogisticRegression) residual(model []float64, s Sample) (float64, bool) {
	checkLens(a, model, nil)
	return sigmoid(Dot(model, s.X)) - s.Y[0], true
}

// Gradient computes ∂L/∂wᵢ = (σ(w·x) − y)·xᵢ.
func (a *LogisticRegression) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	rank1Gradient(a, model, s, grad)
}

// InitModel returns small random weights.
func (a *LogisticRegression) InitModel(rng *rand.Rand) []float64 {
	return gaussianVec(rng, a.M, 0.01)
}

// DSLSource returns the logistic-regression DSL program.
func (a *LogisticRegression) DSLSource() string { return dsl.SourceLogisticRegression }

// DSLParams returns {M}.
func (a *LogisticRegression) DSLParams() map[string]int { return map[string]int{"M": a.M} }

// PackSample maps X to symbol x and Y to symbol y.
func (a *LogisticRegression) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"x": s.X, "y": s.Y}
}

// PackModel maps the flat model to symbol w.
func (a *LogisticRegression) PackModel(model []float64) map[string][]float64 {
	return map[string][]float64{"w": model}
}

// UnpackGradient flattens symbol g.
func (a *LogisticRegression) UnpackGradient(grads map[string][]float64) []float64 {
	return grads["g"]
}

// SVM trains a linear support vector machine under hinge loss with labels
// y ∈ {−1,+1} (benchmarks: face, cancer2).
type SVM struct {
	M int
}

// Name returns "svm".
func (a *SVM) Name() string { return "svm" }

// ModelSize returns M.
func (a *SVM) ModelSize() int { return a.M }

// FeatureSize returns M.
func (a *SVM) FeatureSize() int { return a.M }

// OutputSize returns 1.
func (a *SVM) OutputSize() int { return 1 }

// Loss returns max(0, 1 − y·(w·x)).
func (a *SVM) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	return math.Max(0, 1-float64(s.Y[0]*Dot(model, s.X)))
}

// residual returns −y, nonzero only inside the margin (y·(w·x) < 1).
func (a *SVM) residual(model []float64, s Sample) (float64, bool) {
	checkLens(a, model, nil)
	return -s.Y[0], s.Y[0]*Dot(model, s.X) < 1
}

// Gradient computes the hinge subgradient: −y·xᵢ inside the margin, else 0.
func (a *SVM) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	rank1Gradient(a, model, s, grad)
}

// InitModel returns small random weights.
func (a *SVM) InitModel(rng *rand.Rand) []float64 {
	return gaussianVec(rng, a.M, 0.01)
}

// DSLSource returns the SVM DSL program.
func (a *SVM) DSLSource() string { return dsl.SourceSVM }

// DSLParams returns {M}.
func (a *SVM) DSLParams() map[string]int { return map[string]int{"M": a.M} }

// PackSample maps X to symbol x and Y to symbol y.
func (a *SVM) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"x": s.X, "y": s.Y}
}

// PackModel maps the flat model to symbol w.
func (a *SVM) PackModel(model []float64) map[string][]float64 {
	return map[string][]float64{"w": model}
}

// UnpackGradient flattens symbol g.
func (a *SVM) UnpackGradient(grads map[string][]float64) []float64 {
	return grads["g"]
}

// MLP trains a fully connected In×Hid×Out perceptron with sigmoid
// activations under squared loss via backpropagation (benchmarks: mnist,
// acoustic). The flat model layout is w1 (Hid×In, row-major) followed by w2
// (Out×Hid, row-major).
type MLP struct {
	In, Hid, Out int
}

// Name returns "backprop".
func (a *MLP) Name() string { return "backprop" }

// ModelSize returns Hid·In + Out·Hid.
func (a *MLP) ModelSize() int { return a.Hid*a.In + a.Out*a.Hid }

// FeatureSize returns In.
func (a *MLP) FeatureSize() int { return a.In }

// OutputSize returns Out.
func (a *MLP) OutputSize() int { return a.Out }

func (a *MLP) split(model []float64) (w1, w2 []float64) {
	return model[:a.Hid*a.In], model[a.Hid*a.In:]
}

// forward computes hidden activations h and outputs o.
func (a *MLP) forward(model []float64, x []float64) (h, o []float64) {
	w1, w2 := a.split(model)
	h = make([]float64, a.Hid)
	for j := 0; j < a.Hid; j++ {
		h[j] = sigmoid(Dot(w1[j*a.In:(j+1)*a.In], x))
	}
	o = make([]float64, a.Out)
	for k := 0; k < a.Out; k++ {
		o[k] = sigmoid(Dot(w2[k*a.Hid:(k+1)*a.Hid], h))
	}
	return h, o
}

// Loss returns ½‖o − y‖².
func (a *MLP) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	_, o := a.forward(model, s.X)
	l := 0.0
	for k, ok := range o {
		d := ok - s.Y[k]
		l += float64(0.5 * d * d)
	}
	return l
}

// Gradient backpropagates the squared loss through both layers.
func (a *MLP) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	_, w2 := a.split(model)
	g1, g2 := grad[:a.Hid*a.In], grad[a.Hid*a.In:]
	h, o := a.forward(model, s.X)
	d2, col := make([]float64, a.Out), make([]float64, a.Out)
	for k := 0; k < a.Out; k++ {
		d2[k] = (o[k] - s.Y[k]) * o[k] * (1 - o[k])
		for j := 0; j < a.Hid; j++ {
			g2[k*a.Hid+j] = d2[k] * h[j]
		}
	}
	for j := 0; j < a.Hid; j++ {
		for k := range col {
			col[k] = w2[k*a.Hid+j]
		}
		e := Dot(d2, col)
		d1 := e * h[j] * (1 - h[j])
		for i := 0; i < a.In; i++ {
			g1[j*a.In+i] = d1 * s.X[i]
		}
	}
}

// InitModel returns Xavier-ish small random weights.
func (a *MLP) InitModel(rng *rand.Rand) []float64 {
	m := make([]float64, a.ModelSize())
	s1 := 1 / math.Sqrt(float64(a.In))
	s2 := 1 / math.Sqrt(float64(a.Hid))
	for i := 0; i < a.Hid*a.In; i++ {
		m[i] = rng.NormFloat64() * s1
	}
	for i := a.Hid * a.In; i < len(m); i++ {
		m[i] = rng.NormFloat64() * s2
	}
	return m
}

// DSLSource returns the backpropagation DSL program.
func (a *MLP) DSLSource() string { return dsl.SourceBackprop }

// DSLParams returns {IN, HID, OUT}.
func (a *MLP) DSLParams() map[string]int {
	return map[string]int{"IN": a.In, "HID": a.Hid, "OUT": a.Out}
}

// PackSample maps X to symbol x and Y to symbol y.
func (a *MLP) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"x": s.X, "y": s.Y}
}

// PackModel splits the flat model into symbols w1 and w2.
func (a *MLP) PackModel(model []float64) map[string][]float64 {
	w1, w2 := a.split(model)
	return map[string][]float64{"w1": w1, "w2": w2}
}

// UnpackGradient concatenates symbols g1 and g2.
func (a *MLP) UnpackGradient(grads map[string][]float64) []float64 {
	out := make([]float64, 0, a.ModelSize())
	out = append(out, grads["g1"]...)
	return append(out, grads["g2"]...)
}

// CF trains a rank-K matrix-factorization recommender (benchmarks:
// movielens, netflix). A sample one-hot encodes the user in X[0:NU] and the
// item in X[NU:NU+NV]; Y[0] is the rating. The flat model layout is the
// user-factor matrix U (NU×K, row-major) followed by the item-factor matrix
// V (NV×K, row-major).
type CF struct {
	NU, NV, K int
}

// Name returns "cf".
func (a *CF) Name() string { return "cf" }

// ModelSize returns (NU+NV)·K.
func (a *CF) ModelSize() int { return (a.NU + a.NV) * a.K }

// FeatureSize returns NU+NV.
func (a *CF) FeatureSize() int { return a.NU + a.NV }

// OutputSize returns 1.
func (a *CF) OutputSize() int { return 1 }

func (a *CF) split(model []float64) (u, v []float64) {
	return model[:a.NU*a.K], model[a.NU*a.K:]
}

// factors gathers the active user and item factor rows through the one-hot
// encodings (exactly what the DFG's Σ over the one-hot vectors computes).
func (a *CF) factors(model []float64, x []float64) (uf, vf []float64) {
	u, v := a.split(model)
	uf = make([]float64, a.K)
	vf = make([]float64, a.K)
	for i := 0; i < a.NU; i++ {
		if x[i] != 0 {
			AXPY(x[i], u[i*a.K:(i+1)*a.K], uf)
		}
	}
	for j := 0; j < a.NV; j++ {
		if x[a.NU+j] != 0 {
			AXPY(x[a.NU+j], v[j*a.K:(j+1)*a.K], vf)
		}
	}
	return uf, vf
}

// Loss returns ½(uf·vf − r)².
func (a *CF) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	uf, vf := a.factors(model, s.X)
	e := Dot(uf, vf) - s.Y[0]
	return 0.5 * e * e
}

// Gradient computes ∂L/∂U[a,k] = e·xu[a]·vf[k] and ∂L/∂V[b,k] =
// e·xv[b]·uf[k].
func (a *CF) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	uf, vf := a.factors(model, s.X)
	e := Dot(uf, vf) - s.Y[0]
	gu, gv := grad[:a.NU*a.K], grad[a.NU*a.K:]
	for i := 0; i < a.NU; i++ {
		for k := 0; k < a.K; k++ {
			gu[i*a.K+k] = e * s.X[i] * vf[k]
		}
	}
	for j := 0; j < a.NV; j++ {
		for k := 0; k < a.K; k++ {
			gv[j*a.K+k] = e * s.X[a.NU+j] * uf[k]
		}
	}
}

// InitModel returns small positive random factors.
func (a *CF) InitModel(rng *rand.Rand) []float64 {
	m := make([]float64, a.ModelSize())
	for i := range m {
		m[i] = 0.1 + float64(0.1*rng.Float64())
	}
	return m
}

// DSLSource returns the collaborative-filtering DSL program.
func (a *CF) DSLSource() string { return dsl.SourceCollaborativeFiltering }

// DSLParams returns {NU, NV, K}.
func (a *CF) DSLParams() map[string]int {
	return map[string]int{"NU": a.NU, "NV": a.NV, "K": a.K}
}

// PackSample splits X into one-hot symbols xu, xv and Y into rating r.
func (a *CF) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"xu": s.X[:a.NU], "xv": s.X[a.NU:], "r": s.Y}
}

// PackModel splits the flat model into symbols u and v.
func (a *CF) PackModel(model []float64) map[string][]float64 {
	u, v := a.split(model)
	return map[string][]float64{"u": u, "v": v}
}

// UnpackGradient concatenates symbols gu and gv.
func (a *CF) UnpackGradient(grads map[string][]float64) []float64 {
	out := make([]float64, 0, a.ModelSize())
	out = append(out, grads["gu"]...)
	return append(out, grads["gv"]...)
}

// Softmax trains a multi-class softmax (multinomial logistic) regression
// with cross-entropy loss; labels are one-hot vectors of length C. The flat
// model layout is W (C×M, row-major). It is not part of the paper's Table 1
// suite — it exists to exercise the stack's support for new learning
// models.
type Softmax struct {
	M, C int
}

// Name returns "softmax".
func (a *Softmax) Name() string { return "softmax" }

// ModelSize returns C·M.
func (a *Softmax) ModelSize() int { return a.C * a.M }

// FeatureSize returns M.
func (a *Softmax) FeatureSize() int { return a.M }

// OutputSize returns C.
func (a *Softmax) OutputSize() int { return a.C }

// probs computes the class probabilities.
func (a *Softmax) probs(model []float64, x []float64) []float64 {
	p := make([]float64, a.C)
	maxZ := math.Inf(-1)
	for c := 0; c < a.C; c++ {
		p[c] = Dot(model[c*a.M:(c+1)*a.M], x)
		if p[c] > maxZ {
			maxZ = p[c]
		}
	}
	sum := 0.0
	for c := range p {
		p[c] = math.Exp(p[c] - maxZ)
		sum += p[c]
	}
	for c := range p {
		p[c] /= sum
	}
	return p
}

// Loss returns the cross-entropy −Σ y_c log p_c.
func (a *Softmax) Loss(model []float64, s Sample) float64 {
	checkLens(a, model, nil)
	p := a.probs(model, s.X)
	const eps = 1e-12
	l := 0.0
	for c := 0; c < a.C; c++ {
		if s.Y[c] != 0 {
			l -= float64(s.Y[c] * math.Log(p[c]+eps))
		}
	}
	return l
}

// Gradient computes ∂L/∂w_{c,i} = (p_c − y_c)·x_i.
func (a *Softmax) Gradient(model []float64, s Sample, grad []float64) {
	checkLens(a, model, grad)
	p := a.probs(model, s.X)
	for c := 0; c < a.C; c++ {
		d := p[c] - s.Y[c]
		for i := 0; i < a.M; i++ {
			grad[c*a.M+i] = d * s.X[i]
		}
	}
}

// InitModel returns small random weights.
func (a *Softmax) InitModel(rng *rand.Rand) []float64 {
	return gaussianVec(rng, a.ModelSize(), 0.01)
}

// DSLSource returns the softmax DSL program.
func (a *Softmax) DSLSource() string { return dsl.SourceSoftmax }

// DSLParams returns {M, C}.
func (a *Softmax) DSLParams() map[string]int { return map[string]int{"M": a.M, "C": a.C} }

// PackSample maps X to symbol x and the one-hot label to symbol y.
func (a *Softmax) PackSample(s Sample) map[string][]float64 {
	return map[string][]float64{"x": s.X, "y": s.Y}
}

// PackModel maps the flat model to symbol w.
func (a *Softmax) PackModel(model []float64) map[string][]float64 {
	return map[string][]float64{"w": model}
}

// UnpackGradient flattens symbol g.
func (a *Softmax) UnpackGradient(grads map[string][]float64) []float64 {
	return grads["g"]
}
