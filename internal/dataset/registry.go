// Package dataset defines the paper's 10-benchmark suite (Table 1) and
// deterministic synthetic dataset generators for each benchmark.
//
// The original datasets (MNIST, Netflix Prize, gene-expression microarrays,
// tick-level stock data, ...) are not available offline, so each benchmark is
// paired with a generator that preserves what the system's behaviour actually
// depends on: the geometry (feature count, model topology, number of
// training vectors) and learnability (labels derive from a hidden
// ground-truth model, so SGD convergence is observable).
package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/ml"
)

// Family names the five algorithm families of the suite.
type Family string

// The algorithm families.
const (
	FamilyBackprop Family = "backprop"
	FamilyLinReg   Family = "linreg"
	FamilyLogReg   Family = "logreg"
	FamilyCF       Family = "cf"
	FamilySVM      Family = "svm"
)

// Benchmark describes one entry of Table 1.
type Benchmark struct {
	Name        string
	Family      Family
	Domain      string
	Description string

	// Features is the number of elements in each training vector.
	Features int
	// Topology is the model topology: layer sizes for backprop, {M} for the
	// linear families, {users, items, rank} for collaborative filtering.
	Topology []int
	// NumVectors is the number of training vectors in the paper's dataset.
	NumVectors int
	// DataGB is the paper-reported input data size in gigabytes.
	DataGB float64
	// PaperLoC is the paper-reported DSL lines of code.
	PaperLoC int
}

// Benchmarks is the full suite in Table 1 order.
var Benchmarks = []Benchmark{
	{
		Name: "mnist", Family: FamilyBackprop, Domain: "Image Processing",
		Description: "Handwritten digit pattern recognition",
		Features:    784, Topology: []int{784, 784, 10},
		NumVectors: 60000, DataGB: 0.4, PaperLoC: 55,
	},
	{
		Name: "acoustic", Family: FamilyBackprop, Domain: "Audio Processing",
		Description: "Hierarchical acoustic modeling for speech recognition",
		Features:    351, Topology: []int{351, 1000, 40},
		NumVectors: 942626, DataGB: 5.6, PaperLoC: 55,
	},
	{
		Name: "stock", Family: FamilyLinReg, Domain: "Finance",
		Description: "Stock price prediction",
		Features:    8000, Topology: []int{8000},
		NumVectors: 130503, DataGB: 14.7, PaperLoC: 23,
	},
	{
		Name: "texture", Family: FamilyLinReg, Domain: "Image Processing",
		Description: "Image texture recognition",
		Features:    16384, Topology: []int{16384},
		NumVectors: 77461, DataGB: 17.9, PaperLoC: 23,
	},
	{
		Name: "tumor", Family: FamilyLogReg, Domain: "Medical Diagnosis",
		Description: "Tumor classification using gene expression microarray",
		Features:    2000, Topology: []int{2000},
		NumVectors: 387944, DataGB: 10.4, PaperLoC: 22,
	},
	{
		Name: "cancer1", Family: FamilyLogReg, Domain: "Medical Diagnosis",
		Description: "Prostate cancer diagnosis based on the gene expressions",
		Features:    6033, Topology: []int{6033},
		NumVectors: 167219, DataGB: 13.5, PaperLoC: 22,
	},
	{
		Name: "movielens", Family: FamilyCF, Domain: "Recommender System",
		Description: "Movielens recommender system",
		Features:    30101, Topology: []int{20101, 10000, 10},
		NumVectors: 24404096, DataGB: 0.6, PaperLoC: 42,
	},
	{
		Name: "netflix", Family: FamilyCF, Domain: "Recommender System",
		Description: "Netflix recommender system",
		Features:    73066, Topology: []int{55366, 17700, 10},
		NumVectors: 100498287, DataGB: 2.0, PaperLoC: 42,
	},
	{
		Name: "face", Family: FamilySVM, Domain: "Computer Vision",
		Description: "Human face detection",
		Features:    1740, Topology: []int{1740},
		NumVectors: 678392, DataGB: 15.9, PaperLoC: 27,
	},
	{
		Name: "cancer2", Family: FamilySVM, Domain: "Medical Diagnosis",
		Description: "Cancer diagnosis based on the gene expressions",
		Features:    7129, Topology: []int{7129},
		NumVectors: 208444, DataGB: 20.0, PaperLoC: 27,
	},
}

// familyAliases maps algorithm-family names to a representative Table 1
// benchmark, so tools accept `-bench logistic` as well as `-bench tumor`.
var familyAliases = map[string]string{
	"logistic": "tumor",
	"logreg":   "tumor",
	"linear":   "stock",
	"linreg":   "stock",
	"svm":      "face",
	"backprop": "mnist",
	"mlp":      "mnist",
	"cf":       "movielens",
}

// ByName returns the benchmark with the given name. Algorithm-family names
// (logistic, linear, svm, backprop, cf, ...) resolve to a representative
// benchmark of that family.
func ByName(name string) (Benchmark, error) {
	if canon, ok := familyAliases[name]; ok {
		name = canon
	}
	for _, b := range Benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("dataset: unknown benchmark %q", name)
}

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	names := make([]string, len(Benchmarks))
	for i, b := range Benchmarks {
		names[i] = b.Name
	}
	return names
}

// ModelParams returns the number of model parameters at full (paper)
// geometry.
func (b Benchmark) ModelParams() int {
	switch b.Family {
	case FamilyBackprop:
		in, hid, out := b.Topology[0], b.Topology[1], b.Topology[2]
		return hid*in + out*hid
	case FamilyCF:
		return (b.Topology[0] + b.Topology[1]) * b.Topology[2]
	default:
		return b.Topology[0]
	}
}

// ModelKB returns the model size in kilobytes assuming 32-bit parameters,
// the unit Table 1 uses.
func (b Benchmark) ModelKB() float64 {
	return float64(b.ModelParams()) * 4 / 1024
}

// Algorithm instantiates the benchmark's algorithm at a geometry scaled by
// scale in (0,1]. scale=1 is the paper geometry; smaller scales preserve
// topology shape while shrinking every dimension (used by the cycle-level
// simulator, which elaborates the full DFG).
func (b Benchmark) Algorithm(scale float64) ml.Algorithm {
	dim := func(n int) int { return scaleDim(n, scale) }
	switch b.Family {
	case FamilyBackprop:
		return &ml.MLP{In: dim(b.Topology[0]), Hid: dim(b.Topology[1]), Out: dim(b.Topology[2])}
	case FamilyLinReg:
		return &ml.LinearRegression{M: dim(b.Topology[0])}
	case FamilyLogReg:
		return &ml.LogisticRegression{M: dim(b.Topology[0])}
	case FamilySVM:
		return &ml.SVM{M: dim(b.Topology[0])}
	case FamilyCF:
		// The factor rank K is an algorithmic constant; only the user/item
		// populations shrink.
		return &ml.CF{NU: dim(b.Topology[0]), NV: dim(b.Topology[1]), K: b.Topology[2]}
	}
	panic("dataset: unknown family " + string(b.Family))
}

// scaleDim scales n by s, clamped to at least 2 so reductions and one-hot
// encodings stay non-degenerate.
func scaleDim(n int, s float64) int {
	if s >= 1 {
		return n
	}
	v := int(math.Round(float64(n) * s))
	if v < 2 {
		v = 2
	}
	return v
}

// DefaultLR returns a learning rate that keeps SGD stable for the
// benchmark's family at the algorithm's geometry. Squared-loss linear
// regression on N(0,1) features diverges unless μ ≲ 1/‖x‖² ≈ 1/M, so its
// rate shrinks with the feature count; the other families have bounded
// per-sample gradients.
func (b Benchmark) DefaultLR(alg ml.Algorithm) float64 {
	switch b.Family {
	case FamilyLinReg:
		return 0.5 / float64(alg.FeatureSize())
	case FamilyLogReg:
		return 0.1
	case FamilySVM:
		return 0.05
	case FamilyBackprop:
		return 0.5
	case FamilyCF:
		return 0.05
	}
	return 0.01
}

// seedFor derives a stable per-benchmark seed.
func seedFor(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64()) ^ seed
}

// Generate produces n learnable synthetic training samples for the
// benchmark's algorithm alg (which must come from b.Algorithm). The same
// (benchmark, seed, n) always yields the same data. The samples share one
// backing array, each one's X then Y, in generation order.
func (b Benchmark) Generate(alg ml.Algorithm, n int, seed int64) []ml.Sample {
	rng := rand.New(rand.NewSource(seedFor(b.Name, seed)))
	truth := groundTruth(alg, rng)
	nx, row := alg.FeatureSize(), alg.FeatureSize()+alg.OutputSize()
	store := make([]float64, n*row)
	var hidden []float64
	if a, ok := alg.(*ml.MLP); ok {
		hidden = make([]float64, a.Hid)
	}
	samples := make([]ml.Sample, n)
	for i := range samples {
		off := i * row
		samples[i] = ml.Sample{
			X: store[off : off+nx : off+nx],
			Y: store[off+nx : off+row : off+row],
		}
		fillSample(alg, truth, samples[i], hidden, rng)
	}
	return samples
}

// GroundTruth returns the hidden model the generator labels from, for tests
// that check recovery.
func (b Benchmark) GroundTruth(alg ml.Algorithm, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seedFor(b.Name, seed)))
	return groundTruth(alg, rng)
}

func groundTruth(alg ml.Algorithm, rng *rand.Rand) []float64 {
	truth := make([]float64, alg.ModelSize())
	switch alg.(type) {
	case *ml.CF:
		for i := range truth {
			truth[i] = 0.2 + 0.8*rng.Float64()
		}
	case *ml.MLP:
		truth = alg.InitModel(rng)
		ml.Scale(3, truth) // saturate activations enough to be learnable
	default:
		for i := range truth {
			truth[i] = rng.NormFloat64() / math.Sqrt(float64(len(truth)))
		}
	}
	return truth
}

// fillSample draws one sample into s, whose X and Y are zero. hidden is
// the MLP's hidden-layer scratch.
func fillSample(alg ml.Algorithm, truth []float64, s ml.Sample, hidden []float64, rng *rand.Rand) {
	switch a := alg.(type) {
	case *ml.CF:
		u, v := rng.Intn(a.NU), rng.Intn(a.NV)
		s.X[u], s.X[a.NU+v] = 1, 1
		// The rating is the factor rows' product e, plus noise, taken as
		// √(2·½e²): the pinned sets hold that rounding.
		uf, vf := truth[u*a.K:][:a.K], truth[(a.NU+v)*a.K:][:a.K]
		e := serialDot(uf, vf)
		l := 0.5 * e * e
		s.Y[0] = math.Sqrt(2*l) + 0.05*rng.NormFloat64()
	case *ml.MLP:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		mlpForward(a, truth, s.X, hidden, s.Y)
	case *ml.SVM:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		if serialDot(truth, s.X) >= 0 {
			s.Y[0] = 1
		} else {
			s.Y[0] = -1
		}
	case *ml.LogisticRegression:
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		p := 1 / (1 + math.Exp(-4*serialDot(truth, s.X)))
		if rng.Float64() < p {
			s.Y[0] = 1
		}
	default: // linear regression
		for i := range s.X {
			s.X[i] = rng.NormFloat64()
		}
		s.Y[0] = serialDot(truth, s.X) + 0.01*rng.NormFloat64()
	}
}

// mlpForward runs the MLP forward pass via the loss-free route: reuse the
// algorithm's gradient machinery would be circular, so compute directly.
// It writes the hidden layer into h and the outputs into o.
func mlpForward(a *ml.MLP, model, x, h, o []float64) {
	w1 := model[:a.Hid*a.In]
	w2 := model[a.Hid*a.In:]
	for j := 0; j < a.Hid; j++ {
		h[j] = 1 / (1 + math.Exp(-serialDot(w1[j*a.In:(j+1)*a.In], x)))
	}
	for k := 0; k < a.Out; k++ {
		o[k] = 1 / (1 + math.Exp(-serialDot(w2[k*a.Hid:(k+1)*a.Hid], h)))
	}
}

// serialDot is the generator's own inner product, added one product at a
// time in index order. The generated sets stand in for fixed data files, so
// their bits must not follow the reference trainer's summation order
// (ml.Dot, the accelerator's reduce tree): this sum is frozen as the
// generator first computed it.
func serialDot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}
