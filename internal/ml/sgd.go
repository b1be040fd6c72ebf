package ml

import (
	"fmt"

	"repro/internal/dsl"
)

// SGDConfig parameterizes a stochastic-gradient-descent run.
type SGDConfig struct {
	LearningRate float64
	// MiniBatch is the number of samples processed (system-wide) between
	// aggregation steps of the parallel variants.
	MiniBatch int
	// Aggregator selects parallelized SGD (average of partial model
	// updates, Zinkevich et al.) or batched gradient descent (sum of
	// partial gradients, Dekel et al.).
	Aggregator dsl.AggregatorKind
}

// SGDStep performs one classic SGD update in place: θ ← θ − μ·∇f(θ, s).
func SGDStep(a Algorithm, model []float64, s Sample, lr float64, scratch []float64) {
	a.Gradient(model, s, scratch)
	AXPY(-lr, scratch, model)
}

// LocalSGD runs sequential SGD over samples starting from a copy of model
// and returns the updated parameters: the per-worker computation of
// Equation 3a.
func LocalSGD(a Algorithm, model []float64, samples []Sample, lr float64) []float64 {
	local := make([]float64, len(model))
	localSGDInto(local, make([]float64, len(model)), a, model, samples, lr)
	return local
}

func localSGDInto(local, scratch []float64, a Algorithm, model []float64, samples []Sample, lr float64) {
	copy(local, model)
	for _, s := range samples {
		SGDStep(a, local, s, lr, scratch)
	}
}

// AccumulateGradients sums per-sample gradients at a fixed model over
// samples, the per-worker computation of batched gradient descent.
func AccumulateGradients(a Algorithm, model []float64, samples []Sample) []float64 {
	acc := make([]float64, len(model))
	accumulateInto(acc, make([]float64, len(model)), a, model, samples)
	return acc
}

func accumulateInto(acc, scratch []float64, a Algorithm, model []float64, samples []Sample) {
	clear(acc)
	for _, s := range samples {
		a.Gradient(model, s, scratch)
		AXPY(1, scratch, acc)
	}
}

// Partition splits samples into n contiguous, nearly equal parts, matching
// how CoSMIC sub-partitions a node's data across worker threads.
func Partition(samples []Sample, n int) [][]Sample {
	if n <= 0 {
		panic(fmt.Sprintf("ml: partition into %d parts", n))
	}
	parts := make([][]Sample, n)
	for i := range parts {
		lo := i * len(samples) / n
		hi := (i + 1) * len(samples) / n
		parts[i] = samples[lo:hi]
	}
	return parts
}

// AggregateModels combines per-worker results according to the aggregation
// operator. For AggAverage the inputs are updated models and the result is
// their mean (Equation 3b). For AggSum the inputs are accumulated gradients
// and the result is θ − μ/b · Σ gradients.
func AggregateModels(cfg SGDConfig, base []float64, partials [][]float64) []float64 {
	out := make([]float64, len(base))
	switch cfg.Aggregator {
	case dsl.AggAverage:
		for _, p := range partials {
			AXPY(1, p, out)
		}
		Scale(1/float64(len(partials)), out)
	case dsl.AggSum:
		copy(out, base)
		scale := -cfg.LearningRate
		if cfg.MiniBatch > 0 {
			scale /= float64(cfg.MiniBatch)
		}
		for _, p := range partials {
			AXPY(scale, p, out)
		}
	}
	return out
}

// ParallelSGDBatch performs one mini-batch of parallel SGD across workers
// worker partitions and returns the aggregated model. It is the single-node,
// in-memory equivalent of what the distributed runtime computes across
// accelerator threads and cluster nodes; the runtime's integration tests
// check equivalence against it.
func ParallelSGDBatch(a Algorithm, cfg SGDConfig, model []float64, batch []Sample, workers int) []float64 {
	parts := Partition(batch, workers)
	partials := make([][]float64, len(parts))
	for i, part := range parts {
		switch cfg.Aggregator {
		case dsl.AggAverage:
			partials[i] = LocalSGD(a, model, part, cfg.LearningRate)
		case dsl.AggSum:
			partials[i] = AccumulateGradients(a, model, part)
		}
	}
	return AggregateModels(cfg, model, partials)
}

// Workspace is the memory the *Into kernels compute through: three
// model-sized vectors, sized on first use and reused after, so a caller that
// runs one batch per round allocates nothing in steady state. A kernel's
// result aliases the workspace and is valid until the next call with it.
type Workspace struct {
	out, part, scratch []float64
}

func (ws *Workspace) size(n int) {
	if cap(ws.out) < n {
		ws.out, ws.part, ws.scratch = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	ws.out, ws.part, ws.scratch = ws.out[:n], ws.part[:n], ws.scratch[:n]
}

// ParallelSGDBatchInto is ParallelSGDBatch computed through ws: the same
// passes in the same order — each worker partition's result is folded into
// the aggregate as soon as it is computed, which is the order
// AggregateModels adds them in — so the result is bitwise equal. model must
// not be a previous result of the same workspace.
func ParallelSGDBatchInto(ws *Workspace, a Algorithm, cfg SGDConfig, model []float64, batch []Sample, workers int) []float64 {
	if workers <= 0 {
		panic(fmt.Sprintf("ml: partition into %d parts", workers))
	}
	ws.size(len(model))
	scale := -cfg.LearningRate
	if cfg.MiniBatch > 0 {
		scale /= float64(cfg.MiniBatch)
	}
	if cfg.Aggregator == dsl.AggSum {
		copy(ws.out, model)
	} else {
		clear(ws.out)
	}
	for i := 0; i < workers; i++ {
		part := batch[i*len(batch)/workers : (i+1)*len(batch)/workers]
		switch cfg.Aggregator {
		case dsl.AggAverage:
			localSGDInto(ws.part, ws.scratch, a, model, part, cfg.LearningRate)
			AXPY(1, ws.part, ws.out)
		case dsl.AggSum:
			accumulateInto(ws.part, ws.scratch, a, model, part)
			AXPY(scale, ws.part, ws.out)
		}
	}
	if cfg.Aggregator == dsl.AggAverage {
		Scale(1/float64(workers), ws.out)
	}
	return ws.out
}

// AccumulateGradientsInto is AccumulateGradients computed through ws.
func AccumulateGradientsInto(ws *Workspace, a Algorithm, model []float64, samples []Sample) []float64 {
	ws.size(len(model))
	accumulateInto(ws.out, ws.scratch, a, model, samples)
	return ws.out
}

// TrainResult reports a training run's loss trajectory.
type TrainResult struct {
	Model []float64
	// LossPerEpoch is the mean training loss measured after each epoch.
	LossPerEpoch []float64
}

// Train runs epochs of parallel SGD over the dataset with the given number
// of workers, aggregating every cfg.MiniBatch samples.
func Train(a Algorithm, cfg SGDConfig, model []float64, data []Sample, workers, epochs int) TrainResult {
	cur := make([]float64, len(model))
	copy(cur, model)
	res := TrainResult{}
	batch := cfg.MiniBatch
	if batch <= 0 || batch > len(data) {
		batch = len(data)
	}
	for e := 0; e < epochs; e++ {
		for lo := 0; lo < len(data); lo += batch {
			hi := lo + batch
			if hi > len(data) {
				hi = len(data)
			}
			cur = ParallelSGDBatch(a, cfg, cur, data[lo:hi], workers)
		}
		res.LossPerEpoch = append(res.LossPerEpoch, MeanLoss(a, cur, data))
	}
	res.Model = cur
	return res
}
