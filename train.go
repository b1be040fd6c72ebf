package cosmic

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs/profile"
	"repro/internal/runtime"
)

// CycleProfileData is a decoded pprof profile (re-exported so callers can
// write or merge cycle profiles without importing internal packages). Its
// WriteFile method emits the standard .pb.gz framing.
type CycleProfileData = profile.Raw

// Algorithm re-exports the trainable-algorithm interface.
type Algorithm = ml.Algorithm

// Sample re-exports the training-sample type.
type Sample = ml.Sample

// Benchmark re-exports the Table 1 benchmark descriptor.
type Benchmark = dataset.Benchmark

// Benchmarks is the paper's ten-benchmark suite.
var Benchmarks = dataset.Benchmarks

// BenchmarkByName looks up a Table 1 benchmark.
func BenchmarkByName(name string) (Benchmark, error) { return dataset.ByName(name) }

// ClusterConfig configures distributed training on a real multi-node (TCP)
// cluster run in-process: the system layer's Sigma/Delta hierarchy with
// networking and aggregation thread pools.
type ClusterConfig struct {
	// Nodes is the cluster size; Groups the number of aggregation groups
	// (1 = flat, >1 = hierarchical with group Sigma nodes).
	Nodes, Groups int
	// Threads is the number of accelerator worker threads emulated per
	// node by the reference engine.
	Threads int
	// MiniBatch is the system-wide samples per aggregation round.
	MiniBatch int
	// LearningRate for the SGD update.
	LearningRate float64
	// Average selects parallelized SGD (averaging); false selects batched
	// gradient descent (summing).
	Average bool
	// UseSimulator routes each node's gradient computation through the
	// cycle-level accelerator simulator of prog instead of the fast
	// reference engine. Requires Prog.
	UseSimulator bool
	// Prog supplies the compiled accelerator program for UseSimulator.
	Prog *Program
	// Rounds is the number of mini-batch aggregation rounds to run.
	Rounds int
	// ChunkWords is the streaming-chunk boundary in vector elements (0 =
	// the runtime default; must be a power of two). Partials and group
	// aggregates travel the wire as sub-vector chunk frames cut on this
	// boundary and fold on arrival.
	ChunkWords int
	// RoundTimeout bounds each aggregation round (0 = wait forever).
	RoundTimeout time.Duration
	// MinQuorum, when > 0, turns a round timeout into exclude-and-continue:
	// every Sigma folds the timed-out round with the members that arrived
	// (at least MinQuorum of them, its own contribution included) and keeps
	// training, instead of failing the run. Requires RoundTimeout.
	MinQuorum int
	// Obs, when non-nil, records per-node frame counters, aggregation
	// fan-in, ring depth gauges, and per-round spans across the cluster.
	Obs *Observer
}

// TrainResult reports a distributed training run.
type TrainResult struct {
	Model []float64
	// FinalLoss is the mean loss over all shards at the trained model.
	FinalLoss float64
	// InitialLoss is the mean loss before training.
	InitialLoss float64
	// Rounds is the number of aggregation rounds executed.
	Rounds int
	// AccelCycles is the total simulated accelerator cycles (simulator
	// engine only).
	AccelCycles int64
	// RoundP50/P95/Max summarize the per-round wall times at the master
	// (nearest-rank percentiles).
	RoundP50, RoundP95, RoundMax time.Duration
	// NetworkSentBytes/NetworkReceivedBytes sum the frame bytes every node
	// moved during the run.
	NetworkSentBytes, NetworkReceivedBytes int64
	// ExcludedRounds counts the master's rounds folded without the full
	// member set (quorum mode only).
	ExcludedRounds int
	// CycleProfile is the merged per-node cycle attribution (simulator
	// engine only, nil otherwise): a pprof profile whose samples attribute
	// every simulated cycle to DFG ops, labeled per node. Write it with
	// WriteProfileFile and inspect with `go tool pprof -top`.
	CycleProfile *CycleProfileData
}

// Train runs distributed training of alg over data on an in-process
// cluster: every node is a goroutine with its own TCP listener on loopback,
// exchanging models and partial updates through the CoSMIC wire protocol
// and Sigma-node aggregation machinery.
func Train(alg Algorithm, data []Sample, model []float64, cfg ClusterConfig) (TrainResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.MiniBatch <= 0 {
		cfg.MiniBatch = len(data)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.UseSimulator && cfg.Prog == nil {
		return TrainResult{}, fmt.Errorf("cosmic: UseSimulator requires a compiled Program")
	}
	agg := dsl.AggSum
	if cfg.Average {
		agg = dsl.AggAverage
	}

	shards := ml.Partition(data, cfg.Nodes)
	var engines []runtime.Engine
	for i := 0; i < cfg.Nodes; i++ {
		if cfg.UseSimulator {
			engines = append(engines, &runtime.AccelEngine{
				Alg: alg, Prog: cfg.Prog.prog, LR: cfg.LearningRate, Agg: agg,
			})
		} else {
			engines = append(engines, &runtime.RefEngine{
				Alg: alg, Threads: cfg.Threads, LR: cfg.LearningRate, Agg: agg,
			})
		}
	}

	cluster, err := runtime.Launch(runtime.ClusterOptions{
		Nodes:        cfg.Nodes,
		Groups:       cfg.Groups,
		Engines:      func(id int) runtime.Engine { return engines[id] },
		Shards:       func(id int) []ml.Sample { return shards[id] },
		ModelSize:    alg.ModelSize(),
		Agg:          agg,
		LR:           cfg.LearningRate,
		MiniBatch:    cfg.MiniBatch,
		ChunkWords:   cfg.ChunkWords,
		RoundTimeout: cfg.RoundTimeout,
		MinQuorum:    cfg.MinQuorum,
		Obs:          cfg.Obs,
	})
	if err != nil {
		return TrainResult{}, err
	}
	defer cluster.Close()

	res := TrainResult{InitialLoss: ml.MeanLoss(alg, model, data)}
	trained, stats, err := cluster.Train(model, cfg.Rounds)
	if err != nil {
		return res, err
	}
	if err := cluster.Shutdown(); err != nil {
		return res, err
	}
	res.Model = trained
	res.Rounds = stats.Rounds
	res.RoundP50, res.RoundP95, res.RoundMax = stats.RoundP50, stats.RoundP95, stats.RoundMax
	res.NetworkSentBytes, res.NetworkReceivedBytes = stats.NetworkSentBytes, stats.NetworkReceivedBytes
	res.ExcludedRounds = stats.ExcludedRounds
	res.FinalLoss = ml.MeanLoss(alg, trained, data)
	var profInputs []profile.Input
	for i, e := range engines {
		if ae, ok := e.(*runtime.AccelEngine); ok {
			res.AccelCycles += ae.Cycles()
			if raw, err := ae.CycleProfile(); err == nil {
				profInputs = append(profInputs, profile.Input{
					Raw: raw, NodeLabel: fmt.Sprintf("node-%d", i),
				})
			}
		}
	}
	if len(profInputs) > 0 {
		if merged, err := profile.Merge(profInputs); err == nil {
			res.CycleProfile = merged
		}
	}
	return res, nil
}
