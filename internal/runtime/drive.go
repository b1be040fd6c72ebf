package runtime

import (
	"fmt"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/vec"
)

// DriveConfig parameterizes the master Sigma's training loop, independent
// of whether the other nodes are goroutines in this process (Cluster) or
// remote processes (package deploy). It carries only what the master node
// does not already know: the model size and the round policy come from the
// master's own NodeConfig.
type DriveConfig struct {
	// Agg and LR are the update rule the master applies to each folded
	// chunk.
	Agg dsl.AggregatorKind
	LR  float64
	// MiniBatch is the system-wide samples per round (for the summing
	// aggregator's update scale).
	MiniBatch int
	// Fail, when non-nil, aborts a round when a node failure arrives.
	Fail <-chan error
	// TraceIDBase, when nonzero, turns on distributed trace propagation:
	// round seq gets trace ID TraceIDBase+seq, stamped on the model
	// broadcast and carried by every partial and group aggregate back up.
	TraceIDBase uint64
	// Diagnostics, when non-nil, is invoked on round failure to dump
	// whatever forensic state the driver's environment has (e.g. every
	// in-process node's flight recorder) and returns the bundle's path for
	// the error message. Nil falls back to the master's own flight dump.
	Diagnostics func(reason string) string
}

// RoundTraceID is the trace ID of round seq under the given base (0 base =
// tracing off).
func RoundTraceID(base uint64, seq int) uint64 {
	if base == 0 {
		return 0
	}
	return base + uint64(seq)
}

// DriveTraining runs the master Sigma's side of training for the given
// number of mini-batch rounds. Each round is the Sigma round every group
// Sigma runs too (sigmaRound): broadcast the model, compute the master's
// own partial, fold every member's contribution — its own group's partials
// and the other groups' (streamed) aggregates all flow through the same
// ring. Only the completion callback is the master's: it applies the
// update rule to each chunk of the model the moment that chunk has every
// member. There is no whole-vector barrier: by the time the last chunk
// completes, the rest of the model is already updated. The receiver must
// be a node started with RoleMasterSigma.
func (m *Node) DriveTraining(cfg DriveConfig, model []float64, rounds int) ([]float64, TrainStats, error) {
	if m.cfg.Role != RoleMasterSigma {
		return nil, TrainStats{}, fmt.Errorf("runtime: DriveTraining on a %v node", m.cfg.Role)
	}
	if len(model) != m.cfg.ModelSize {
		return nil, TrainStats{}, fmt.Errorf("runtime: model length %d, want %d", len(model), m.cfg.ModelSize)
	}
	cur := append([]float64(nil), model...)
	stats := TrainStats{Rounds: rounds}
	scale := cfg.LR / float64(cfg.MiniBatch)
	// Apply-on-complete: the moment chunk idx has every member's
	// contribution, the update rule of the stack (Equations 2 and 3b) lands
	// on that span of the model. No member can complete a chunk before the
	// master's own local push, and the broadcast is done by then, so cur is
	// never mutated while a send reads it.
	m.agg.SetOnComplete(func(idx int, _ uint32, span []float64, weight float64) {
		out := cur[idx*m.cfg.ChunkWords : idx*m.cfg.ChunkWords+len(span)]
		switch cfg.Agg {
		case dsl.AggAverage:
			vec.AverageInto(out, span, weight)
		case dsl.AggSum:
			vec.ScaleRow(out, span, -scale, vec.Acc)
		}
	})
	f := &cosmicnet.Frame{Type: cosmicnet.MsgModel, Payload: cur}
	for seq := 0; seq < rounds; seq++ {
		f.Seq, f.TraceID = uint32(seq), RoundTraceID(cfg.TraceIDBase, seq)
		d, excluded, err := m.sigmaRound(f, cfg.Fail, cfg.Diagnostics)
		if err != nil {
			return nil, stats, err
		}
		if excluded {
			stats.ExcludedRounds++
		}
		stats.RoundDurations = append(stats.RoundDurations, d)
	}
	stats.RoundP50, stats.RoundP95, stats.RoundMax = summarizeRounds(stats.RoundDurations)
	return cur, stats, nil
}
