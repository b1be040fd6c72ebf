package runtime

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/obs"
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
// number of mini-batch rounds: broadcast the model, compute the master's
// own partial, fold every member's contribution — its own group's partials
// and the other groups' (streamed) aggregates all flow through the same
// ring — and apply the update rule to each chunk of the model the moment
// that chunk has every member, repeat. There is no whole-vector barrier:
// by the time the last chunk completes, the rest of the model is already
// updated. The receiver must be a node started with RoleMasterSigma.
func (m *Node) DriveTraining(cfg DriveConfig, model []float64, rounds int) ([]float64, TrainStats, error) {
	if m.cfg.Role != RoleMasterSigma {
		return nil, TrainStats{}, fmt.Errorf("runtime: DriveTraining on a %v node", m.cfg.Role)
	}
	if len(model) != m.cfg.ModelSize {
		return nil, TrainStats{}, fmt.Errorf("runtime: model length %d, want %d", len(model), m.cfg.ModelSize)
	}
	cur := append([]float64(nil), model...)
	stats := TrainStats{Rounds: rounds}
	tr := m.obs.tracer()
	diag := func(reason string) string {
		if cfg.Diagnostics != nil {
			return cfg.Diagnostics(reason)
		}
		return m.dumpDiagnostics(reason)
	}
	scale := cfg.LR / float64(cfg.MiniBatch)

	for seq := 0; seq < rounds; seq++ {
		start := time.Now()
		traceID := RoundTraceID(cfg.TraceIDBase, seq)
		roundArgs := map[string]any{"seq": seq}
		if traceID != 0 {
			roundArgs[obs.ArgTraceID] = obs.IDString(traceID)
		}
		roundSp := tr.Begin("runtime", "round", m.obs.threadID())
		m.agg.Reset(uint32(seq))
		excludedRound := m.preExcludeSuspects(uint32(seq), m.cfg.MinQuorum)
		// Apply-on-complete: the moment chunk idx has every member's
		// contribution, the update rule of the stack (Equations 2 and 3b)
		// lands on that span of the model. No member can complete a chunk
		// before the master's own local push below, and the broadcast is
		// done by then, so cur is never mutated while a send reads it.
		m.agg.SetOnComplete(func(idx int, span []float64, weight float64) {
			out := cur[idx*m.cfg.ChunkWords : idx*m.cfg.ChunkWords+len(span)]
			switch cfg.Agg {
			case dsl.AggAverage:
				averageInto(out, span, weight)
			case dsl.AggSum:
				for j, v := range span {
					out[j] -= scale * v
				}
			}
		})
		// Hierarchical model broadcast: one frame to each direct child
		// (group Sigmas forward to their Deltas); broadcastDownstream stamps
		// a fresh wire span ID per hop so the merged trace shows one flow
		// arrow per receiver.
		sp := tr.Begin("runtime", "broadcast", m.obs.threadID())
		m.broadcastDownstream(&cosmicnet.Frame{
			Type: cosmicnet.MsgModel, Seq: uint32(seq), Payload: cur, TraceID: traceID,
		})
		sp.EndArgs(roundArgs)
		// The master is group 0's Sigma and computes its own partial.
		sp = tr.Begin("runtime", "master-compute", m.obs.threadID())
		partial, err := m.computePartial(cur)
		sp.End()
		if err != nil {
			return nil, stats, err
		}
		if err := m.pushLocalChunks(uint32(seq), partial, 1); err != nil {
			return nil, stats, err
		}
		// Wait for every chunk of the model to finish folding (the update
		// rule has then already been applied chunk by chunk).
		sp = tr.Begin("runtime", "aggregate-wait", m.obs.threadID())
		ok, err := m.agg.WaitComplete(m.cfg.RoundTimeout, cfg.Fail)
		sp.End()
		if err != nil {
			dump := diag("node-failed")
			return nil, stats, fmt.Errorf("runtime: node failed mid-round: %w (last seen: %s; flight dump: %s)",
				err, m.lastSeenSummary(), dump)
		}
		if !ok {
			if m.quorumFold(uint32(seq), m.cfg.MinQuorum, m.cfg.RoundTimeout) {
				excludedRound = true
			} else {
				lastSeen := m.lastSeenSummary()
				dump := diag("round-timeout")
				m.logger.Error("round timed out waiting for contributions",
					"round", seq, "last_seen", lastSeen, "diagnostics", dump)
				return nil, stats, fmt.Errorf("runtime: round %d timed out waiting for contributions (last seen: %s; flight dump: %s)",
					seq, lastSeen, dump)
			}
		}
		if excludedRound {
			stats.ExcludedRounds++
			m.obs.roundExcluded()
		}
		d := time.Since(start)
		stats.RoundDurations = append(stats.RoundDurations, d)
		m.noteRound(uint32(seq), d)
		roundSp.EndArgs(roundArgs)
	}
	stats.RoundP50, stats.RoundP95, stats.RoundMax = summarizeRounds(stats.RoundDurations)
	return cur, stats, nil
}

// averageInto writes span / weight into out, which is span's length. A
// weight that is a power of two in the normal range has an exact
// reciprocal, and v times it rounds the same real number v / weight does,
// so that weight is applied as a multiply: the same bits for every v,
// signed zeros, denormals, infinities and NaN included. Any other weight
// (a quorum round's 3, say) divides.
func averageInto(out, span []float64, weight float64) {
	out = out[:len(span)]
	const expMask, fracMask = 0x7ff << 52, 1<<52 - 1
	if b := math.Float64bits(weight); b&fracMask == 0 && b&expMask != 0 && b&expMask != expMask {
		inv := 1 / weight
		for j, v := range span {
			out[j] = v * inv
		}
		return
	}
	for j, v := range span {
		out[j] = v / weight
	}
}

// SendDone broadcasts the shutdown message down the hierarchy.
func (m *Node) SendDone() { m.forwardDone() }
