package runtime

import (
	"log/slog"

	"repro/internal/obs"
)

// Monitor turns per-node round latencies into cluster-level straggler
// signals: every observation is mirrored into
// cosmic_cluster_node_round_seconds{node=...}, a
// cosmic_cluster_straggler{node=...} gauge flips to 1 while a node is over
// the detector's bar, and flag transitions emit structured log warnings.
// The System Director runs one Monitor over whatever latency source fits the
// deployment — each node's Health().LastRoundSeconds in process, MsgStats
// scrapes over the control plane.
type Monitor struct {
	reg     *obs.Registry
	det     *obs.StragglerDetector
	logger  *slog.Logger
	flagged map[string]bool
}

// NewMonitor builds a monitor flagging nodes whose round latency exceeds
// k×cluster-p50 for m consecutive observations (0 values take the detector's
// defaults). A nil logger discards the warnings.
func NewMonitor(reg *obs.Registry, k float64, m int, logger *slog.Logger) *Monitor {
	if logger == nil {
		logger = discardLogger
	}
	return &Monitor{
		reg:     reg,
		det:     obs.NewStragglerDetector(k, m),
		logger:  logger,
		flagged: make(map[string]bool),
	}
}

// Observe folds one scrape of per-node round latencies (seconds, keyed by
// node name) into the gauges and returns the currently flagged stragglers.
func (mo *Monitor) Observe(latencies map[string]float64) []string {
	for node, v := range latencies {
		mo.reg.Gauge(obs.Labeled("cosmic_cluster_node_round_seconds", "node", node)).Set(v)
	}
	flagged := mo.det.Observe(latencies)
	now := make(map[string]bool, len(flagged))
	for _, node := range flagged {
		now[node] = true
		mo.reg.Gauge(obs.Labeled("cosmic_cluster_straggler", "node", node)).Set(1)
		if !mo.flagged[node] {
			mo.logger.Warn("straggler detected",
				"node", node, "round_seconds", latencies[node], "streak", mo.det.Streak(node))
		}
	}
	for node := range mo.flagged {
		if !now[node] {
			mo.reg.Gauge(obs.Labeled("cosmic_cluster_straggler", "node", node)).Set(0)
			mo.logger.Info("straggler recovered", "node", node)
		}
	}
	mo.flagged = now
	return flagged
}
