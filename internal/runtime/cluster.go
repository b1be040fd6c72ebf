package runtime

import (
	"log/slog"
	"os"
	"strconv"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// ClusterOptions configures an in-process scale-out cluster: every node is
// a goroutine with its own TCP listener/connections on the loopback device,
// so all training traffic crosses real sockets.
type ClusterOptions struct {
	Nodes  int
	Groups int
	// Engines supplies each node's compute engine.
	Engines func(nodeID int) Engine
	// Shards supplies each node's partition of the training data.
	Shards func(nodeID int) []ml.Sample
	// ModelSize is the flat parameter-vector length.
	ModelSize int
	Agg       dsl.AggregatorKind
	LR        float64
	// MiniBatch is the system-wide mini-batch size; each node consumes
	// MiniBatch/Nodes samples per round.
	MiniBatch int
	// RoundTimeout bounds each aggregation round (0 = forever).
	RoundTimeout time.Duration
	// MinQuorum, when > 0, makes every Sigma (master included) fold a
	// timed-out round with the members that arrived instead of failing —
	// see NodeConfig.MinQuorum. A node death then costs rounds, not the run.
	MinQuorum int
	// Reconnect makes worker nodes redial their upstream (with backoff
	// bounded by ReconnectWait) when the connection drops mid-run.
	Reconnect     bool
	ReconnectWait time.Duration
	// Transports, when non-nil, supplies each node's Transport (nil entries
	// fall back to cosmicnet.TCP). The chaos fabric plugs in here.
	Transports func(nodeID int) cosmicnet.Transport
	// ChunkWords is the fixed streaming-chunk boundary in vector elements
	// (0 = the default; must be a power of two).
	ChunkWords int
	Logf       func(format string, args ...any)
	// Obs, when non-nil, is shared by every node: per-node frame and
	// fan-in counters, ring depth gauges, and per-round spans land in it.
	Obs *obs.Observer
	// PerNodeObs, when non-nil, gives each node its own observer instead of
	// the shared Obs — the deployment shape (one tracer per process) that
	// cosmic-trace merges back together. Takes precedence over Obs.
	PerNodeObs func(nodeID int) *obs.Observer
	// Logger receives structured diagnostics from every node, with
	// node/role/group attributes attached per node.
	Logger *slog.Logger
	// TraceIDBase, when nonzero, enables distributed trace propagation
	// (round seq → trace ID TraceIDBase+seq on the wire).
	TraceIDBase uint64
	// FlightSize bounds each node's flight recorder (0 = default 256);
	// DiagDir is where round-failure diagnostic bundles land.
	FlightSize int
	DiagDir    string
}

// Cluster is a running scale-out system.
type Cluster struct {
	opts   ClusterOptions
	topo   Topology
	master *Node
	nodes  []*Node
	runErr chan error
}

// TrainStats reports a training run.
type TrainStats struct {
	Rounds int
	// RoundDurations are the wall times of each mini-batch round at the
	// master.
	RoundDurations []time.Duration
	// RoundP50/P95/Max summarize RoundDurations (nearest-rank percentiles).
	RoundP50, RoundP95, RoundMax time.Duration
	// NetworkSentBytes/NetworkReceivedBytes sum the frame bytes every node
	// moved during the run — each transfer counted once sent and once
	// received, as a switch port would see it.
	NetworkSentBytes, NetworkReceivedBytes int64
	// ExcludedRounds counts the master's rounds folded without a full
	// member set (quorum mode only).
	ExcludedRounds int
}

// Launch assigns roles, starts every node, and waits until the hierarchy is
// fully connected.
func Launch(opts ClusterOptions) (*Cluster, error) {
	topo, err := Assign(opts.Nodes, opts.Groups)
	if err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.MiniBatch < opts.Nodes {
		opts.MiniBatch = opts.Nodes
	}
	perNode := opts.MiniBatch / opts.Nodes

	c := &Cluster{opts: opts, topo: topo, runErr: make(chan error, opts.Nodes)}
	baseCfg := func(id int) NodeConfig {
		cfg := NodeConfig{
			ID:            uint32(id),
			Group:         topo.GroupOf[id],
			Engine:        opts.Engines(id),
			ModelSize:     opts.ModelSize,
			Agg:           opts.Agg,
			LR:            opts.LR,
			ShardBatch:    perNode,
			RoundTimeout:  opts.RoundTimeout,
			ChunkWords:    opts.ChunkWords,
			Logf:          opts.Logf,
			Obs:           opts.Obs,
			Logger:        opts.Logger,
			FlightSize:    opts.FlightSize,
			DiagDir:       opts.DiagDir,
			MinQuorum:     opts.MinQuorum,
			Reconnect:     opts.Reconnect,
			ReconnectWait: opts.ReconnectWait,
		}
		if opts.PerNodeObs != nil {
			cfg.Obs = opts.PerNodeObs(id)
		}
		if opts.Transports != nil {
			cfg.Transport = opts.Transports(id)
		}
		return cfg
	}

	// Master first: every group Sigma dials it.
	mcfg := baseCfg(0)
	mcfg.Role = RoleMasterSigma
	mcfg.MemberIDs = topo.MasterMemberIDs()
	master, err := StartNode(mcfg, opts.Shards(0))
	if err != nil {
		return nil, err
	}
	c.master = master
	c.nodes = []*Node{master}

	// Group Sigmas next.
	sigmaAddr := make([]string, topo.Groups)
	sigmaAddr[0] = master.Addr()
	for g := 1; g < topo.Groups; g++ {
		cfg := baseCfg(g)
		cfg.Role = RoleGroupSigma
		cfg.UpstreamAddr = master.Addr()
		cfg.MemberIDs = topo.MemberIDs(g)
		node, err := StartNode(cfg, opts.Shards(g))
		if err != nil {
			c.Close()
			return nil, err
		}
		sigmaAddr[g] = node.Addr()
		c.nodes = append(c.nodes, node)
		go func() { c.runErr <- node.Run() }()
	}

	// Deltas last.
	for id := topo.Groups; id < topo.Nodes; id++ {
		cfg := baseCfg(id)
		cfg.Role = RoleDelta
		cfg.UpstreamAddr = sigmaAddr[topo.GroupOf[id]]
		node, err := StartNode(cfg, opts.Shards(id))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		go func() { c.runErr <- node.Run() }()
	}

	// Startup barrier: the master hears directly from the other group
	// Sigmas and its own group's Deltas.
	master.WaitMembers()
	return c, nil
}

// Topology returns the Director's assignment.
func (c *Cluster) Topology() Topology { return c.topo }

// NetworkBytes sums the frame bytes every node moved — each transfer is
// counted twice (once sent, once received), as a switch port would see it.
func (c *Cluster) NetworkBytes() (sent, received int64) {
	for _, n := range c.nodes {
		s, r := n.NetworkBytes()
		sent += s
		received += r
	}
	return sent, received
}

// Train drives the given number of mini-batch rounds from the master and
// returns the final model.
func (c *Cluster) Train(model []float64, rounds int) ([]float64, TrainStats, error) {
	// In quorum mode a node death must not abort the run — the timed-out
	// round folds on the survivors instead — so the fail channel stays out
	// of the wait (Shutdown still collects the exit errors).
	fail := c.runErr
	if c.opts.MinQuorum > 0 {
		fail = nil
	}
	final, stats, err := c.master.DriveTraining(DriveConfig{
		Groups:       c.topo.Groups,
		ModelSize:    c.opts.ModelSize,
		Agg:          c.opts.Agg,
		LR:           c.opts.LR,
		MiniBatch:    c.opts.MiniBatch,
		RoundTimeout: c.opts.RoundTimeout,
		MinQuorum:    c.opts.MinQuorum,
		Fail:         fail,
		TraceIDBase:  c.opts.TraceIDBase,
		Diagnostics:  c.DumpDiagnostics,
	}, model, rounds)
	stats.NetworkSentBytes, stats.NetworkReceivedBytes = c.NetworkBytes()
	return final, stats, err
}

// Nodes returns every node of the cluster, master first.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// DumpDiagnostics writes every node's flight recorder into one fresh
// directory under DiagDir (OS temp dir when unset) and returns its path —
// the bundle a round failure points the operator at. Best-effort: nodes
// whose dump fails are skipped so a sick node cannot block the bundle.
func (c *Cluster) DumpDiagnostics(reason string) string {
	base := c.opts.DiagDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "cosmic-diag-*")
	if err != nil {
		return "(diagnostics unavailable: " + err.Error() + ")"
	}
	for _, n := range c.nodes {
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: reason, Seq: n.lastSeq.Load()})
		_, _ = n.DumpFlight(dir)
	}
	return dir
}

// ScrapeLatencies returns each node's most recent round wall time in seconds
// keyed by node ID — the straggler detector's input for in-process clusters.
// Nodes that have not finished a round yet are omitted.
func (c *Cluster) ScrapeLatencies() map[string]float64 {
	out := make(map[string]float64, len(c.nodes))
	for _, n := range c.nodes {
		if v := n.LastRoundSeconds(); v > 0 {
			out[strconv.Itoa(int(n.cfg.ID))] = v
		}
	}
	return out
}

// Shutdown sends MsgDone down the hierarchy and waits for the worker nodes
// to exit.
func (c *Cluster) Shutdown() error {
	c.master.forwardDone()
	var firstErr error
	for i := 0; i < len(c.nodes)-1; i++ {
		if err := <-c.runErr; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close releases all node resources.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
