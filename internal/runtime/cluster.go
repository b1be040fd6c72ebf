package runtime

import (
	"log/slog"
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
	// Shards supplies each node's partition of the training data. Each
	// node trains from its own packed copy, and Launch returns only once
	// every copy is made: the caller may then change or drop the samples.
	Shards func(nodeID int) []ml.Sample
	// ModelSize is the flat parameter-vector length.
	ModelSize int
	Agg       dsl.AggregatorKind
	LR        float64
	// MiniBatch is the system-wide mini-batch size; each node consumes
	// MiniBatch/Nodes samples per round.
	MiniBatch int
	// RoundPolicy is shared by every node; Launch resolves it. With
	// MinQuorum > 0 every Sigma (master included) folds a timed-out round
	// with the members that arrived, so a node death costs rounds, not the
	// run.
	RoundPolicy
	// Reconnect makes worker nodes redial their upstream (with backoff
	// bounded by ReconnectWait) when the connection drops mid-run.
	Reconnect     bool
	ReconnectWait time.Duration
	// Transports, when non-nil, supplies each node's Transport (nil entries
	// fall back to cosmicnet.TCP). The chaos fabric plugs in here.
	Transports func(nodeID int) cosmicnet.Transport
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
}

// Cluster is a running scale-out system.
type Cluster struct {
	opts   ClusterOptions
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
	// NetworkSentBytes/NetworkReceivedBytes are the frame bytes moved during
	// the run. Cluster.Train sums every node's, each transfer counted once
	// sent and once received, as a switch port would see it; a deploy
	// Result holds only the master node's.
	NetworkSentBytes, NetworkReceivedBytes int64
	// ExcludedRounds counts the master's rounds folded without a full
	// member set (quorum mode only).
	ExcludedRounds int
}

// Launch assigns roles, starts every node, and waits until the hierarchy is
// fully connected and every node has packed its shard.
func Launch(opts ClusterOptions) (*Cluster, error) {
	topo, err := Assign(opts.Nodes, opts.Groups)
	if err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := opts.RoundPolicy.Resolve(); err != nil {
		return nil, err
	}
	if opts.MiniBatch < opts.Nodes {
		opts.MiniBatch = opts.Nodes
	}
	perNode := opts.MiniBatch / opts.Nodes

	c := &Cluster{opts: opts, runErr: make(chan error, opts.Nodes)}
	baseCfg := func(id int) NodeConfig {
		cfg := NodeConfig{
			ID:            uint32(id),
			Group:         topo.GroupOf[id],
			Engine:        opts.Engines(id),
			ModelSize:     opts.ModelSize,
			ShardBatch:    perNode,
			RoundPolicy:   opts.RoundPolicy,
			Obs:           opts.Obs,
			Logger:        opts.Logger,
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
	for _, n := range c.nodes {
		<-n.packed
	}
	return c, nil
}

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
		Agg:         c.opts.Agg,
		LR:          c.opts.LR,
		MiniBatch:   c.opts.MiniBatch,
		Fail:        fail,
		TraceIDBase: c.opts.TraceIDBase,
		Diagnostics: func(reason string) string { return dumpDiagnostics(reason, c.nodes...) },
	}, model, rounds)
	stats.NetworkSentBytes, stats.NetworkReceivedBytes = c.NetworkBytes()
	return final, stats, err
}

// Nodes returns every node of the cluster, master first.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Shutdown sends MsgDone down the hierarchy and waits for the worker nodes
// to exit.
func (c *Cluster) Shutdown() error {
	c.master.SendDone()
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
