// Package deploy runs CoSMIC's system layer across OS processes: a master
// process hosts the System Director and the master Sigma; worker processes
// (cmd/cosmic-node) join over TCP, receive their role, group, and upstream
// assignment from the Director (the MsgConfig protocol), and then run the
// ordinary Delta / group-Sigma loops of package runtime. The in-process
// Cluster of package runtime is the same machinery with goroutine nodes;
// this package is the multi-machine deployment the paper's 16-node EC2
// experiments used.
//
// The Director's handshake is two-phase, because a Delta's upstream address
// is its group Sigma's listener, which exists only after that Sigma is
// configured:
//
//	worker → master   MsgHello                   (join)
//	master → sigmas   MsgConfig{role, ...}       (phase 1)
//	sigma  → master   MsgAck{listener address}
//	master → deltas   MsgConfig{role, upstream}  (phase 2)
//	workers           dial upstream and run; training proceeds as in
//	                  package runtime
package deploy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cosmicnet"
	"repro/internal/dataset"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/runtime"
)

// Spec is the System Specification of Figure 3 — the deployment-level
// inputs to the stack (number of nodes, number of groups, workload) — plus
// the training hyperparameters the Director distributes.
type Spec struct {
	Nodes  int `json:"nodes"`
	Groups int `json:"groups"`

	// Benchmark and Scale select the workload; every node generates its
	// own shard deterministically from Seed and its node ID.
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Samples   int     `json:"samples"` // per node
	Seed      int64   `json:"seed"`

	MiniBatch    int     `json:"mini_batch"`
	Rounds       int     `json:"rounds"`
	Threads      int     `json:"threads"`
	LearningRate float64 `json:"learning_rate"`
	Average      bool    `json:"average"`

	// RoundPolicy (round_timeout, min_quorum, chunk_words on the wire) is
	// the round contract every Sigma must share, so the Director
	// distributes it; Validate resolves it.
	runtime.RoundPolicy

	// Simulate routes every node's gradient computation through the
	// cycle-level accelerator simulator (each worker compiles the
	// benchmark's program locally) instead of the reference engine. Nodes
	// then attribute simulated cycles per DFG op and serve the profile on
	// /debug/cosmic/cycles for cosmic-prof. Keep Scale small: the simulator
	// is orders of magnitude slower than the reference engine.
	Simulate bool `json:"simulate,omitempty"`
}

// Validate fills defaults and rejects nonsense.
func (s *Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("deploy: %d nodes", s.Nodes)
	}
	if s.Groups < 1 {
		s.Groups = 1
	}
	if s.Groups > s.Nodes {
		return fmt.Errorf("deploy: %d groups for %d nodes", s.Groups, s.Nodes)
	}
	if s.Scale == 0 {
		s.Scale = 0.02
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("deploy: scale %g outside (0, 1]", s.Scale)
	}
	if s.Samples <= 0 {
		s.Samples = 512
	}
	if s.Threads <= 0 {
		s.Threads = 2
	}
	if s.Rounds <= 0 {
		s.Rounds = 10
	}
	if s.MiniBatch <= 0 {
		s.MiniBatch = s.Nodes * 64
	}
	// runtime.Launch's rule: every node takes at least one sample a round,
	// and the master's LR/MiniBatch scale sees the batch actually trained.
	if s.MiniBatch < s.Nodes {
		s.MiniBatch = s.Nodes
	}
	if err := s.RoundPolicy.Resolve(); err != nil {
		return err
	}
	bench, err := dataset.ByName(s.Benchmark)
	if err != nil {
		return err
	}
	if s.LearningRate == 0 {
		s.LearningRate = bench.DefaultLR(bench.Algorithm(s.Scale))
	}
	return nil
}

// agg returns the aggregator kind.
func (s Spec) agg() dsl.AggregatorKind {
	if s.Average {
		return dsl.AggAverage
	}
	return dsl.AggSum
}

// workerConfig is the MsgConfig payload.
type workerConfig struct {
	NodeID       uint32   `json:"node_id"`
	Role         int      `json:"role"`
	Group        int      `json:"group"`
	UpstreamAddr string   `json:"upstream_addr"`
	MemberIDs    []uint32 `json:"member_ids,omitempty"`
	Spec         Spec     `json:"spec"`
	// MasterUnixUS is the Director's clock (Unix micros) at config-send
	// time. The worker derives its clock skew from it so cosmic-trace can
	// align per-node trace timelines; the one-way control-plane latency is
	// absorbed into the estimate, which is fine at loopback/LAN scales.
	MasterUnixUS int64 `json:"master_unix_us,omitempty"`
}

// NodeStats is the MsgStats reply a node sends the Director: identity,
// round progress, flight-recorder depth, and the node's full metrics
// exposition for federation into the Director's /metrics.
type NodeStats struct {
	ID               uint32  `json:"id"`
	Role             string  `json:"role"`
	Group            int     `json:"group"`
	LastSeq          uint32  `json:"last_seq"`
	RingDepth        int     `json:"ring_depth"`
	FlightDepth      int     `json:"flight_depth"`
	LastRoundSeconds float64 `json:"last_round_seconds"`
	// HTTPAddr is the node's debug HTTP listener (empty when none):
	// cosmic-prof reads it from the Director's /cluster roster to discover
	// where to scrape /debug/pprof/profile and /debug/cosmic/cycles.
	HTTPAddr   string `json:"http_addr,omitempty"`
	Exposition string `json:"exposition,omitempty"`
}

// statsFor snapshots a node's stats, attaching the observer's exposition
// when one is wired and the node's debug HTTP address when it serves one.
func statsFor(node *runtime.Node, o *obs.Observer, httpAddr string) NodeStats {
	h := node.Health()
	st := NodeStats{
		ID: h.ID, Role: h.Role, Group: h.Group, LastSeq: h.LastSeq,
		RingDepth: h.RingDepth, FlightDepth: h.FlightDepth,
		LastRoundSeconds: h.LastRoundSeconds,
		HTTPAddr:         httpAddr,
	}
	if o != nil {
		var buf bytes.Buffer
		if err := o.Registry().WritePrometheus(&buf); err == nil {
			st.Exposition = buf.String()
		}
	}
	return st
}

// serveStats answers MsgStats scrapes on the worker's control connection,
// which is otherwise idle between configuration and shutdown (the Director
// is its only other user). Returns when the connection closes.
func serveStats(conn *cosmicnet.Conn, node *runtime.Node, o *obs.Observer, httpAddr string) {
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		if f.Type != cosmicnet.MsgStats {
			continue
		}
		st := statsFor(node, o, httpAddr)
		blob, err := json.Marshal(st)
		if err != nil {
			continue
		}
		if err := conn.Send(&cosmicnet.Frame{
			Type: cosmicnet.MsgStats, From: st.ID, Seq: f.Seq, Text: string(blob),
		}); err != nil {
			return
		}
	}
}

// buildNode constructs the local node for a config: engine, shard, and the
// runtime Node. o, when non-nil, receives the node's telemetry; logger,
// when non-nil, its structured diagnostics. reconnect/reconnectWait are the
// local process's redial policy (a per-worker choice, not distributed).
func buildNode(cfg workerConfig, o *obs.Observer, logger *slog.Logger, reconnect bool, reconnectWait time.Duration) (*runtime.Node, error) {
	bench, err := dataset.ByName(cfg.Spec.Benchmark)
	if err != nil {
		return nil, err
	}
	alg := bench.Algorithm(cfg.Spec.Scale)
	shard := bench.Generate(alg, cfg.Spec.Samples, cfg.Spec.Seed+int64(cfg.NodeID))
	perNode := cfg.Spec.MiniBatch / cfg.Spec.Nodes // >= 1: Validate keeps MiniBatch >= Nodes >= 1
	var engine runtime.Engine
	if cfg.Spec.Simulate {
		build, err := core.BuildProgram(alg.DSLSource(), alg.DSLParams(), arch.UltraScalePlus, core.BuildOptions{
			MiniBatch: perNode, Style: compiler.StyleCoSMIC, Obs: o,
		})
		if err != nil {
			return nil, fmt.Errorf("deploy: compiling simulator program: %w", err)
		}
		engine = &runtime.AccelEngine{Alg: alg, Prog: build.Program, LR: cfg.Spec.LearningRate, Agg: cfg.Spec.agg()}
	} else {
		engine = &runtime.RefEngine{Alg: alg, Threads: cfg.Spec.Threads, LR: cfg.Spec.LearningRate, Agg: cfg.Spec.agg()}
	}
	return runtime.StartNode(runtime.NodeConfig{
		ID:            cfg.NodeID,
		Role:          runtime.Role(cfg.Role),
		Group:         cfg.Group,
		UpstreamAddr:  cfg.UpstreamAddr,
		MemberIDs:     cfg.MemberIDs,
		RoundPolicy:   cfg.Spec.RoundPolicy,
		Engine:        engine,
		ModelSize:     alg.ModelSize(),
		ShardBatch:    perNode,
		Reconnect:     reconnect,
		ReconnectWait: reconnectWait,
		Obs:           o,
		Logger:        logger,
	}, shard)
}

// Result reports a distributed run from the master's side.
type Result struct {
	Model []float64
	// Stats are the master's: its NetworkSentBytes and NetworkReceivedBytes
	// count only the frames the master node itself moved, not the cluster's
	// (the Director does not see the workers' sockets).
	Stats       runtime.TrainStats
	InitialLoss float64
	FinalLoss   float64
}

// MasterOptions tunes the System Director's observability: its telemetry
// plane, straggler detection, and distributed tracing. The zero value
// serves no HTTP; the Director scrapes its workers regardless.
type MasterOptions struct {
	// Obs observes the master node itself; its registry is also the local
	// half of the federated /metrics.
	Obs *obs.Observer
	Telemetry
	// OnHTTP, when set, receives the bound HTTP address once listening.
	OnHTTP func(addr string)
	// StragglerK and StragglerM tune the detector: a node flags after M
	// consecutive scrapes with round latency over K×cluster-p50 (0 = the
	// defaults of 2 and 3).
	StragglerK float64
	StragglerM int
	// TraceIDBase, when nonzero, enables distributed trace propagation
	// across the cluster's wire frames.
	TraceIDBase uint64
	Logger      *slog.Logger
}

// slot is one admitted worker; the rejoin acceptor can replace its conn.
type slot struct {
	mu   sync.Mutex
	conn *cosmicnet.Conn
	cfg  workerConfig
	dead bool
}

// director is one run of the System Director; RunMaster drives it through
// its phases.
type director struct {
	spec    Spec
	opts    MasterOptions
	topo    runtime.Topology
	control net.Listener
	master  *runtime.Node
	workers []*slot
	plane   *plane
	fed     *obs.Federation
	mon     *runtime.Monitor
	seq     uint32

	// mu guards the /cluster roster (indexed by node ID) and stragglers.
	mu         sync.Mutex
	roster     []rosterNode
	stragglers []string
}

// rosterNode is one /cluster entry: the node's last stats but for the
// exposition, how stale they are, and how many scrapes of it failed.
type rosterNode struct {
	NodeStats
	StalenessSeconds float64 `json:"staleness_seconds"`
	ScrapeErrors     int64   `json:"scrape_errors,omitempty"`
	seen             time.Time
	errs             *obs.Counter // cosmic_cluster_scrape_errors_total
}

// RunMaster listens on controlAddr, admits spec.Nodes-1 workers, assigns
// roles, drives training, and shuts the cluster down. It blocks until
// training completes.
func RunMaster(controlAddr string, spec Spec, opts MasterOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	topo, err := runtime.Assign(spec.Nodes, spec.Groups)
	if err != nil {
		return nil, err
	}
	// /metrics federates the master's own registry with every worker's.
	reg := opts.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &director{
		spec: spec, opts: opts, topo: topo,
		fed:    obs.NewFederation(reg),
		mon:    runtime.NewMonitor(reg, opts.StragglerK, opts.StragglerM, opts.Logger),
		roster: make([]rosterNode, spec.Nodes),
	}
	for id := 1; id < spec.Nodes; id++ {
		d.roster[id].errs = reg.Counter(obs.Labeled("cosmic_cluster_scrape_errors_total", "node", strconv.Itoa(id)))
	}
	rules := append(tsdb.DefaultClusterRules(), opts.AlertRules...)
	if d.plane, err = newPlane(opts.Telemetry, reg, d.fed.Handler(), rules, opts.Logger); err != nil {
		return nil, err
	}
	defer d.plane.close()
	d.plane.mux.HandleFunc("/cluster", d.serveRoster)
	if opts.OnHTTP != nil && d.plane.addr != "" {
		opts.OnHTTP(d.plane.addr)
	}
	if d.control, err = net.Listen("tcp", controlAddr); err != nil {
		return nil, err
	}
	defer d.control.Close()
	// The master node itself (group 0's Sigma + top-level combiner).
	if d.master, err = buildNode(workerConfig{
		NodeID: 0, Role: int(runtime.RoleMasterSigma), Group: 0,
		MemberIDs: topo.MasterMemberIDs(), Spec: spec,
	}, opts.Obs, opts.Logger, false, 0); err != nil {
		return nil, err
	}
	defer d.master.Close()
	d.plane.attach(d.master)

	if err := d.admit(); err != nil {
		return nil, err
	}
	if err := d.configure(); err != nil {
		return nil, err
	}
	if spec.MinQuorum > 0 {
		go d.acceptRejoins() // exits when the deferred control.Close fires
	}
	d.master.WaitMembers()
	d.plane.start(d.scrape)
	res, err := d.train()
	if err != nil {
		return nil, err
	}
	d.shutdown()
	return res, nil
}

// join accepts one control connection and reads its MsgHello; a conn that
// sends anything else, or nothing for a few seconds, is dropped (nil).
func (d *director) join() (*cosmicnet.Conn, error) {
	raw, err := d.control.Accept()
	if err != nil {
		return nil, err
	}
	conn := &cosmicnet.Conn{Conn: raw}
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	f, err := conn.Recv()
	conn.SetDeadline(time.Time{})
	if err != nil || f.Type != cosmicnet.MsgHello {
		conn.Close()
		return nil, nil
	}
	return conn, nil
}

// admit admits every worker's join connection.
func (d *director) admit() error {
	for len(d.workers) < d.spec.Nodes-1 {
		conn, err := d.join()
		if err != nil {
			return err
		}
		if conn != nil {
			d.workers = append(d.workers, &slot{conn: conn}) // worker i holds node ID i+1
		}
	}
	return nil
}

// sendConfig sends a MsgConfig stamped with the Director's clock.
func sendConfig(conn *cosmicnet.Conn, cfg workerConfig) error {
	cfg.MasterUnixUS = time.Now().UnixMicro()
	blob, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgConfig, Text: string(blob)})
}

// configure assigns every admitted worker its role: first the group Sigmas
// (workers 0..Groups-2 become node IDs 1..Groups-1), whose acks carry their
// data-plane listener addresses, then the Deltas, pointed at those.
func (d *director) configure() error {
	sigmaAddr := make([]string, d.spec.Groups)
	sigmaAddr[0] = d.master.Addr()
	for g := 1; g < d.spec.Groups; g++ {
		w := d.workers[g-1]
		w.cfg = workerConfig{
			NodeID: uint32(g), Role: int(runtime.RoleGroupSigma), Group: g,
			UpstreamAddr: d.master.Addr(), MemberIDs: d.topo.MemberIDs(g),
			Spec: d.spec,
		}
		if err := sendConfig(w.conn, w.cfg); err != nil {
			return err
		}
		ack, err := w.conn.Recv()
		if err != nil || ack.Type != cosmicnet.MsgAck {
			return fmt.Errorf("deploy: sigma %d did not ack: %v", g, err)
		}
		sigmaAddr[g] = ack.Text
	}
	for id := d.spec.Groups; id < d.spec.Nodes; id++ {
		w := d.workers[id-1]
		group := d.topo.GroupOf[id]
		w.cfg = workerConfig{
			NodeID: uint32(id), Role: int(runtime.RoleDelta), Group: group,
			UpstreamAddr: sigmaAddr[group], Spec: d.spec,
		}
		if err := sendConfig(w.conn, w.cfg); err != nil {
			return err
		}
	}
	return nil
}

// acceptRejoins runs in quorum mode until the control listener closes: a
// restarted worker process dials the control port and sends MsgHello
// exactly like a fresh join, and gets the config of a dead Delta slot so it
// can redial its Sigma and resume. Sigma rejoin is not supported — a
// Sigma's listener address is baked into its Deltas' configs, so a dead
// Sigma strands its group.
func (d *director) acceptRejoins() {
	for {
		conn, err := d.join()
		if err != nil {
			return
		}
		if conn != nil && !d.rejoin(conn) {
			conn.Close()
		}
	}
}

// rejoin hands conn the config of the first dead Delta slot, reporting
// whether a slot took it.
func (d *director) rejoin(conn *cosmicnet.Conn) bool {
	for _, w := range d.workers {
		w.mu.Lock()
		ok := w.dead && runtime.Role(w.cfg.Role) == runtime.RoleDelta && sendConfig(conn, w.cfg) == nil
		if ok {
			w.conn, w.dead = conn, false
		}
		w.mu.Unlock()
		if ok {
			if d.opts.Logger != nil {
				d.opts.Logger.Info("worker rejoined", "node", w.cfg.NodeID)
			}
			return true
		}
	}
	return false
}

// scrape is the Director's tick: a MsgStats round trip on each worker's
// otherwise idle control connection feeds the roster, the federation and
// the straggler detector, and the federated snapshot goes to the TSDB.
func (d *director) scrape() []obs.Sample {
	d.seq++
	// stats[id] is node id's reply this tick, nil when its scrape failed.
	stats := make([]*NodeStats, len(d.roster))
	mst := statsFor(d.master, nil, d.plane.addr) // its metrics are the federation's local half
	stats[0] = &mst
	for wi, w := range d.workers {
		st, err := d.scrapeSlot(w)
		if err != nil {
			continue
		}
		stats[wi+1] = &st
		if st.Exposition != "" {
			if samples, err := obs.ParseExposition(st.Exposition); err == nil {
				d.fed.Update(fmt.Sprintf("node-%d", st.ID), samples)
			}
		}
	}
	lat := make(map[string]float64)
	for id, st := range stats {
		if st != nil && st.LastRoundSeconds > 0 {
			lat[strconv.Itoa(id)] = st.LastRoundSeconds
		}
	}
	stragglers := d.mon.Observe(lat)
	now := time.Now()
	d.mu.Lock()
	for id, st := range stats {
		if st == nil {
			d.roster[id].errs.Inc()
			continue
		}
		st.Exposition = ""
		d.roster[id].NodeStats, d.roster[id].seen = *st, now
	}
	d.stragglers = stragglers
	d.mu.Unlock()
	return d.fed.Snapshot()
}

// serveRoster serves /cluster: every node that has answered a scrape, and
// the straggler flags.
func (d *director) serveRoster(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	d.mu.Lock()
	nodes := make([]rosterNode, 0, len(d.roster))
	for _, n := range d.roster {
		if !n.seen.IsZero() {
			n.StalenessSeconds, n.ScrapeErrors = now.Sub(n.seen).Seconds(), n.errs.Value()
			nodes = append(nodes, n)
		}
	}
	doc := map[string]any{"nodes": nodes, "stragglers": d.stragglers} // never mutated once set
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc) //nolint:errcheck // best-effort HTTP write
}

// scrapeSlot round-trips one MsgStats on a worker's control connection,
// bounded by a deadline so a wedged worker cannot stall the tick. In quorum
// mode any error but a slow reply frees the slot for the rejoin acceptor.
func (d *director) scrapeSlot(w *slot) (st NodeStats, err error) {
	w.mu.Lock()
	conn, dead := w.conn, w.dead
	w.mu.Unlock()
	if dead {
		return st, fmt.Errorf("deploy: node %d is awaiting rejoin", w.cfg.NodeID)
	}
	defer func() {
		if ne, ok := err.(net.Error); err != nil && d.spec.MinQuorum > 0 && (!ok || !ne.Timeout()) {
			w.mu.Lock()
			if !w.dead && w.conn == conn {
				w.dead = true
				conn.Close()
			}
			w.mu.Unlock()
		}
	}()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetDeadline(time.Time{})
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgStats, Seq: d.seq}); err != nil {
		return st, err
	}
	f, err := conn.Recv()
	if err != nil {
		return st, err
	}
	if f.Type != cosmicnet.MsgStats {
		return st, fmt.Errorf("deploy: stats reply was %v", f.Type)
	}
	return st, json.Unmarshal([]byte(f.Text), &st)
}

// train drives the run; losses are on the master's view of the data.
func (d *director) train() (*Result, error) {
	bench, _ := dataset.ByName(d.spec.Benchmark)
	alg := bench.Algorithm(d.spec.Scale)
	model := alg.InitModel(rand.New(rand.NewSource(d.spec.Seed)))
	full := bench.Generate(alg, d.spec.Samples, d.spec.Seed)
	initial := ml.MeanLoss(alg, model, full)
	trained, stats, err := d.master.DriveTraining(runtime.DriveConfig{
		Agg:         d.spec.agg(),
		LR:          d.spec.LearningRate,
		MiniBatch:   d.spec.MiniBatch,
		TraceIDBase: d.opts.TraceIDBase,
	}, model, d.spec.Rounds)
	if err != nil {
		return nil, err
	}
	d.master.SendDone()
	stats.NetworkSentBytes, stats.NetworkReceivedBytes = d.master.NetworkBytes()
	return &Result{Model: trained, Stats: stats, InitialLoss: initial, FinalLoss: ml.MeanLoss(alg, trained, full)}, nil
}

// shutdown stops the tick, which shares the control connections, then
// closes each after a moment for its worker to read the Done.
func (d *director) shutdown() {
	d.plane.close()
	for _, w := range d.workers {
		w.mu.Lock()
		w.conn.SetDeadline(time.Now().Add(2 * time.Second))
		w.conn.Close()
		w.mu.Unlock()
	}
}

// WorkerOptions attaches observability and the local redial policy to a
// worker process; the zero value runs a bare worker.
type WorkerOptions struct {
	// Obs receives the node's telemetry; its exposition also rides MsgStats
	// replies so the Director can federate it, and the plane samples it.
	Obs *obs.Observer
	// Logger receives the node's structured diagnostics.
	Logger *slog.Logger
	// ChunkWords, when non-zero, is the streaming-chunk boundary this
	// worker insists on. The boundary is cluster-wide (fixed boundaries are
	// what keep the ordered fold deterministic), so a Director whose
	// resolved policy uses a different value is rejected instead of
	// silently diverging.
	ChunkWords int
	Telemetry
	// Reconnect makes this worker's node redial its upstream Sigma (with
	// backoff, bounded by ReconnectWait; 0 = 30s) when the data-plane
	// connection drops mid-run, instead of exiting. Pair it with a quorum
	// spec so the Sigma keeps folding rounds while this node is away.
	Reconnect     bool
	ReconnectWait time.Duration
}

// dialControl dials the Director's control address, retrying with backoff
// for a few seconds: a worker is routinely launched a beat before the
// master's listener is up, and a refused first dial should not strand the
// whole cluster in the join phase.
func dialControl(addr string) (*cosmicnet.Conn, error) {
	deadline := time.Now().Add(3 * time.Second)
	for wait := 10 * time.Millisecond; ; wait *= 2 {
		conn, err := cosmicnet.Dial(addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(wait)
	}
}

// RunWorker starts the worker's telemetry plane, joins the master at
// controlAddr, receives its assignment, and runs its node loop until
// training completes. After configuration the worker answers the
// Director's MsgStats scrapes on the control connection while the node
// loop runs on the data plane.
func RunWorker(controlAddr string, opts WorkerOptions) error {
	reg := opts.Obs.Registry()
	p, err := newPlane(opts.Telemetry, reg, reg.Handler(), opts.AlertRules, opts.Logger)
	if err != nil {
		return err
	}
	defer p.close()
	p.start(reg.Snapshot)
	conn, err := dialControl(controlAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgHello}); err != nil {
		return err
	}
	f, err := conn.Recv()
	if err != nil {
		return err
	}
	if f.Type != cosmicnet.MsgConfig {
		return fmt.Errorf("deploy: expected config, got %v", f.Type)
	}
	var cfg workerConfig
	if err := json.Unmarshal([]byte(f.Text), &cfg); err != nil {
		return err
	}
	if cfg.MasterUnixUS != 0 {
		// Clock alignment for cosmic-trace: skew is positive when this
		// worker's clock runs ahead of the Director's.
		opts.Obs.Tracer().SetClockSkew(time.Now().UnixMicro() - cfg.MasterUnixUS)
	}
	// Validate leaves the Director's already-validated spec as it is; a
	// config that did not come from Validate is rejected or resolved here,
	// before buildNode divides by Nodes or the chunk boundary is compared.
	if err := cfg.Spec.Validate(); err != nil {
		return fmt.Errorf("deploy: Director's spec: %w", err)
	}
	if want, got := opts.ChunkWords, cfg.Spec.ChunkWords; want != 0 && want != got {
		return fmt.Errorf("deploy: worker wants chunk-words %d but the Director's spec uses %d", want, got)
	}
	node, err := buildNode(cfg, opts.Obs, opts.Logger, opts.Reconnect, opts.ReconnectWait)
	if err != nil {
		return err
	}
	defer node.Close()
	p.attach(node)
	if runtime.Role(cfg.Role) == runtime.RoleGroupSigma {
		// Report the data-plane listener so the Director can point this
		// group's Deltas at it.
		if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgAck, From: cfg.NodeID, Text: node.Addr()}); err != nil {
			return err
		}
	}
	// The control connection is now idle on this side; serve the Director's
	// stats scrapes until it closes.
	go serveStats(conn, node, opts.Obs, p.addr)
	return node.Run()
}
