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
	"sort"
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

// scrapeWorker round-trips one MsgStats request on a worker's control
// connection, bounded by a deadline so a wedged worker cannot stall the
// Director's scrape loop.
func scrapeWorker(conn *cosmicnet.Conn, seq uint32) (NodeStats, error) {
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetDeadline(time.Time{})
	if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgStats, Seq: seq}); err != nil {
		return NodeStats{}, err
	}
	f, err := conn.Recv()
	if err != nil {
		return NodeStats{}, err
	}
	if f.Type != cosmicnet.MsgStats {
		return NodeStats{}, fmt.Errorf("deploy: stats reply was %v", f.Type)
	}
	var st NodeStats
	if err := json.Unmarshal([]byte(f.Text), &st); err != nil {
		return NodeStats{}, err
	}
	return st, nil
}

// clusterView is the Director's live roster — the last stats scraped from
// every node, when each last answered, how many scrapes of it have failed,
// and the current straggler flags — served as /cluster.
type clusterView struct {
	mu         sync.Mutex
	nodes      map[uint32]NodeStats
	seen       map[uint32]time.Time
	scrapeErrs map[uint32]int64
	stragglers []string
}

func newClusterView() *clusterView {
	return &clusterView{
		nodes:      make(map[uint32]NodeStats),
		seen:       make(map[uint32]time.Time),
		scrapeErrs: make(map[uint32]int64),
	}
}

func (cv *clusterView) update(st NodeStats) {
	cv.mu.Lock()
	cv.nodes[st.ID] = st
	cv.seen[st.ID] = time.Now()
	cv.mu.Unlock()
}

// scrapeError counts one failed scrape of a node.
func (cv *clusterView) scrapeError(id uint32) {
	cv.mu.Lock()
	cv.scrapeErrs[id]++
	cv.mu.Unlock()
}

func (cv *clusterView) setStragglers(s []string) {
	cv.mu.Lock()
	cv.stragglers = append(cv.stragglers[:0], s...)
	cv.mu.Unlock()
}

// rosterNode is one /cluster entry: the node's last stats plus how stale
// they are and how many scrapes of the node have failed.
type rosterNode struct {
	NodeStats
	// StalenessSeconds is how long ago the node last answered a scrape.
	StalenessSeconds float64 `json:"staleness_seconds"`
	ScrapeErrors     int64   `json:"scrape_errors,omitempty"`
}

// handler serves the roster as JSON, node IDs ascending. The per-node
// exposition is stripped — raw metrics are /metrics' job.
func (cv *clusterView) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		cv.mu.Lock()
		ids := make([]int, 0, len(cv.nodes))
		for id := range cv.nodes {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		nodes := make([]rosterNode, 0, len(ids))
		for _, id := range ids {
			st := cv.nodes[uint32(id)]
			st.Exposition = ""
			nodes = append(nodes, rosterNode{
				NodeStats:        st,
				StalenessSeconds: now.Sub(cv.seen[uint32(id)]).Seconds(),
				ScrapeErrors:     cv.scrapeErrs[uint32(id)],
			})
		}
		doc := map[string]any{
			"nodes":      nodes,
			"stragglers": append([]string(nil), cv.stragglers...),
		}
		cv.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc) //nolint:errcheck // best-effort HTTP write
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
	Model       []float64
	Stats       runtime.TrainStats
	InitialLoss float64
	FinalLoss   float64
}

// MasterOptions tunes the System Director's observability: metrics
// federation over the control plane, the /metrics and /cluster HTTP
// endpoints, straggler detection, and distributed tracing. The zero value
// runs with all of it off.
type MasterOptions struct {
	// Obs observes the master node itself; its registry is also the local
	// half of the federated /metrics.
	Obs *obs.Observer
	// HTTPAddr, when set, serves the Director's federated /metrics and the
	// /cluster roster for the duration of the run.
	HTTPAddr string
	// OnHTTP, when set, receives the bound HTTP address once listening.
	OnHTTP func(addr string)
	// ScrapeInterval is how often the Director scrapes every worker's stats
	// over the control plane (0 disables scraping and straggler detection).
	ScrapeInterval time.Duration
	// StragglerK and StragglerM tune the detector: a node flags after M
	// consecutive scrapes with round latency over K×cluster-p50 (0 = the
	// defaults of 2 and 3).
	StragglerK float64
	StragglerM int
	// TraceIDBase, when nonzero, enables distributed trace propagation
	// across the cluster's wire frames.
	TraceIDBase uint64
	Logger      *slog.Logger
	// Retention bounds the Director's in-memory TSDB: every scrape tick
	// folds the federated snapshot into compressed chunks, and chunks older
	// than Retention are evicted (0 = the tsdb default of 15m). The store
	// answers /query and feeds /dash.
	Retention time.Duration
	// AlertRules are evaluated against the TSDB every scrape tick, on top
	// of tsdb.DefaultClusterRules. Firing alerts surface on /alerts, the
	// cosmic_alert_firing gauge, the log, and the master's flight recorder.
	AlertRules []tsdb.Rule
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

	control, err := net.Listen("tcp", controlAddr)
	if err != nil {
		return nil, err
	}
	defer control.Close()

	bench, _ := dataset.ByName(spec.Benchmark)
	alg := bench.Algorithm(spec.Scale)

	// The master node itself (group 0's Sigma + top-level combiner).
	masterCfg := workerConfig{
		NodeID: 0, Role: int(runtime.RoleMasterSigma), Group: 0,
		MemberIDs: topo.MasterMemberIDs(), Spec: spec,
	}
	master, err := buildNode(masterCfg, opts.Obs, opts.Logger, false, 0)
	if err != nil {
		return nil, err
	}
	defer master.Close()

	// The Director's federated registry: the master's own metrics locally,
	// every worker's scraped exposition as a source.
	localReg := obs.NewRegistry()
	if opts.Obs != nil {
		localReg = opts.Obs.Registry()
	}
	fed := obs.NewFederation(localReg)
	mon := runtime.NewMonitor(localReg, opts.StragglerK, opts.StragglerM, opts.Logger)
	view := newClusterView()
	// The Director's TSDB: every scrape tick folds the federated snapshot
	// into compressed chunks (raw samples for Retention, minute-averaged
	// tier beyond that), and the alert rules run against it.
	store := tsdb.NewStore(tsdb.Options{Retention: opts.Retention, Downsample: time.Minute})
	eval, err := tsdb.NewEvaluator(
		append(tsdb.DefaultClusterRules(), opts.AlertRules...),
		localReg, opts.Logger, master.Flight())
	if err != nil {
		return nil, err
	}
	if opts.HTTPAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", fed.Handler())
		mux.HandleFunc("/cluster", view.handler())
		mux.Handle("/query", store.QueryHandler())
		mux.Handle("/dash", tsdb.DashHandler())
		mux.Handle("/alerts", eval.Handler())
		// The master node advertises the Director's address in the roster,
		// so cosmic-prof expects its cycle profile here like any worker's.
		cycles := obs.NewProfileSource()
		if ae, ok := master.Engine().(*runtime.AccelEngine); ok {
			cycles.Set(ae.CycleProfile)
		}
		mux.Handle(obs.CycleProfilePath, cycles.Handler())
		httpLn, err := net.Listen("tcp", opts.HTTPAddr)
		if err != nil {
			return nil, err
		}
		if opts.OnHTTP != nil {
			opts.OnHTTP(httpLn.Addr().String())
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(httpLn) //nolint:errcheck // closed on return
		defer srv.Close()
	}

	// Phase 0: admit every worker's join connection. A slot's conn can be
	// replaced mid-run by the rejoin acceptor (quorum mode), so access goes
	// through the mutex once training starts.
	type joined struct {
		mu   sync.Mutex
		conn *cosmicnet.Conn
		cfg  workerConfig
		dead bool
	}
	workers := make([]*joined, 0, spec.Nodes-1)
	for len(workers) < spec.Nodes-1 {
		raw, err := control.Accept()
		if err != nil {
			return nil, err
		}
		conn := &cosmicnet.Conn{Conn: raw}
		f, err := conn.Recv()
		if err != nil || f.Type != cosmicnet.MsgHello {
			conn.Close()
			continue
		}
		workers = append(workers, &joined{conn: conn})
	}

	sendConfig := func(conn *cosmicnet.Conn, cfg workerConfig) error {
		cfg.MasterUnixUS = time.Now().UnixMicro()
		blob, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		return conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgConfig, Text: string(blob)})
	}

	// Phase 1: configure group Sigmas (workers 0..Groups-2 become node IDs
	// 1..Groups-1) and collect their data-plane listener addresses.
	sigmaAddr := make([]string, spec.Groups)
	sigmaAddr[0] = master.Addr()
	for g := 1; g < spec.Groups; g++ {
		w := workers[g-1]
		cfg := workerConfig{
			NodeID: uint32(g), Role: int(runtime.RoleGroupSigma), Group: g,
			UpstreamAddr: master.Addr(), MemberIDs: topo.MemberIDs(g),
			Spec: spec,
		}
		w.cfg = cfg
		if err := sendConfig(w.conn, cfg); err != nil {
			return nil, err
		}
		ack, err := w.conn.Recv()
		if err != nil || ack.Type != cosmicnet.MsgAck {
			return nil, fmt.Errorf("deploy: sigma %d did not ack: %v", g, err)
		}
		sigmaAddr[g] = ack.Text
	}

	// Phase 2: configure Deltas.
	for id := spec.Groups; id < spec.Nodes; id++ {
		w := workers[id-1]
		group := topo.GroupOf[id]
		cfg := workerConfig{
			NodeID: uint32(id), Role: int(runtime.RoleDelta), Group: group,
			UpstreamAddr: sigmaAddr[group], Spec: spec,
		}
		w.cfg = cfg
		if err := sendConfig(w.conn, cfg); err != nil {
			return nil, err
		}
	}

	// Rejoin acceptor (quorum mode): a restarted worker process dials the
	// control port and sends MsgHello exactly like a fresh join; hand it the
	// config of a dead Delta slot so it can redial its Sigma and resume.
	// Sigma rejoin is not supported — a Sigma's listener address is baked
	// into its Deltas' configs, so a dead Sigma strands its group. The
	// goroutine exits when the deferred control.Close() fires.
	if spec.MinQuorum > 0 {
		go func() {
			for {
				raw, err := control.Accept()
				if err != nil {
					return
				}
				conn := &cosmicnet.Conn{Conn: raw}
				conn.SetDeadline(time.Now().Add(3 * time.Second))
				f, err := conn.Recv()
				conn.SetDeadline(time.Time{})
				if err != nil || f.Type != cosmicnet.MsgHello {
					conn.Close()
					continue
				}
				var slot *joined
				for _, w := range workers {
					w.mu.Lock()
					ok := w.dead && runtime.Role(w.cfg.Role) == runtime.RoleDelta
					w.mu.Unlock()
					if ok {
						slot = w
						break
					}
				}
				if slot == nil {
					conn.Close()
					continue
				}
				slot.mu.Lock()
				cfg := slot.cfg
				slot.mu.Unlock()
				if err := sendConfig(conn, cfg); err != nil {
					conn.Close()
					continue
				}
				slot.mu.Lock()
				slot.conn = conn
				slot.dead = false
				slot.mu.Unlock()
				if opts.Logger != nil {
					opts.Logger.Info("worker rejoined", "node", cfg.NodeID)
				}
			}
		}()
	}

	// Wait for the data plane to assemble, then train.
	master.WaitMembers()

	// Metrics federation: the control connections are idle during training,
	// so the Director periodically round-trips a MsgStats on each one,
	// merges every worker's exposition into /metrics, and feeds the round
	// latencies to the straggler detector. The scrape goroutine is this
	// side's only reader/writer on those connections until it is stopped.
	var scrapeWG sync.WaitGroup
	var stopScrape chan struct{}
	stopScrapers := func() {
		if stopScrape != nil {
			close(stopScrape)
			scrapeWG.Wait()
			stopScrape = nil
		}
	}
	defer stopScrapers()
	if opts.ScrapeInterval > 0 {
		stopScrape = make(chan struct{})
		scrapeWG.Add(1)
		// Pre-resolve one scrape-error counter per worker (worker i holds
		// node ID i+1) so the loop never touches the registry lock.
		scrapeErrs := make([]*obs.Counter, len(workers))
		for wi := range workers {
			scrapeErrs[wi] = localReg.Counter(obs.Labeled(
				"cosmic_cluster_scrape_errors_total", "node", strconv.Itoa(wi+1)))
		}
		go func() {
			defer scrapeWG.Done()
			ticker := time.NewTicker(opts.ScrapeInterval)
			defer ticker.Stop()
			var seq uint32
			for {
				select {
				case <-stopScrape:
					return
				case <-ticker.C:
				}
				seq++
				lat := make(map[string]float64)
				mst := statsFor(master, opts.Obs, opts.HTTPAddr)
				view.update(mst)
				if mst.LastRoundSeconds > 0 {
					lat[strconv.Itoa(int(mst.ID))] = mst.LastRoundSeconds
				}
				for wi, w := range workers {
					w.mu.Lock()
					conn, alive := w.conn, !w.dead
					w.mu.Unlock()
					if !alive {
						view.scrapeError(uint32(wi + 1))
						scrapeErrs[wi].Inc()
						continue
					}
					st, err := scrapeWorker(conn, seq)
					if err != nil {
						view.scrapeError(uint32(wi + 1))
						scrapeErrs[wi].Inc()
						// In quorum mode a hard connection error (not a slow
						// reply) frees the slot for the rejoin acceptor.
						if ne, ok := err.(net.Error); spec.MinQuorum > 0 && (!ok || !ne.Timeout()) {
							w.mu.Lock()
							if !w.dead && w.conn == conn {
								w.dead = true
								conn.Close()
							}
							w.mu.Unlock()
						}
						continue
					}
					view.update(st)
					if st.Exposition != "" {
						if samples, err := obs.ParseExposition(st.Exposition); err == nil {
							fed.Update(fmt.Sprintf("node-%d", st.ID), samples)
						}
					}
					if st.LastRoundSeconds > 0 {
						lat[strconv.Itoa(int(st.ID))] = st.LastRoundSeconds
					}
				}
				view.setStragglers(mon.Observe(lat))
				// Fold the whole federated snapshot into the TSDB at this
				// tick's timestamp, then run the alert rules against it.
				nowMS := time.Now().UnixMilli()
				store.AppendSet(nowMS, fed.Snapshot())
				eval.Eval(store, nowMS)
			}
		}()
	}

	model := alg.InitModel(rand.New(rand.NewSource(spec.Seed)))
	res := &Result{}
	full := bench.Generate(alg, spec.Samples, spec.Seed) // master's view of the loss
	res.InitialLoss = ml.MeanLoss(alg, model, full)

	trained, stats, err := master.DriveTraining(runtime.DriveConfig{
		Agg:         spec.agg(),
		LR:          spec.LearningRate,
		MiniBatch:   spec.MiniBatch,
		TraceIDBase: opts.TraceIDBase,
	}, model, spec.Rounds)
	if err != nil {
		return nil, err
	}
	master.SendDone()
	// Quiesce the scrape loop before tearing down the control connections
	// it shares.
	stopScrapers()
	res.Model = trained
	res.Stats = stats
	res.Stats.NetworkSentBytes, res.Stats.NetworkReceivedBytes = master.NetworkBytes()
	res.FinalLoss = ml.MeanLoss(alg, trained, full)

	// Give the workers a moment to read the Done before the control
	// connections drop.
	for _, w := range workers {
		w.mu.Lock()
		w.conn.SetDeadline(time.Now().Add(2 * time.Second))
		w.conn.Close()
		w.mu.Unlock()
	}
	return res, nil
}

// WorkerOptions attaches observability and the local redial policy to a
// worker process; the zero value runs a bare worker.
type WorkerOptions struct {
	// Obs receives the node's telemetry; its exposition also rides MsgStats
	// replies so the Director can federate it.
	Obs *obs.Observer
	// Logger receives the node's structured diagnostics.
	Logger *slog.Logger
	// OnNode, when set, receives the running node once configured — the
	// hook cmd/cosmic-node uses to wire its /healthz probe.
	OnNode func(n *runtime.Node)
	// ChunkWords, when non-zero, is the streaming-chunk boundary this
	// worker insists on. The boundary is cluster-wide (fixed boundaries are
	// what keep the ordered fold deterministic), so a Director whose
	// resolved policy uses a different value is rejected instead of
	// silently diverging.
	ChunkWords int
	// HTTPAddr is the worker's debug HTTP listener address, advertised in
	// MsgStats replies so the Director's /cluster roster (and cosmic-prof)
	// can find this node's profiling endpoints.
	HTTPAddr string
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

// RunWorker joins the master at controlAddr, receives its assignment, and
// runs its node loop until training completes. After configuration the
// worker answers the Director's MsgStats scrapes on the control connection
// while the node loop runs on the data plane.
func RunWorker(controlAddr string, opts WorkerOptions) error {
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
	if opts.OnNode != nil {
		opts.OnNode(node)
	}
	if runtime.Role(cfg.Role) == runtime.RoleGroupSigma {
		// Report the data-plane listener so the Director can point this
		// group's Deltas at it.
		if err := conn.Send(&cosmicnet.Frame{Type: cosmicnet.MsgAck, From: cfg.NodeID, Text: node.Addr()}); err != nil {
			return err
		}
	}
	// The control connection is now idle on this side; serve the Director's
	// stats scrapes until it closes.
	go serveStats(conn, node, opts.Obs, opts.HTTPAddr)
	return node.Run()
}
