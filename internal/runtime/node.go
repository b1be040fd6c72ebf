package runtime

import (
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// NodeConfig configures one node of the scale-out system.
type NodeConfig struct {
	ID    uint32
	Role  Role
	Group int
	// UpstreamAddr is where this node sends its results: the group Sigma's
	// address for Deltas, the master's address for group Sigmas; empty for
	// the master.
	UpstreamAddr string
	// MemberIDs lists the node IDs whose contributions this node's
	// aggregation stage folds each round, its own included (Sigma roles
	// only; required). The sorted order of the IDs fixes the fold order,
	// which is what makes aggregation bit-deterministic.
	MemberIDs []uint32
	// ChunkWords is the fixed chunk boundary in vector elements — the unit
	// partials stream, fold, and forward at. 0 selects the default
	// (ChunkSize); other values must be powers of two.
	ChunkWords int
	// Engine computes partial updates.
	Engine Engine
	// ModelSize is the flat parameter-vector length.
	ModelSize int
	Agg       dsl.AggregatorKind
	LR        float64
	// ShardBatch is how many local samples the node consumes per
	// mini-batch round.
	ShardBatch int
	// RoundTimeout bounds how long a Sigma waits for its members'
	// contributions each round (0 = forever). With a timeout, a dead
	// member fails the round instead of wedging the cluster.
	RoundTimeout time.Duration
	// MinQuorum, when > 0, turns a round timeout into exclude-and-continue:
	// instead of failing, the Sigma folds the round with the contributions
	// that arrived — as long as at least MinQuorum members (its own
	// contribution included) are present — and marks the absentees suspect.
	// Suspects are pre-excluded from later rounds until they speak again
	// (a fresh hello or data from a newer round), so one dead member costs
	// one RoundTimeout, not one per round. 0 keeps fail-fast behavior.
	MinQuorum int
	// Reconnect makes a non-master node redial its upstream with bounded
	// exponential backoff when the connection drops mid-run, re-announcing
	// itself with a hello, instead of failing. ReconnectWait bounds the
	// total redial budget (0 = 30s).
	Reconnect     bool
	ReconnectWait time.Duration
	// Transport opens this node's listener and upstream connection. nil
	// selects cosmicnet.TCP; the chaos fabric substitutes its own.
	Transport cosmicnet.Transport
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
	// Logger, when set, receives structured diagnostics (failures,
	// timeouts, straggler warnings) with node/role/group attributes
	// attached; nil discards them (Logf still fires).
	Logger *slog.Logger
	// Obs, when non-nil, records per-frame counters, aggregation fan-in,
	// ring depth, and per-round spans for this node. nil disables all of it.
	Obs *obs.Observer
	// FlightSize bounds the node's flight recorder (last-N wire events
	// kept for post-mortem dumps); 0 means the default of 256.
	FlightSize int
	// DiagDir is where round-failure diagnostic dumps land; empty means
	// the OS temp directory.
	DiagDir string
}

func (c *NodeConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ValidChunkWords reports whether w is an acceptable ChunkWords setting:
// zero (default) or a power of two.
func ValidChunkWords(w int) bool {
	return w == 0 || (w > 0 && bits.OnesCount(uint(w)) == 1)
}

// aggWorkers is the Sigma's Aggregation Pool size; ringCapacity bounds the
// circular buffer feeding it.
const (
	aggWorkers   = 4
	ringCapacity = 64
)

// discardLogger drops records; the default when no Logger is configured.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// Node is one running member of the cluster.
type Node struct {
	cfg NodeConfig
	// transport is the resolved Transport (cosmicnet.TCP by default).
	transport cosmicnet.Transport
	obs       *nodeObs
	logger    *slog.Logger
	// chunkWords is the resolved fixed chunk boundary.
	chunkWords int
	// flight is the node's bounded forensic ring of wire events; always on
	// (it is alloc-free), dumped when a round fails.
	flight *obs.FlightRecorder
	// spanCtr mints this node's wire span IDs; lastSeq and lastRoundNanos
	// feed /healthz and the director's straggler detector.
	spanCtr        atomic.Uint64
	lastSeq        atomic.Uint32
	lastRoundNanos atomic.Int64
	data           []ml.Sample
	// cursor is the node's position in its data shard; batch is the reused
	// slice the round's samples are gathered into.
	cursor int
	batch  []ml.Sample
	// zero is the partial of a node with no data, made once.
	zero []float64

	ln   *cosmicnet.Listener
	upMu sync.Mutex
	// upstream is the current upstream connection; sentBase/recvBase carry
	// the byte counters of connections replaced by a reconnect.
	upstream           *cosmicnet.Conn
	sentBase, recvBase int64
	// sendMu serializes upstream frame writes: with fold-on-arrival
	// forwarding, per-chunk completion callbacks send from concurrent
	// aggregation workers.
	sendMu sync.Mutex

	// Sigma machinery.
	ring *CircularBuffer
	agg  *AggregationBuffer
	// downstream are the member connections a Sigma forwards models to.
	// Dead ones are pruned on send failure; downSentBase/downRecvBase carry
	// the pruned connections' byte counters.
	downstream                 []*cosmicnet.Conn
	downstreamMu               sync.Mutex
	downSentBase, downRecvBase int64

	helloMu    sync.Mutex
	helloCond  *sync.Cond
	helloCount int

	// suspects maps a member ID to the round that timed it out (quorum
	// mode). A suspect is pre-excluded from new rounds until it clears.
	suspectMu sync.Mutex
	suspects  map[uint32]uint32

	wg        sync.WaitGroup
	stopped   chan struct{}
	closing   atomic.Bool
	closeCh   chan struct{}
	closeOnce sync.Once
	errOnce   sync.Once
	err       error
}

// Addr returns the node's listen address (Sigma roles).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Err returns the first fatal error the node hit.
func (n *Node) Err() error { return n.err }

// Engine returns the node's compute engine (set at configuration, read-only
// after). HTTP handlers use it to reach an AccelEngine's cycle profile.
func (n *Node) Engine() Engine { return n.cfg.Engine }

func (n *Node) fail(err error) {
	if err == nil {
		return
	}
	n.errOnce.Do(func() {
		n.err = err
		n.cfg.logf("node %d failed: %v", n.cfg.ID, err)
		n.logger.Error("node failed", "round", n.lastSeq.Load(), "err", err)
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "node-failed", Seq: n.lastSeq.Load()})
	})
}

// nextSpanID mints a node-unique wire span ID: node ID in the high bits, a
// monotonic counter below.
func (n *Node) nextSpanID() uint64 {
	return uint64(n.cfg.ID+1)<<40 | n.spanCtr.Add(1)
}

// NodeHealth is the /healthz document of one node.
type NodeHealth struct {
	ID      uint32 `json:"node"`
	Role    string `json:"role"`
	Group   int    `json:"group"`
	LastSeq uint32 `json:"last_round_seq"`
	// RingDepth is the Sigma aggregation ring's current occupancy (0 for
	// Deltas); FlightDepth the retained flight-recorder events.
	RingDepth   int `json:"ring_depth"`
	FlightDepth int `json:"flight_depth"`
	// LastRoundSeconds is the node's most recent round wall time.
	LastRoundSeconds float64 `json:"last_round_seconds"`
}

// Health reports the node's live state.
func (n *Node) Health() NodeHealth {
	h := NodeHealth{
		ID:               n.cfg.ID,
		Role:             n.cfg.Role.String(),
		Group:            n.cfg.Group,
		LastSeq:          n.lastSeq.Load(),
		FlightDepth:      n.flight.Len(),
		LastRoundSeconds: time.Duration(n.lastRoundNanos.Load()).Seconds(),
	}
	if n.ring != nil {
		h.RingDepth = n.ring.Len()
	}
	return h
}

// LastRoundSeconds returns the node's most recent round wall time (0 before
// the first completed round).
func (n *Node) LastRoundSeconds() float64 {
	return time.Duration(n.lastRoundNanos.Load()).Seconds()
}

// noteRound records a completed round for health and straggler reporting.
func (n *Node) noteRound(seq uint32, d time.Duration) {
	n.lastSeq.Store(seq)
	n.lastRoundNanos.Store(int64(d))
	n.obs.roundDone(seq, d)
}

// Flight returns the node's flight recorder, so deployment-level machinery
// (the worker's alert evaluator) can mark alert transitions alongside the
// node's own wire events.
func (n *Node) Flight() *obs.FlightRecorder { return n.flight }

// DumpFlight writes the node's flight-recorder contents to a file named
// node-<id>.flight in dir (created if needed) and returns its path.
func (n *Node) DumpFlight(dir string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("node-%d.flight", n.cfg.ID))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := n.flight.Dump(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// dumpDiagnostics is the node's own round-failure bundle: a fresh directory
// under DiagDir holding this node's flight dump. Best-effort — on error it
// returns a placeholder path so the caller's error message stays useful.
func (n *Node) dumpDiagnostics(reason string) string {
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: reason, Seq: n.lastSeq.Load()})
	base := n.cfg.DiagDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "cosmic-diag-*")
	if err != nil {
		return "(diagnostics unavailable: " + err.Error() + ")"
	}
	if _, err := n.DumpFlight(dir); err != nil {
		return "(diagnostics unavailable: " + err.Error() + ")"
	}
	return dir
}

// lastSeenSummary formats the flight recorder's per-peer last receive seqs
// ("peer 3: seq 12, peer 4: none") for timeout diagnostics.
func (n *Node) lastSeenSummary() string {
	seqs := n.flight.LastRecvSeqs()
	if len(seqs) == 0 {
		return "no frames received"
	}
	peers := make([]int, 0, len(seqs))
	for p := range seqs {
		peers = append(peers, int(p))
	}
	sort.Ints(peers)
	parts := make([]string, 0, len(peers))
	for _, p := range peers {
		parts = append(parts, fmt.Sprintf("peer %d: seq %d", p, seqs[uint32(p)]))
	}
	return strings.Join(parts, ", ")
}

// StartNode launches a node over its shard. Sigma roles open a listener and
// start the aggregation pool; Delta roles only dial upstream (from Run).
func StartNode(cfg NodeConfig, shard []ml.Sample) (*Node, error) {
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = 256
	}
	if !ValidChunkWords(cfg.ChunkWords) {
		return nil, fmt.Errorf("runtime: ChunkWords %d is not a power of two", cfg.ChunkWords)
	}
	if cfg.ChunkWords == 0 {
		cfg.ChunkWords = ChunkSize
	}
	n := &Node{cfg: cfg, data: shard, stopped: make(chan struct{}), chunkWords: cfg.ChunkWords}
	n.transport = cfg.Transport
	if n.transport == nil {
		n.transport = cosmicnet.TCP
	}
	n.closeCh = make(chan struct{})
	n.suspects = make(map[uint32]uint32)
	n.obs = newNodeObs(cfg.Obs, cfg.ID, cfg.Role)
	n.flight = obs.NewFlightRecorder(cfg.FlightSize)
	logger := cfg.Logger
	if logger == nil {
		logger = discardLogger
	}
	n.logger = logger.With("node", cfg.ID, "role", cfg.Role.String(), "group", cfg.Group)
	n.helloCond = sync.NewCond(&n.helloMu)
	if cfg.Role != RoleDelta {
		var err error
		if n.agg, err = NewAggregationBuffer(cfg.ModelSize, cfg.ChunkWords, cfg.MemberIDs); err != nil {
			return nil, fmt.Errorf("node %d (%v): %w", cfg.ID, cfg.Role, err)
		}
		ln, err := n.transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n.ln = ln
		n.ring = NewCircularBuffer(ringCapacity)
		if cfg.Obs != nil {
			n.ring.SetDepthGauge(cfg.Obs.Registry().Gauge(
				obs.Labeled("cosmic_node_ring_depth", "node", strconv.Itoa(int(cfg.ID)))))
			n.agg.SetPipelineGauge(cfg.Obs.Registry().Gauge(
				obs.Labeled("cosmic_sigma_pipeline_depth", "node", strconv.Itoa(int(cfg.ID)))))
		}
		for i := 0; i < aggWorkers; i++ {
			n.wg.Add(1)
			go n.aggWorker()
		}
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// aggWorker is one Aggregation Pool thread: it drains the circular buffer
// into the aggregation buffer until the ring closes. Pooled wire payloads
// are recycled once folded — the Add path never retains the chunk's slice.
func (n *Node) aggWorker() {
	defer n.wg.Done()
	for {
		c, ok := n.ring.Pop()
		if !ok {
			return
		}
		// Counted before the fold: the fold can complete the round, and
		// whoever sees the round complete must find the counters moved.
		n.obs.chunkFolded(c.Last)
		err := n.agg.Add(c)
		if c.Recycle {
			cosmicnet.PutPayload(c.Data)
		}
		if err != nil {
			n.fail(err)
			return
		}
	}
}

// acceptLoop is the Incoming Network Handler: it admits member connections
// and spawns a bounded reader per socket. (Go's netpoller is the epoll
// loop underneath; readers block cheaply until their socket is readable.)
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.AcceptConn()
		if err != nil {
			return // listener closed
		}
		n.downstreamMu.Lock()
		n.downstream = append(n.downstream, conn)
		n.downstreamMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop dispatches inbound frames from one member connection. The frame
// is decoded into reused storage; data-frame payloads are handed off to the
// fold pipeline and replaced from the payload pool, so a steady-state round
// recycles a few buffers instead of allocating per frame.
func (n *Node) readLoop(conn *cosmicnet.Conn) {
	defer n.wg.Done()
	f := new(cosmicnet.Frame)
	for {
		if err := conn.RecvInto(f); err != nil {
			return // peer closed
		}
		n.flight.Record(obs.FlightEvent{
			Dir: obs.FlightRecv, Type: f.Type.String(), Peer: f.From,
			Seq: f.Seq, Bytes: len(f.Payload) * 8,
		})
		switch f.Type {
		case cosmicnet.MsgHello:
			n.cfg.logf("node %d: member %d connected (%s)", n.cfg.ID, f.From, f.Text)
			if n.obs != nil {
				n.obs.recvFrame(n.obs.framesHello, len(f.Payload))
			}
			// A fresh hello from a suspect member is a rejoin: stop
			// pre-excluding it from the next round.
			n.clearSuspect(f.From, 0, true)
			n.helloMu.Lock()
			n.helloCount++
			n.helloMu.Unlock()
			n.helloCond.Broadcast()
		case cosmicnet.MsgPartial, cosmicnet.MsgGroupAggregate:
			// Data from a round newer than the one that timed the member out
			// means it caught back up on its existing connection.
			n.clearSuspect(f.From, f.Seq, false)
			if n.obs != nil {
				ctr, name := n.obs.framesPartial, "recv-partial"
				if f.Type == cosmicnet.MsgGroupAggregate {
					ctr, name = n.obs.framesGroupAgg, "recv-group-aggregate"
				}
				n.obs.recvFrame(ctr, len(f.Payload))
				sp := n.obs.tracer().Begin("runtime", name, n.obs.threadID())
				sp.EndArgs(traceArgs(f, obs.ArgFlowIn))
			}
			if !f.Chunked() {
				// Every sender streams chunk frames; a whole-vector frame is
				// outside input. f keeps its payload for the next decode.
				n.fail(fmt.Errorf("node %d: un-chunked %v frame from %d", n.cfg.ID, f.Type, f.From))
				continue
			}
			// Fold on arrival: the frame already is one ring chunk, so it
			// goes straight to the Aggregation Pool. The payload's ownership
			// moves to the chunk (Recycle: true makes aggWorker Put it after
			// folding).
			//cosmic:transfers f.Payload moves into the ring chunk
			c := Chunk{
				Seq: f.Seq, From: f.From, Offset: int(f.ChunkOffset),
				Data: f.Payload, Weight: f.Weight,
				Last: f.ChunkIndex == f.ChunkCount-1, Recycle: true,
			}
			f.Payload = nil // the next decode draws a recycled buffer of its size
			if !n.ring.Push(c) {
				return
			}
		default:
			n.fail(fmt.Errorf("node %d: unexpected %v frame from %d", n.cfg.ID, f.Type, f.From))
		}
	}
}

// nextShardBatch returns the node's next ShardBatch samples, cycling
// through its shard. The slice is reused by the next call.
func (n *Node) nextShardBatch() []ml.Sample {
	if len(n.data) == 0 {
		return nil
	}
	n.batch = n.batch[:0]
	for len(n.batch) < n.cfg.ShardBatch {
		n.batch = append(n.batch, n.data[n.cursor])
		n.cursor = (n.cursor + 1) % len(n.data)
	}
	return n.batch
}

// computePartial runs the engine over the next shard batch. The result is
// valid until the next call (the Engine contract).
func (n *Node) computePartial(model []float64) ([]float64, error) {
	batch := n.nextShardBatch()
	if batch == nil {
		if n.zero == nil {
			n.zero = make([]float64, n.cfg.ModelSize)
		}
		return n.zero, nil
	}
	return n.cfg.Engine.PartialUpdate(model, batch)
}

// pushLocalChunks feeds the node's own partial into its aggregation
// pipeline: fixed-boundary subslices of the vector go straight onto the
// ring, no copy and no chunk-slice allocation (the local-contribution
// fast path).
func (n *Node) pushLocalChunks(seq uint32, vec []float64, weight float64) error {
	if len(vec) == 0 {
		if !n.ring.Push(Chunk{Seq: seq, From: n.cfg.ID, Weight: weight, Last: true}) {
			return fmt.Errorf("node %d: ring closed mid-batch", n.cfg.ID)
		}
		return nil
	}
	for off := 0; off < len(vec); off += n.chunkWords {
		end := off + n.chunkWords
		if end > len(vec) {
			end = len(vec)
		}
		if !n.ring.Push(Chunk{
			Seq: seq, From: n.cfg.ID, Offset: off,
			Data: vec[off:end], Weight: weight, Last: end == len(vec),
		}) {
			return fmt.Errorf("node %d: ring closed mid-batch", n.cfg.ID)
		}
	}
	return nil
}

// NetworkBytes sums the frame bytes this node moved over its upstream and
// member connections.
func (n *Node) NetworkBytes() (sent, received int64) {
	n.upMu.Lock()
	sent, received = n.sentBase, n.recvBase
	if n.upstream != nil {
		sent += n.upstream.BytesSent()
		received += n.upstream.BytesReceived()
	}
	n.upMu.Unlock()
	n.downstreamMu.Lock()
	sent += n.downSentBase
	received += n.downRecvBase
	for _, c := range n.downstream {
		sent += c.BytesSent()
		received += c.BytesReceived()
	}
	n.downstreamMu.Unlock()
	return sent, received
}

// WaitMembers blocks until every other member of the node's fold set has
// said hello (Sigma startup barrier: a Sigma must know all its members
// before forwarding the first model broadcast).
func (n *Node) WaitMembers() {
	n.helloMu.Lock()
	for n.helloCount < len(n.cfg.MemberIDs)-1 {
		n.helloCond.Wait()
	}
	n.helloMu.Unlock()
}

// markSuspect flags a member that missed a quorum fold: it stays
// pre-excluded from later rounds until it speaks again.
func (n *Node) markSuspect(id, seq uint32) {
	n.suspectMu.Lock()
	_, already := n.suspects[id]
	n.suspects[id] = seq
	n.suspectMu.Unlock()
	if !already {
		n.logger.Warn("member suspect", "member", id, "round", seq)
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "member-suspect", Peer: id, Seq: seq})
		n.obs.suspect(id, 1)
	}
}

// clearSuspect lifts a member's suspect mark when it shows signs of life: a
// fresh hello (always trusted — it is a reconnect), or data from a round
// newer than the one that timed it out.
func (n *Node) clearSuspect(id, seq uint32, hello bool) {
	n.suspectMu.Lock()
	marked, was := n.suspects[id]
	cleared := was && (hello || seq > marked)
	if cleared {
		delete(n.suspects, id)
	}
	n.suspectMu.Unlock()
	if cleared {
		n.logger.Info("member rejoined", "member", id, "round", seq)
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "member-rejoined", Peer: id, Seq: seq})
		n.obs.suspect(id, 0)
	}
}

// preExcludeSuspects excludes known-suspect members from a fresh round so a
// dead member costs one RoundTimeout total, not one per round — but only
// while enough members remain for a quorum; otherwise the round waits for
// the suspects like any other member. Reports whether anyone was excluded.
func (n *Node) preExcludeSuspects(seq uint32, minQuorum int) bool {
	if minQuorum <= 0 {
		return false
	}
	n.suspectMu.Lock()
	ids := make([]uint32, 0, len(n.suspects))
	for id := range n.suspects {
		ids = append(ids, id)
	}
	n.suspectMu.Unlock()
	if len(ids) == 0 {
		return false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Count survivors against the fold set the buffer actually waits on
	// (for the master that includes one aggregate per other group's Sigma).
	if len(n.cfg.MemberIDs)-len(ids) < minQuorum {
		return false
	}
	if n.agg.Exclude(ids) == 0 {
		return false
	}
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "member-excluded", Seq: seq})
	n.logger.Warn("round started without suspect members", "round", seq, "excluded", ids)
	return true
}

// quorumFold rescues a timed-out round: if a quorum of members delivered
// full contributions, the absentees are excluded (completing the fold with
// what arrived) and marked suspect. Reports whether the round was saved.
func (n *Node) quorumFold(seq uint32, minQuorum int, rewait time.Duration) bool {
	if minQuorum <= 0 {
		return false
	}
	present, _, missing := n.agg.QuorumStatus()
	if len(missing) == 0 || len(present) < minQuorum {
		return false
	}
	for _, id := range missing {
		n.markSuspect(id, seq)
	}
	if n.agg.Exclude(missing) == 0 {
		return false
	}
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "member-excluded", Seq: seq})
	n.logger.Warn("round folded on quorum", "round", seq,
		"present", len(present), "excluded", missing)
	// Exclusion completes every chunk that was only waiting on the missing
	// members; the short re-wait covers completion callbacks in flight.
	ok, err := n.agg.WaitComplete(rewait, nil)
	return err == nil && ok
}

// connectUpstream dials the node's upstream and announces the node with a
// hello, replacing (and accounting for) any previous connection.
func (n *Node) connectUpstream() (*cosmicnet.Conn, error) {
	up, err := n.transport.Dial(n.cfg.UpstreamAddr)
	if err != nil {
		return nil, err
	}
	n.upMu.Lock()
	if n.closing.Load() {
		// Close ran before there was a connection for it to sever.
		n.upMu.Unlock()
		up.Close()
		return nil, fmt.Errorf("node %d: closed", n.cfg.ID)
	}
	if n.upstream != nil {
		n.sentBase += n.upstream.BytesSent()
		n.recvBase += n.upstream.BytesReceived()
		n.upstream.Close()
	}
	n.upstream = up
	n.upMu.Unlock()
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightSend, Type: cosmicnet.MsgHello.String()})
	if err := up.Send(&cosmicnet.Frame{Type: cosmicnet.MsgHello, From: n.cfg.ID, Text: n.Addr()}); err != nil {
		return nil, err
	}
	return up, nil
}

// redialUpstream re-establishes a lost upstream connection with bounded
// exponential backoff: 50ms doubling to a 2s cap, within a total budget of
// ReconnectWait. Close interrupts the wait.
func (n *Node) redialUpstream(cause error) (*cosmicnet.Conn, error) {
	budget := n.cfg.ReconnectWait
	if budget <= 0 {
		budget = 30 * time.Second
	}
	n.logger.Warn("upstream lost; reconnecting", "err", cause)
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "reconnecting"})
	deadline := time.Now().Add(budget)
	delay := 50 * time.Millisecond
	for {
		if n.closing.Load() {
			return nil, fmt.Errorf("node %d: closed while reconnecting", n.cfg.ID)
		}
		up, err := n.connectUpstream()
		if err == nil {
			n.logger.Info("upstream reconnected")
			n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "reconnected"})
			return up, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %d: reconnect budget exhausted: %w", n.cfg.ID, err)
		}
		select {
		case <-n.closeCh:
			return nil, fmt.Errorf("node %d: closed while reconnecting", n.cfg.ID)
		case <-time.After(delay):
		}
		delay *= 2
		if delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

// Run executes the node's role loop until MsgDone. It blocks; callers run
// it in a goroutine. The master does not use Run — the driver in
// Cluster.Train plays that role.
func (n *Node) Run() error {
	defer close(n.stopped)
	up, err := n.connectUpstream()
	if err != nil {
		n.fail(err)
		return err
	}
	defer func() {
		n.upMu.Lock()
		if n.upstream != nil {
			n.upstream.Close()
		}
		n.upMu.Unlock()
	}()
	if n.cfg.Role == RoleGroupSigma {
		// All group members must be connected before the first model
		// forward, or they would miss the round.
		n.WaitMembers()
	}

	// One frame serves every round: a model is decoded into the payload the
	// previous one left; handleModel is done with it before the next receive.
	f := new(cosmicnet.Frame)
	for {
		err := up.RecvInto(f)
		if err != nil {
			if n.closing.Load() || !n.cfg.Reconnect {
				n.fail(fmt.Errorf("node %d: upstream: %w", n.cfg.ID, err))
				return n.err
			}
			up, err = n.redialUpstream(err)
			if err != nil {
				n.fail(err)
				return err
			}
			continue
		}
		n.flight.Record(obs.FlightEvent{
			Dir: obs.FlightRecv, Type: f.Type.String(), Peer: f.From,
			Seq: f.Seq, Bytes: len(f.Payload) * 8,
		})
		switch f.Type {
		case cosmicnet.MsgModel:
			if err := n.handleModel(f); err != nil {
				n.fail(err)
				return err
			}
		case cosmicnet.MsgDone:
			n.forwardDone()
			return nil
		default:
			n.logger.Warn("ignoring unexpected frame", "type", f.Type.String(), "from", f.From, "seq", f.Seq)
		}
	}
}

// handleModel processes one mini-batch round for a Delta or group Sigma.
func (n *Node) handleModel(f *cosmicnet.Frame) error {
	tr := n.obs.tracer()
	roundStart := time.Now()
	switch n.cfg.Role {
	case RoleDelta:
		sp := tr.Begin("runtime", "delta-compute", n.obs.threadID())
		partial, err := n.computePartial(f.Payload)
		sp.EndArgs(traceArgs(f, obs.ArgFlowIn))
		if err != nil {
			return err
		}
		n.obs.sent(len(partial))
		n.noteRound(f.Seq, time.Since(roundStart))
		return n.streamUpstream(cosmicnet.MsgPartial, f.Seq, 1, partial, f.TraceID)

	case RoleGroupSigma:
		round := tr.Begin("runtime", "sigma-round", n.obs.threadID())
		// New round: clear the aggregation state before any member can
		// respond to the forwarded model. Reset arms the stale-round filter
		// on f.Seq, so an excluded member's late chunks fold into nothing.
		n.agg.Reset(f.Seq)
		seq, traceID := f.Seq, f.TraceID
		excludedRound := n.preExcludeSuspects(seq, n.cfg.MinQuorum)
		// Fold-on-arrival forwarding: the moment chunk idx has every
		// member's contribution, ship it upstream — the master starts
		// folding this group's early chunks while later ones are still
		// crossing the group's own links. The callback runs on
		// aggregation workers; sendUpstream serializes the writes.
		count := uint32(n.agg.ChunkCount())
		n.agg.SetOnComplete(func(idx int, span []float64, weight float64) {
			n.obs.sent(len(span))
			if err := n.sendUpstream(&cosmicnet.Frame{
				Type: cosmicnet.MsgGroupAggregate, Seq: seq, From: n.cfg.ID,
				Weight: weight, Payload: span, TraceID: traceID,
				ChunkIndex: uint32(idx), ChunkCount: count,
				ChunkOffset: uint32(idx * n.chunkWords),
			}); err != nil {
				n.fail(err)
			}
		})
		n.broadcastDownstream(f)
		// The Sigma computes its own partial too; its contribution takes
		// the same chunked path as remote ones.
		sp := tr.Begin("runtime", "sigma-compute", n.obs.threadID())
		partial, err := n.computePartial(f.Payload)
		sp.End()
		if err != nil {
			return err
		}
		if err := n.pushLocalChunks(seq, partial, 1); err != nil {
			return err
		}
		// Wait until every chunk has every member (each one has then already
		// been forwarded).
		sp = tr.Begin("runtime", "sigma-aggregate-wait", n.obs.threadID())
		ok, err := n.agg.WaitComplete(n.cfg.RoundTimeout, nil)
		sp.End()
		if err != nil {
			return err
		}
		if !ok {
			switch {
			case n.quorumFold(seq, n.cfg.MinQuorum, n.cfg.RoundTimeout):
				excludedRound = true
			case n.cfg.MinQuorum > 0:
				// Below quorum the group sits the round out: the master folds
				// without this Sigma, which lives to serve the next round.
				// Dying here would strand the group's Deltas for good.
				n.logger.Warn("round below quorum; group sits it out", "round", seq)
				return nil
			default:
				lastSeen := n.lastSeenSummary()
				dump := n.dumpDiagnostics("round-timeout")
				n.logger.Error("round timed out waiting for group members",
					"round", seq, "last_seen", lastSeen, "diagnostics", dump)
				return fmt.Errorf("node %d: round %d timed out waiting for group members (last seen: %s; flight dump: %s)",
					n.cfg.ID, seq, lastSeen, dump)
			}
		}
		if excludedRound {
			n.obs.roundExcluded()
		}
		n.noteRound(seq, time.Since(roundStart))
		round.EndArgs(traceArgs(f, obs.ArgFlowIn))
		return nil // every chunk already forwarded on completion
	}
	return fmt.Errorf("node %d: role %v cannot handle model frames via Run", n.cfg.ID, n.cfg.Role)
}

// streamUpstream sends vec as a stream of fixed-boundary chunk frames. The
// payloads alias vec — nothing is copied.
func (n *Node) streamUpstream(typ cosmicnet.MsgType, seq uint32, weight float64, vec []float64, traceID uint64) error {
	count := uint32(ChunksFor(len(vec), n.chunkWords))
	if len(vec) == 0 {
		return n.sendUpstream(&cosmicnet.Frame{
			Type: typ, Seq: seq, From: n.cfg.ID, Weight: weight,
			TraceID: traceID, ChunkIndex: 0, ChunkCount: 1,
		})
	}
	idx := uint32(0)
	for off := 0; off < len(vec); off += n.chunkWords {
		end := off + n.chunkWords
		if end > len(vec) {
			end = len(vec)
		}
		if err := n.sendUpstream(&cosmicnet.Frame{
			Type: typ, Seq: seq, From: n.cfg.ID, Weight: weight,
			Payload: vec[off:end], TraceID: traceID,
			ChunkIndex: idx, ChunkCount: count, ChunkOffset: uint32(off),
		}); err != nil {
			return err
		}
		idx++
	}
	return nil
}

// sendUpstream stamps the frame with a fresh wire span ID when it belongs to
// a trace, emits the matching send span (its ArgFlowOut is what the trace
// merger joins to the receiver's ArgFlowIn), records the flight event, and
// writes the frame upstream. Concurrent senders (per-chunk completion
// callbacks run on aggregation workers) are serialized.
func (n *Node) sendUpstream(f *cosmicnet.Frame) error {
	if f.TraceID != 0 {
		f.SpanID = n.nextSpanID()
	}
	if n.obs != nil {
		sp := n.obs.tracer().Begin("runtime", "send-"+f.Type.String(), n.obs.threadID())
		sp.EndArgs(traceArgs(f, obs.ArgFlowOut))
	}
	n.flight.Record(obs.FlightEvent{
		Dir: obs.FlightSend, Type: f.Type.String(), Seq: f.Seq, Bytes: len(f.Payload) * 8,
	})
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	n.upMu.Lock()
	up := n.upstream
	n.upMu.Unlock()
	if up == nil {
		return fmt.Errorf("node %d: no upstream connection", n.cfg.ID)
	}
	err := up.Send(f)
	if err != nil && n.cfg.Reconnect && !n.closing.Load() {
		// The Run loop is (or will be) redialing; this round's contribution
		// is lost, but the member survives to rejoin the next one.
		n.logger.Warn("upstream send failed; contribution dropped", "round", f.Seq, "err", err)
		return nil
	}
	return err
}

// broadcastDownstream forwards a frame to every member connection. Each hop
// gets its own wire span ID (a broadcast is one arrow per receiver in the
// merged trace), so the frame is copied per connection.
func (n *Node) broadcastDownstream(f *cosmicnet.Frame) {
	n.downstreamMu.Lock()
	conns := append([]*cosmicnet.Conn(nil), n.downstream...)
	n.downstreamMu.Unlock()
	// In quorum mode the sends are bounded: the broadcast walks the members
	// serially, so one flooded socket (a pre-excluded member that fell
	// rounds behind and stopped draining) would otherwise block the model
	// frame for every healthy member and starve the round below quorum. A
	// member that cannot absorb a frame within the round budget is treated
	// like one that cannot be written at all: pruned, to rejoin on a fresh
	// connection.
	var sendBudget time.Duration
	if n.cfg.MinQuorum > 0 && n.cfg.RoundTimeout > 0 {
		sendBudget = n.cfg.RoundTimeout
	}
	for _, c := range conns {
		out := *f
		if out.TraceID != 0 {
			out.SpanID = n.nextSpanID()
		}
		if n.obs != nil {
			sp := n.obs.tracer().Begin("runtime", "send-"+out.Type.String(), n.obs.threadID())
			sp.EndArgs(traceArgs(&out, obs.ArgFlowOut))
		}
		n.flight.Record(obs.FlightEvent{
			Dir: obs.FlightSend, Type: out.Type.String(), Seq: out.Seq, Bytes: len(out.Payload) * 8,
		})
		if sendBudget > 0 {
			c.SetWriteDeadline(time.Now().Add(sendBudget))
		}
		err := c.Send(&out)
		if sendBudget > 0 {
			c.SetWriteDeadline(time.Time{})
		}
		if err != nil {
			n.cfg.logf("node %d: downstream send: %v", n.cfg.ID, err)
			n.logger.Warn("downstream send failed", "round", out.Seq, "err", err)
			// A member connection that cannot be written to is dead: prune
			// it so later broadcasts stop burning a send on it. A rejoining
			// member arrives on a fresh connection via the accept loop.
			n.pruneDownstream(c)
		}
	}
}

// pruneDownstream drops one dead member connection, folding its byte
// counters into the node totals.
func (n *Node) pruneDownstream(dead *cosmicnet.Conn) {
	n.downstreamMu.Lock()
	for i, c := range n.downstream {
		if c == dead {
			n.downSentBase += c.BytesSent()
			n.downRecvBase += c.BytesReceived()
			n.downstream[i] = n.downstream[len(n.downstream)-1]
			n.downstream[len(n.downstream)-1] = nil
			n.downstream = n.downstream[:len(n.downstream)-1]
			break
		}
	}
	n.downstreamMu.Unlock()
	dead.Close()
}

func (n *Node) forwardDone() {
	n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "done"})
	n.broadcastDownstream(&cosmicnet.Frame{Type: cosmicnet.MsgDone, From: n.cfg.ID})
}

// Close releases the node's resources, severing the upstream connection if
// the node is mid-run (so a Close mid-training looks like a node crash to
// its Sigma, which the round timeout then surfaces).
func (n *Node) Close() {
	n.closing.Store(true)
	n.closeOnce.Do(func() { close(n.closeCh) })
	n.upMu.Lock()
	if n.upstream != nil {
		n.upstream.Close()
	}
	n.upMu.Unlock()
	if n.ln != nil {
		n.ln.Close()
	}
	if n.ring != nil {
		n.ring.Close()
	}
	n.downstreamMu.Lock()
	for _, c := range n.downstream {
		c.Close()
	}
	n.downstreamMu.Unlock()
	n.wg.Wait()
}
