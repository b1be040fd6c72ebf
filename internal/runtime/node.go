package runtime

import (
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/ml"
	"repro/internal/obs"
)

// RoundPolicy is the round contract every Sigma of a cluster must share:
// how long a round may wait for its members, whether a timed-out round folds
// on a quorum, and the chunk boundary partials stream and fold at. It is
// declared once, here, and embedded in every cluster config (NodeConfig,
// ClusterOptions, deploy.Spec, cosmic.ClusterConfig). The JSON tags are the
// Director's wire names, so a deploy.Spec carries it in MsgConfig as is.
type RoundPolicy struct {
	// RoundTimeout bounds how long a Sigma waits for its members'
	// contributions each round (0 = forever; nanoseconds on the wire). With
	// a timeout, a dead member fails the round instead of wedging the
	// cluster.
	RoundTimeout time.Duration `json:"round_timeout,omitempty"`
	// MinQuorum, when > 0, turns a round timeout into exclude-and-continue:
	// instead of failing, the Sigma folds the round with the contributions
	// that arrived — as long as at least MinQuorum members (its own
	// contribution included) are present — and marks the absentees suspect.
	// Suspects are pre-excluded from later rounds until they speak again
	// (a fresh hello or data from a newer round), so one dead member costs
	// one RoundTimeout, not one per round. 0 keeps fail-fast behavior.
	MinQuorum int `json:"min_quorum,omitempty"`
	// ChunkWords is the fixed chunk boundary in vector elements — the unit
	// partials stream, fold, and forward at. 0 selects the default
	// (ChunkSize); other values must be powers of two. Fixed boundaries are
	// what keep the ordered fold deterministic, so every node must agree.
	ChunkWords int `json:"chunk_words,omitempty"`
}

// quorumRoundTimeout bounds a quorum-mode round that names no timeout:
// without a bound a dead member never times out, so the quorum fold never
// runs and the round waits forever.
const quorumRoundTimeout = 2 * time.Second

// Resolve validates the policy and fills its defaults in place: ChunkWords
// 0 becomes ChunkSize, and a quorum with no RoundTimeout gets
// quorumRoundTimeout. StartNode, Launch and deploy.Spec.Validate all call
// it, so every entry point applies the same rules.
func (p *RoundPolicy) Resolve() error {
	if p.ChunkWords < 0 || bits.OnesCount(uint(p.ChunkWords)) > 1 {
		return fmt.Errorf("runtime: ChunkWords %d is not a power of two", p.ChunkWords)
	}
	if p.ChunkWords == 0 {
		p.ChunkWords = ChunkSize
	}
	if p.MinQuorum < 0 {
		return fmt.Errorf("runtime: MinQuorum %d is negative", p.MinQuorum)
	}
	if p.MinQuorum > 0 && p.RoundTimeout <= 0 {
		p.RoundTimeout = quorumRoundTimeout
	}
	return nil
}

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
	// RoundPolicy is the cluster-wide round contract; StartNode resolves
	// it.
	RoundPolicy
	// Engine computes partial updates.
	Engine Engine
	// ModelSize is the flat parameter-vector length.
	ModelSize int
	// ShardBatch is how many local samples the node consumes per
	// mini-batch round.
	ShardBatch int
	// Reconnect makes a non-master node redial its upstream with bounded
	// exponential backoff when the connection drops mid-run, re-announcing
	// itself with a hello, instead of failing. ReconnectWait bounds the
	// total redial budget (0 = 30s).
	Reconnect     bool
	ReconnectWait time.Duration
	// Transport opens this node's listener and upstream connection. nil
	// selects cosmicnet.TCP; the chaos fabric substitutes its own.
	Transport cosmicnet.Transport
	// Logger, when set, receives structured diagnostics (failures,
	// timeouts, straggler warnings) with node/role/group attributes
	// attached; nil discards them.
	Logger *slog.Logger
	// Obs, when non-nil, records per-frame counters, aggregation fan-in,
	// ring depth, and per-round spans for this node. nil disables all of it.
	Obs *obs.Observer
}

// ringCapacity bounds the channel feeding a Sigma's fold goroutine;
// flightSize bounds each node's flight recorder (the last-N wire events kept
// for post-mortem dumps).
const (
	ringCapacity = 64
	flightSize   = 256
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
	// flight is the node's bounded forensic ring of wire events; always on
	// (it is alloc-free), dumped when a round fails.
	flight *obs.FlightRecorder
	// spanCtr mints this node's wire span IDs; lastSeq and lastRoundNanos
	// feed /healthz and the director's straggler detector. roundTrace is a
	// Sigma's current round trace ID, which its forwarded chunks carry.
	spanCtr        atomic.Uint64
	lastSeq        atomic.Uint32
	lastRoundNanos atomic.Int64
	roundTrace     atomic.Uint64
	// data is the node's own packed copy of its shard (packShard), valid
	// once packed is closed. cursor is the node's position in it; batch is
	// the reused slice the round's samples are gathered into.
	data   []ml.Sample
	packed chan struct{}
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
	// sendMu serializes upstream frame writes.
	sendMu sync.Mutex

	// Sigma machinery: ring is the paper's Circular Buffer from the readers
	// to the fold goroutine, and ringDepth mirrors its occupancy.
	ring      chan Chunk
	ringDepth *obs.Gauge
	agg       *AggregationBuffer
	// downstream are the member connections a Sigma forwards models to.
	// The slice is copy-on-write: acceptLoop and pruneDownstream publish a
	// new one, so a reader may keep the one it read under the lock. Dead
	// ones are pruned on send failure; downSentBase/downRecvBase carry the
	// pruned connections' byte counters.
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
	h.RingDepth = len(n.ring)
	return h
}

// noteRound records a completed round for health and straggler reporting.
func (n *Node) noteRound(seq uint32, d time.Duration) {
	n.lastSeq.Store(seq)
	n.lastRoundNanos.Store(int64(d))
	n.obs.roundDone(d)
}

// Flight returns the node's flight recorder, so deployment-level machinery
// (the telemetry plane's alert evaluator) can mark alert transitions
// alongside the node's own wire events.
func (n *Node) Flight() *obs.FlightRecorder { return n.flight }

// dumpDiagnostics is the round-failure bundle: it marks reason in each
// node's flight recorder and dumps them all into one fresh directory under
// the OS temp directory ($TMPDIR), one node-<id>.flight file per node,
// returning its path. Best-effort: nodes whose dump fails are skipped so a
// sick node cannot block the bundle, and a directory that cannot be made
// yields a placeholder path so the caller's error message stays useful.
func dumpDiagnostics(reason string, nodes ...*Node) string {
	dir, err := os.MkdirTemp("", "cosmic-diag-*")
	if err != nil {
		return "(diagnostics unavailable: " + err.Error() + ")"
	}
	for _, n := range nodes {
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: reason, Seq: n.lastSeq.Load()})
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("node-%d.flight", n.cfg.ID)))
		if err != nil {
			continue
		}
		_, _ = n.flight.Dump(f)
		f.Close()
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
// start the fold goroutine; Delta roles only dial upstream (from Run).
//
// The node trains from its own packed copy of the shard, which a goroutine
// started here builds, so nodes started one after another pack at the same
// time. The caller must leave the samples unchanged until the copy is done:
// the node's first partial waits for it, and so does Launch before it
// returns. After that the node holds no reference to them.
func StartNode(cfg NodeConfig, shard []ml.Sample) (*Node, error) {
	if err := cfg.RoundPolicy.Resolve(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, packed: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		n.data = packShard(shard)
		close(n.packed)
	}()
	n.transport = cfg.Transport
	if n.transport == nil {
		n.transport = cosmicnet.TCP
	}
	n.closeCh = make(chan struct{})
	n.suspects = make(map[uint32]uint32)
	n.obs = newNodeObs(cfg.Obs, cfg.ID, cfg.Role)
	n.flight = obs.NewFlightRecorder(flightSize)
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
		n.ring = make(chan Chunk, ringCapacity)
		if cfg.Role == RoleGroupSigma {
			n.agg.SetOnComplete(n.forwardChunk)
		}
		if cfg.Obs != nil {
			n.ringDepth = cfg.Obs.Registry().Gauge(
				obs.Labeled("cosmic_node_ring_depth", "node", strconv.Itoa(int(cfg.ID))))
			n.agg.SetPipelineGauge(cfg.Obs.Registry().Gauge(
				obs.Labeled("cosmic_sigma_pipeline_depth", "node", strconv.Itoa(int(cfg.ID)))))
		}
		n.wg.Add(2)
		go n.aggWorker()
		go n.acceptLoop()
	}
	return n, nil
}

// push hands a chunk to the fold goroutine, blocking while the ring is
// full. It reports false if the node closed first.
func (n *Node) push(c Chunk) bool {
	select {
	case n.ring <- c:
		n.ringDepth.Set(float64(len(n.ring)))
		return true
	case <-n.closeCh:
		return false
	}
}

// aggWorker is the Sigma's fold goroutine: it drains the ring into the
// aggregation buffer until the node closes, leaving any chunks still queued
// to the garbage collector. Pooled wire payloads are recycled once folded —
// the Add path never retains the chunk's slice.
func (n *Node) aggWorker() {
	defer n.wg.Done()
	for {
		var c Chunk
		select {
		case c = <-n.ring:
		case <-n.closeCh:
			return
		}
		n.ringDepth.Set(float64(len(n.ring)))
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
		n.downstream = append(slices.Clip(n.downstream), conn)
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
			if n.obs != nil {
				n.obs.recvFrame(n.obs.framesHello)
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
				n.obs.recvFrame(ctr)
				n.obs.endSpan(n.obs.tracer().Begin("runtime", name, n.obs.threadID()), f, obs.ArgFlowIn)
			}
			if !f.Chunked() {
				// Every sender streams chunk frames; a whole-vector frame is
				// outside input. f keeps its payload for the next decode.
				n.fail(fmt.Errorf("node %d: un-chunked %v frame from %d", n.cfg.ID, f.Type, f.From))
				continue
			}
			// Fold on arrival: the frame already is one ring chunk, so it
			// goes straight to the fold goroutine. The payload's ownership
			// moves to the chunk (Recycle: true makes aggWorker Put it after
			// folding).
			//cosmic:transfers f.Payload moves into the ring chunk
			c := Chunk{
				Seq: f.Seq, From: f.From, Offset: int(f.ChunkOffset),
				Data: f.Payload, Weight: f.Weight,
				Last: f.ChunkIndex == f.ChunkCount-1, Recycle: true,
			}
			f.Payload = nil // the next decode draws a recycled buffer of its size
			if !n.push(c) {
				return
			}
		default:
			n.fail(fmt.Errorf("node %d: unexpected %v frame from %d", n.cfg.ID, f.Type, f.From))
		}
	}
}

// packShard copies shard into one backing array, each sample's X then Y in
// shard order, and returns sample views over it. A node's batches are then
// consecutive rows of one allocation, streamed in order, instead of vectors
// scattered over the heap. Each view is capped at its own row.
func packShard(shard []ml.Sample) []ml.Sample {
	words := 0
	for _, s := range shard {
		words += len(s.X) + len(s.Y)
	}
	store := make([]float64, words)
	out := make([]ml.Sample, len(shard))
	off := 0
	for i, s := range shard {
		x := off + copy(store[off:], s.X)
		y := x + copy(store[x:], s.Y)
		out[i] = ml.Sample{X: store[off:x:x], Y: store[x:y:y]}
		off = y
	}
	return out
}

// nextShardBatch returns the node's next ShardBatch samples, cycling
// through its packed shard. The slice is reused by the next call.
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
	<-n.packed
	batch := n.nextShardBatch()
	if batch == nil {
		if n.zero == nil {
			n.zero = make([]float64, n.cfg.ModelSize)
		}
		return n.zero, nil
	}
	return n.cfg.Engine.PartialUpdate(model, batch)
}

// eachChunk cuts vec at the node's fixed chunk boundary and calls emit on
// every chunk in order, stopping at its first error. The chunks alias vec;
// an empty vector is one empty chunk.
func (n *Node) eachChunk(vec []float64, emit func(idx, off int, chunk []float64) error) error {
	if len(vec) == 0 {
		return emit(0, 0, nil)
	}
	for idx, off := 0, 0; off < len(vec); idx, off = idx+1, off+n.cfg.ChunkWords {
		if err := emit(idx, off, vec[off:min(off+n.cfg.ChunkWords, len(vec))]); err != nil {
			return err
		}
	}
	return nil
}

// pushLocalChunks feeds the node's own partial into its aggregation
// pipeline: fixed-boundary subslices of the vector go straight onto the
// ring, no copy and no chunk-slice allocation (the local-contribution
// fast path).
func (n *Node) pushLocalChunks(seq uint32, vec []float64) error {
	return n.eachChunk(vec, func(_, off int, chunk []float64) error {
		if !n.push(Chunk{
			Seq: seq, From: n.cfg.ID, Offset: off,
			Data: chunk, Weight: 1, Last: off+len(chunk) == len(vec),
		}) {
			return fmt.Errorf("node %d: ring closed mid-batch", n.cfg.ID)
		}
		return nil
	})
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
func (n *Node) preExcludeSuspects(seq uint32) bool {
	if n.cfg.MinQuorum <= 0 {
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
	if len(n.cfg.MemberIDs)-len(ids) < n.cfg.MinQuorum {
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
// what arrived) and marked suspect. It reports whether the round is whole
// afterwards and whether it excluded anyone to get there: when the last
// members land between the timeout and the census, nobody is missing and
// the round completes as it is.
func (n *Node) quorumFold(seq uint32) (whole, excluded bool) {
	if n.cfg.MinQuorum <= 0 {
		return false, false
	}
	present, _, missing := n.agg.QuorumStatus()
	if len(missing) > 0 {
		if len(present) < n.cfg.MinQuorum {
			return false, false
		}
		for _, id := range missing {
			n.markSuspect(id, seq)
		}
		if n.agg.Exclude(missing) == 0 {
			return false, false
		}
		n.flight.Record(obs.FlightEvent{Dir: obs.FlightMark, Type: "member-excluded", Seq: seq})
		n.logger.Warn("round folded on quorum", "round", seq,
			"present", len(present), "excluded", missing)
	}
	// Exclusion completes every chunk that was only waiting on the missing
	// members; the short re-wait covers completion callbacks in flight.
	ok, err := n.agg.WaitComplete(n.cfg.RoundTimeout, nil)
	return err == nil && ok, len(missing) > 0
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
			n.SendDone()
			return nil
		default:
			n.logger.Warn("ignoring unexpected frame", "type", f.Type.String(), "from", f.From, "seq", f.Seq)
		}
	}
}

// handleModel processes one mini-batch round for a Delta or group Sigma.
func (n *Node) handleModel(f *cosmicnet.Frame) error {
	switch n.cfg.Role {
	case RoleDelta:
		roundStart := time.Now()
		sp := n.obs.tracer().Begin("runtime", "delta-compute", n.obs.threadID())
		partial, err := n.computePartial(f.Payload)
		n.obs.endSpan(sp, f, obs.ArgFlowIn)
		if err != nil {
			return err
		}
		n.obs.sent(len(partial))
		n.noteRound(f.Seq, time.Since(roundStart))
		return n.streamUpstream(f.Seq, partial, f.TraceID)
	case RoleGroupSigma:
		_, _, err := n.sigmaRound(f, nil, nil)
		return err // every chunk already forwarded on completion
	}
	return fmt.Errorf("node %d: role %v cannot handle model frames via Run", n.cfg.ID, n.cfg.Role)
}

// sigmaSpans names one Sigma role's round spans and what its timeout
// message says the round waited for.
type sigmaSpans struct{ round, compute, wait, awaited string }

var (
	masterSpans = sigmaSpans{"round", "master-compute", "aggregate-wait", "contributions"}
	groupSpans  = sigmaSpans{"sigma-round", "sigma-compute", "sigma-aggregate-wait", "group members"}
)

// sigmaRound runs one round at a Sigma, the master or a group Sigma, for
// the model frame f: arm the aggregation buffer, forward the model to every
// member, compute the Sigma's own partial and push it down the same chunked
// path as remote ones, and wait until every chunk has every member. What a
// completed chunk does is the role's completion callback, installed once
// (by StartNode for a group Sigma, by DriveTraining for the master). A
// timed-out round folds on a quorum when it can. Otherwise a group Sigma
// under MinQuorum sits the round out (0 duration, no error), and any other
// failure returns an error naming diag's bundle (nil diag dumps this
// node's own flight recorder). It returns the round's wall time and
// whether members were excluded from its fold.
func (n *Node) sigmaRound(f *cosmicnet.Frame, fail <-chan error, diag func(reason string) string) (time.Duration, bool, error) {
	start := time.Now()
	names := groupSpans
	if n.cfg.Role == RoleMasterSigma {
		names = masterSpans
	}
	diagnose := func(reason string) string {
		if diag != nil {
			return diag(reason)
		}
		return dumpDiagnostics(reason, n)
	}
	tr, tid := n.obs.tracer(), n.obs.threadID()
	round := tr.Begin("runtime", names.round, tid)
	// New round: clear the aggregation state before any member can respond
	// to the forwarded model. Reset arms the stale-round filter on f.Seq, so
	// an excluded member's late chunks fold into nothing.
	n.agg.Reset(f.Seq)
	n.roundTrace.Store(f.TraceID)
	excluded := n.preExcludeSuspects(f.Seq)
	// Hierarchical model broadcast: one frame to each direct child (group
	// Sigmas forward to their Deltas).
	sp := tr.Begin("runtime", "broadcast", tid)
	n.broadcastDownstream(f)
	n.obs.endSpan(sp, f, "")
	sp = tr.Begin("runtime", names.compute, tid)
	partial, err := n.computePartial(f.Payload)
	sp.End()
	if err != nil {
		return 0, false, err
	}
	if err := n.pushLocalChunks(f.Seq, partial); err != nil {
		return 0, false, err
	}
	// Wait until every chunk has every member; each one has then already
	// been applied or forwarded by the completion callback.
	sp = tr.Begin("runtime", names.wait, tid)
	ok, err := n.agg.WaitComplete(n.cfg.RoundTimeout, fail)
	sp.End()
	if err != nil {
		dump := diagnose("node-failed")
		return 0, false, fmt.Errorf("runtime: node failed mid-round: %w (last seen: %s; flight dump: %s)",
			err, n.lastSeenSummary(), dump)
	}
	if !ok {
		whole, dropped := n.quorumFold(f.Seq)
		switch {
		case whole:
			excluded = excluded || dropped
		case n.cfg.Role == RoleGroupSigma && n.cfg.MinQuorum > 0:
			// Below quorum the group sits the round out: the master folds
			// without this Sigma, which lives to serve the next round.
			// Dying here would strand the group's Deltas for good.
			n.logger.Warn("round below quorum; group sits it out", "round", f.Seq)
			return 0, false, nil
		default:
			lastSeen := n.lastSeenSummary()
			dump := diagnose("round-timeout")
			n.logger.Error("round timed out waiting for "+names.awaited,
				"round", f.Seq, "last_seen", lastSeen, "diagnostics", dump)
			who := "runtime"
			if n.cfg.Role == RoleGroupSigma {
				who = fmt.Sprintf("node %d", n.cfg.ID)
			}
			return 0, false, fmt.Errorf("%s: round %d timed out waiting for %s (last seen: %s; flight dump: %s)",
				who, f.Seq, names.awaited, lastSeen, dump)
		}
	}
	if excluded {
		n.obs.roundExcluded()
	}
	d := time.Since(start)
	n.noteRound(f.Seq, d)
	n.obs.endSpan(round, f, obs.ArgFlowIn)
	return d, excluded, nil
}

// forwardChunk is a group Sigma's completion callback (fold-on-arrival
// forwarding): the moment chunk idx has every member's contribution, it
// ships upstream, so the master starts folding this group's early chunks
// while later ones are still crossing the group's own links. It runs on
// the fold goroutine.
func (n *Node) forwardChunk(idx int, seq uint32, span []float64, weight float64) {
	// Reset(seq+1) can land between a late member completing a chunk of a
	// round the group sat out and this callback: the master has moved on, so
	// drop it. Load the trace ID first, as sigmaRound stores it after Reset.
	traceID := n.roundTrace.Load()
	if n.agg.stale(seq) {
		return
	}
	n.obs.sent(len(span))
	if err := n.sendUpstream(&cosmicnet.Frame{
		Type: cosmicnet.MsgGroupAggregate, Seq: seq, From: n.cfg.ID,
		Weight: weight, Payload: span, TraceID: traceID,
		ChunkIndex: uint32(idx), ChunkCount: uint32(n.agg.ChunkCount()),
		ChunkOffset: uint32(idx * n.cfg.ChunkWords),
	}); err != nil {
		n.fail(err)
	}
}

// streamUpstream sends a Delta's partial as a stream of fixed-boundary
// chunk frames. The payloads alias vec — nothing is copied.
func (n *Node) streamUpstream(seq uint32, vec []float64, traceID uint64) error {
	count := uint32(ChunksFor(len(vec), n.cfg.ChunkWords))
	return n.eachChunk(vec, func(idx, off int, chunk []float64) error {
		return n.sendUpstream(&cosmicnet.Frame{
			Type: cosmicnet.MsgPartial, Seq: seq, From: n.cfg.ID, Weight: 1,
			Payload: chunk, TraceID: traceID,
			ChunkIndex: uint32(idx), ChunkCount: count, ChunkOffset: uint32(off),
		})
	})
}

// traceSend stamps an outbound frame with a fresh wire span ID when it
// belongs to a trace, emits the matching send span (its ArgFlowOut is what
// the trace merger joins to the receiver's ArgFlowIn), and records the
// flight event.
func (n *Node) traceSend(f *cosmicnet.Frame) {
	if f.TraceID != 0 {
		f.SpanID = n.nextSpanID()
	}
	if tr := n.obs.tracer(); tr != nil {
		tr.Begin("runtime", "send-"+f.Type.String(), n.obs.threadID()).EndArgs(traceArgs(f, obs.ArgFlowOut))
	}
	n.flight.Record(obs.FlightEvent{
		Dir: obs.FlightSend, Type: f.Type.String(), Seq: f.Seq, Bytes: len(f.Payload) * 8,
	})
}

// sendUpstream traces the frame and writes it upstream. Concurrent senders
// are serialized.
func (n *Node) sendUpstream(f *cosmicnet.Frame) error {
	n.traceSend(f)
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
	conns := n.downstream
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
		n.traceSend(&out)
		if sendBudget > 0 {
			c.SetWriteDeadline(time.Now().Add(sendBudget))
		}
		err := c.Send(&out)
		if sendBudget > 0 {
			c.SetWriteDeadline(time.Time{})
		}
		if err != nil {
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
	if i := slices.Index(n.downstream, dead); i >= 0 {
		n.downSentBase += dead.BytesSent()
		n.downRecvBase += dead.BytesReceived()
		n.downstream = slices.Delete(slices.Clone(n.downstream), i, i+1)
	}
	n.downstreamMu.Unlock()
	dead.Close()
}

// SendDone broadcasts the shutdown message down the hierarchy.
func (n *Node) SendDone() {
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
	n.downstreamMu.Lock()
	for _, c := range n.downstream {
		c.Close()
	}
	n.downstreamMu.Unlock()
	n.wg.Wait()
}
