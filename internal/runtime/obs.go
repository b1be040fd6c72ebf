package runtime

import (
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/obs"
)

// roundSecondsBuckets spans loopback micro-rounds (tens of microseconds) up
// to multi-second WAN rounds.
var roundSecondsBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5,
}

// nodeObs holds a node's pre-resolved instruments so the frame, chunk, and
// round paths never touch the registry's lock. A nil *nodeObs (no observer
// attached) makes every recording call a no-op via the obs package's
// nil-instrument contract.
type nodeObs struct {
	tr  *obs.Tracer
	tid int

	// framesHello/Partial/GroupAgg count inbound frames on member
	// connections by type; txWords counts payload float64s sent.
	framesHello, framesPartial, framesGroupAgg *obs.Counter
	txWords                                    *obs.Counter

	// chunks and contributions measure the Sigma aggregation fan-in: ring
	// chunks folded into the aggregation buffer, and completed partials.
	chunks, contributions *obs.Counter

	rounds *obs.Counter
	// lastRoundSeconds is the node's most recent round wall time — the
	// series the director's straggler detector keys on.
	lastRoundSeconds *obs.Gauge
	// roundSeconds is the master's per-round wall-time distribution.
	roundSeconds *obs.Histogram

	// excludedRounds counts rounds this Sigma folded without a full member
	// set (quorum mode). reg and node back the per-peer suspect gauges,
	// which are resolved lazily — the peer set only matters under faults.
	excludedRounds *obs.Counter
	reg            *obs.Registry
	node           string
}

// newNodeObs resolves one node's instruments; nil observer → nil (disabled).
func newNodeObs(o *obs.Observer, id uint32, role Role) *nodeObs {
	if o == nil {
		return nil
	}
	reg := o.Registry()
	node := strconv.Itoa(int(id))
	frames := func(typ string) *obs.Counter {
		return reg.Counter(obs.Labeled("cosmic_node_frames_received_total", "node", node, "type", typ))
	}
	no := &nodeObs{
		tr:             o.Tracer(),
		tid:            int(id),
		framesHello:    frames("hello"),
		framesPartial:  frames("partial"),
		framesGroupAgg: frames("group_aggregate"),
		txWords:        reg.Counter(obs.Labeled("cosmic_node_tx_payload_words_total", "node", node)),
		chunks:         reg.Counter(obs.Labeled("cosmic_sigma_chunks_total", "node", node)),
		contributions:  reg.Counter(obs.Labeled("cosmic_sigma_contributions_total", "node", node)),
		rounds:         reg.Counter(obs.Labeled("cosmic_node_rounds_total", "node", node)),
		lastRoundSeconds: reg.Gauge(
			obs.Labeled("cosmic_node_last_round_seconds", "node", node)),
		excludedRounds: reg.Counter(obs.Labeled("cosmic_round_excluded_total", "node", node)),
		reg:            reg,
		node:           node,
	}
	if role == RoleMasterSigma {
		no.roundSeconds = reg.Histogram(obs.Labeled("cosmic_round_seconds", "node", node), roundSecondsBuckets)
	}
	no.tr.NameThread(obs.PIDHost, int(id), "node "+node+" ("+role.String()+")")
	return no
}

// tracer returns the node's tracer (nil when disabled — nil-safe to use).
func (no *nodeObs) tracer() *obs.Tracer {
	if no == nil {
		return nil
	}
	return no.tr
}

// threadID returns the node's trace thread ID (0 when disabled).
func (no *nodeObs) threadID() int {
	if no == nil {
		return 0
	}
	return no.tid
}

// recvFrame records one inbound member frame.
func (no *nodeObs) recvFrame(typ *obs.Counter) {
	if no == nil {
		return
	}
	typ.Inc()
}

// sent records one outbound frame's payload.
func (no *nodeObs) sent(payloadLen int) {
	if no == nil {
		return
	}
	no.txWords.Add(int64(payloadLen))
}

// chunkFolded records one ring chunk reaching the aggregation buffer.
func (no *nodeObs) chunkFolded(last bool) {
	if no == nil {
		return
	}
	no.chunks.Inc()
	if last {
		no.contributions.Inc()
	}
}

// roundDone records one completed round at this node: the cumulative round
// counter and latency.
func (no *nodeObs) roundDone(d time.Duration) {
	if no == nil {
		return
	}
	no.rounds.Inc()
	no.lastRoundSeconds.Set(d.Seconds())
	no.roundSeconds.Observe(d.Seconds())
}

// roundExcluded counts one round folded on a quorum instead of the full
// member set.
func (no *nodeObs) roundExcluded() {
	if no == nil {
		return
	}
	no.excludedRounds.Inc()
}

// suspect publishes this Sigma's view of one member: 1 while the peer is
// suspect (missing from a fold), 0 once it contributes again.
func (no *nodeObs) suspect(peer uint32, v float64) {
	if no == nil {
		return
	}
	no.reg.Gauge(obs.Labeled("cosmic_node_suspect",
		"node", no.node, "peer", strconv.Itoa(int(peer)))).Set(v)
}

// endSpan closes sp with f's trace arguments, built only when the node
// traces.
func (no *nodeObs) endSpan(sp obs.Span, f *cosmicnet.Frame, flowKey string) {
	if no.tracer() != nil {
		sp.EndArgs(traceArgs(f, flowKey))
	}
}

// traceArgs builds the span arguments that let the merger draw flow arrows:
// the frame's trace ID plus its span ID under flowKey (obs.ArgFlowOut on
// send spans, obs.ArgFlowIn on receive spans, "" for no arrow).
func traceArgs(f *cosmicnet.Frame, flowKey string) map[string]any {
	args := map[string]any{"seq": f.Seq}
	if f.TraceID != 0 {
		args[obs.ArgTraceID] = obs.IDString(f.TraceID)
	}
	if f.SpanID != 0 && flowKey != "" {
		args[flowKey] = obs.IDString(f.SpanID)
	}
	if f.Chunked() {
		// One flow arrow per streamed chunk; label which slice of the
		// vector this arrow carried.
		args["chunk"] = int64(f.ChunkIndex)
		args["chunks"] = int64(f.ChunkCount)
	}
	return args
}

// summarizeRounds computes nearest-rank p50/p95 and the max over the round
// durations; zeros for an empty run.
func summarizeRounds(durs []time.Duration) (p50, p95, max time.Duration) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		return s[idx]
	}
	return rank(0.50), rank(0.95), s[len(s)-1]
}
