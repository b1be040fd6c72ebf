// Package runtime is CoSMIC's system layer: the lean, specialized system
// software that orchestrates accelerator-augmented nodes for distributed
// training (Section 3 of the paper).
//
// The System Director assigns Sigma (aggregator) and Delta (worker) roles
// and configures the cluster. Within a Sigma node, the incoming-network
// handler's per-connection readers send each received chunk frame on the
// paper's Circular Buffer, here a buffered Go channel; one fold goroutine,
// the paper's Aggregation Pool cut to a single thread, receives chunks and
// folds them into the Aggregation Buffer under its one lock. Readers and
// folder form a producer-consumer pair, so communication and aggregation
// overlap. One folder suffices: the buffer folds each chunk index in
// member-rank order whatever the arrival order, and one core folds at well
// over ten times a 10 GbE link's rate. (Goroutines are the user-level
// threads here — the Go runtime multiplexes them over a fixed set of OS
// threads, which is precisely the "internally managed thread pool avoiding
// OS-level context switches" the paper builds by hand in C++.)
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Chunk is one unit of work flowing from the network readers to the fold
// goroutine: a contiguous span of a partial-update vector.
type Chunk struct {
	// Seq is the mini-batch sequence number the chunk belongs to.
	Seq uint32
	// From identifies the contributing node.
	From uint32
	// Offset is the span's start index within the full vector.
	Offset int
	// Data is the span's values. The chunk owns this slice.
	Data []float64
	// Weight is the credit the contribution carries toward the weighted
	// average: 1 for a single node's partial, the member count for a
	// group Sigma's pre-summed aggregate.
	Weight float64
	// Last marks the final chunk of one contribution.
	Last bool
	// Recycle marks Data as a pooled wire payload: the fold goroutine
	// returns it to cosmicnet's payload pool once folded.
	Recycle bool
}

// AggregationBuffer accumulates partial updates. Add is safe for
// concurrent use: one mutex guards the round's state, and the fold runs
// under it.
//
// Each fixed-boundary chunk index folds in member-rank order: an in-order
// arrival folds immediately, an out-of-order one is parked (as a pooled
// copy) until its rank comes up. Per-element fold order is then a pure
// function of the member set — independent of chunk size, arrival order,
// and how many goroutines call Add — which is what keeps training
// bit-identical across those knobs. The buffer also knows when chunk index i has every
// member's contribution and fires the OnComplete callback right then, which
// is what lets a Sigma forward chunk i upstream with no whole-vector
// barrier.
//
// The sum is never cleared as a whole: a chunk's first fold of a round
// writes its span, later folds add to it, and a chunk that completes with
// nothing folded (every member excluded) is cleared at completion. A span
// is therefore defined only once its chunk has completed.
type AggregationBuffer struct {
	sum []float64
	// chunkWords is the fixed chunk boundary.
	chunkWords int
	// rank maps a member's node ID to its fold position. members =
	// len(rank); ids is the sorted member list (ids[rank[id]] == id).
	rank    map[uint32]int
	members int
	ids     []uint32
	// onComplete, when set, runs when a chunk index has every member's
	// contribution folded, before WaitComplete can observe the completion.
	// seq is the round the chunk completed in; span aliases the buffer's
	// accumulated sum for that chunk.
	onComplete func(idx int, seq uint32, span []float64, weight float64)
	// pipeline, when set, tracks chunk indexes started but not complete.
	pipeline *obs.Gauge
	// allDone holds a token from the moment complete reaches every chunk
	// index until WaitComplete takes it or Reset drains it; timer bounds a
	// timed wait. Both live as long as the buffer, so a wait allocates
	// nothing and starts no goroutine.
	allDone chan struct{}
	timer   *time.Timer

	// mu guards the round's state: everything below, and the sum.
	mu sync.Mutex
	// states has one entry per chunk index.
	states []chunkAgg
	// seq is the round Reset armed; once armed, a chunk whose Seq differs
	// is stale traffic from an earlier round (an excluded member catching
	// up late) and is dropped silently.
	seq   uint32
	armed bool
	// excluded flags member ranks dropped from the current round's fold
	// (quorum mode). An excluded rank's chunks are discarded, so the folded
	// vector is a pure function of the included member set.
	excluded []bool
	// got counts accepted chunks per member rank this round; a member is
	// present once it has contributed every chunk index. complete counts
	// finished chunk indexes; inflight the started-but-incomplete ones.
	got      []int
	complete int
	inflight int
}

// chunkAgg is the per-chunk-index fold state.
type chunkAgg struct {
	// next is the member rank whose contribution folds next.
	next    int
	weight  float64
	started bool
	// written records that this round has folded into the chunk's span:
	// the first fold writes the span, every later one adds.
	written bool
	// completed records that this index fired its completion, so an
	// exclusion sweep cannot complete an already-complete chunk twice.
	completed bool
	// pending parks out-of-order arrivals (pooled copies) until their rank
	// comes up.
	pending []parkedChunk
}

type parkedChunk struct {
	rank   int
	weight float64
	data   []float64
}

// NewAggregationBuffer creates a buffer for vectors of length n cut at fixed
// boundaries of chunkWords elements, folding the given member node IDs in
// rank order: member rank is the ID's position in the sorted ID list.
func NewAggregationBuffer(n, chunkWords int, members []uint32) (*AggregationBuffer, error) {
	if chunkWords <= 0 {
		return nil, fmt.Errorf("runtime: chunk boundary of %d words", chunkWords)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("runtime: aggregation buffer with no members")
	}
	rank := make(map[uint32]int, len(members))
	sorted := append([]uint32(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, id := range sorted {
		if _, dup := rank[id]; dup {
			return nil, fmt.Errorf("runtime: duplicate member %d", id)
		}
		rank[id] = i
	}
	ab := &AggregationBuffer{
		sum:        make([]float64, n),
		chunkWords: chunkWords,
		states:     make([]chunkAgg, ChunksFor(n, chunkWords)),
		rank:       rank,
		members:    len(rank),
		ids:        sorted,
		excluded:   make([]bool, len(sorted)),
		got:        make([]int, len(sorted)),
		allDone:    make(chan struct{}, 1),
		timer:      time.NewTimer(time.Hour),
	}
	stopTimer(ab.timer)
	return ab, nil
}

// SetOnComplete installs the per-chunk completion callback. It runs on the
// goroutine whose Add (or Exclude) completed the chunk, with no lock held,
// so it may call the buffer, and Reset may already have armed the next
// round when it runs: seq is the round the chunk completed in, not
// necessarily the one armed now. span aliases the buffer's sum and must not
// be retained past the round. Call before the round's first Add.
func (ab *AggregationBuffer) SetOnComplete(fn func(idx int, seq uint32, span []float64, weight float64)) {
	ab.onComplete = fn
}

// SetPipelineGauge publishes the number of in-flight (started, incomplete)
// chunk indexes — the streaming pipeline's depth. A nil gauge is a no-op.
func (ab *AggregationBuffer) SetPipelineGauge(g *obs.Gauge) { ab.pipeline = g }

// ChunkCount returns the number of fixed-boundary chunk indexes.
func (ab *AggregationBuffer) ChunkCount() int { return len(ab.states) }

// spanLen is chunk idx's element count (the last chunk may run short).
func (ab *AggregationBuffer) spanLen(idx int) int {
	if len(ab.sum) == 0 {
		return 0
	}
	if idx == len(ab.states)-1 {
		return len(ab.sum) - idx*ab.chunkWords
	}
	return ab.chunkWords
}

// span is chunk idx's slice of the sum.
func (ab *AggregationBuffer) span(idx int) []float64 {
	off := idx * ab.chunkWords
	return ab.sum[off : off+ab.spanLen(idx)]
}

// Add folds a chunk of one index in member-rank order, parking early
// arrivals, and fires onComplete when the index has every included member.
// The chunk must sit exactly on a fixed boundary and come from a known
// member. Stale-round chunks and chunks from excluded members are dropped
// silently: after a quorum fold moves on, a late member's traffic must not
// corrupt the next round.
func (ab *AggregationBuffer) Add(c Chunk) error {
	if c.Offset < 0 || c.Offset+len(c.Data) > len(ab.sum) {
		return fmt.Errorf("runtime: chunk [%d,%d) outside buffer of %d", c.Offset, c.Offset+len(c.Data), len(ab.sum))
	}
	idx := 0
	if len(ab.sum) > 0 {
		idx = c.Offset / ab.chunkWords
	}
	if idx >= len(ab.states) || c.Offset != idx*ab.chunkWords {
		return fmt.Errorf("runtime: chunk offset %d off the %d-word boundary", c.Offset, ab.chunkWords)
	}
	if want := ab.spanLen(idx); len(c.Data) != want {
		return fmt.Errorf("runtime: chunk %d spans %d words, want %d (fixed boundaries)", idx, len(c.Data), want)
	}
	r, ok := ab.rank[c.From]
	if !ok {
		return fmt.Errorf("runtime: chunk from unknown member %d", c.From)
	}
	st := &ab.states[idx]
	span := ab.span(idx)

	ab.mu.Lock()
	defer ab.mu.Unlock()
	if ab.excluded[r] || ab.staleLocked(c.Seq) {
		return nil
	}
	inOrder := r == st.next
	switch {
	case r < st.next:
		return fmt.Errorf("runtime: duplicate chunk %d from member %d", idx, c.From)
	case !inOrder:
		// Early arrival: park a pooled copy until its rank comes up. The
		// buffer never retains the caller's slice, so pooled wire payloads
		// can be recycled unconditionally after Add. Ownership of the copy
		// moves into st.pending; the drain paths Put it after folding
		// (advanceLocked, or Reset on teardown).
		data := cosmicnet.GetPayload(len(c.Data))
		copy(data, c.Data)
		//cosmic:transfers parked copy owned by st.pending until drained
		st.pending = append(st.pending, parkedChunk{rank: r, weight: c.Weight, data: data})
	default: // in order: fold, then advance past parked and excluded ranks
		st.fold(span, c.Data)
		st.next++
		st.weight += c.Weight
	}
	ab.got[r]++
	if !st.started {
		st.started = true
		ab.inflight++
	}
	if inOrder && ab.advanceLocked(st, span) {
		ab.finishLocked(idx, c.Seq, span, st.weight)
	}
	ab.pipeline.Set(float64(ab.inflight))
	return nil
}

// staleLocked reports whether Reset has armed a round other than seq. The
// caller holds mu.
func (ab *AggregationBuffer) staleLocked(seq uint32) bool {
	return ab.armed && ab.seq != seq
}

// stale reports whether Reset has armed a round other than seq.
func (ab *AggregationBuffer) stale(seq uint32) bool {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.staleLocked(seq)
}

// fold folds one contribution into span, which is data's length: the
// chunk's first fold of the round writes 0 + v (so −0 lands as +0, as if
// added to a cleared span), every later fold adds. Call with ab.mu held.
func (st *chunkAgg) fold(span, data []float64) {
	into := vec.Acc
	if !st.written {
		st.written, into = true, vec.Init
	}
	vec.ScaleRow(span, data, 1, into)
}

// advanceLocked advances st.next past excluded ranks (discarding any parked
// chunks they delivered) and folds parked chunks as their ranks come up,
// reporting whether the chunk index just completed. A chunk that completes
// with nothing folded has its span cleared. Call with ab.mu held.
func (ab *AggregationBuffer) advanceLocked(st *chunkAgg, span []float64) bool {
	for st.next < ab.members {
		// Rank st.next's parked chunk, if it sent one, folds unless the
		// rank is excluded; an excluded rank is passed either way.
		excluded := ab.excluded[st.next]
		i := 0
		for i < len(st.pending) && st.pending[i].rank != st.next {
			i++
		}
		if i < len(st.pending) {
			p := st.pending[i]
			if !excluded {
				st.fold(span, p.data)
				st.weight += p.weight
			}
			cosmicnet.PutPayload(p.data)
			st.pending[i] = st.pending[len(st.pending)-1]
			st.pending = st.pending[:len(st.pending)-1]
		} else if !excluded {
			break
		}
		st.next++
	}
	if st.next < ab.members || st.completed {
		return false
	}
	if !st.written {
		clear(span)
	}
	st.completed = true
	return true
}

// finishLocked fires chunk idx's completion callback with mu released,
// then counts the completion unless Reset armed another round meanwhile.
// The callback returns before the count moves, so a WaitComplete return
// implies every per-chunk callback has finished. The caller holds mu; it
// is held again on return.
func (ab *AggregationBuffer) finishLocked(idx int, seq uint32, span []float64, weight float64) {
	if ab.onComplete != nil {
		ab.callUnlocked(idx, seq, span, weight)
		if ab.staleLocked(seq) {
			return
		}
	}
	ab.complete++
	ab.inflight--
	if ab.complete == len(ab.states) {
		select {
		case ab.allDone <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// callUnlocked runs the completion callback with mu released, taking it
// back even if the callback panics.
func (ab *AggregationBuffer) callUnlocked(idx int, seq uint32, span []float64, weight float64) {
	ab.mu.Unlock()
	defer ab.mu.Lock()
	ab.onComplete(idx, seq, span, weight)
}

// Exclude drops members from the current round's fold: their chunks stop
// being waited for, anything they parked is discarded, and chunk indexes
// that were only waiting on them complete immediately (firing OnComplete in
// index order). It returns how many of the IDs were newly excluded; unknown
// IDs and repeats are ignored. Exclusions last until the next Reset. This
// is the exclude-and-continue primitive: a Sigma that times out a round
// folds with the quorum that arrived instead of wedging on the absent.
func (ab *AggregationBuffer) Exclude(ids []uint32) int {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	newly := 0
	for _, id := range ids {
		if r, ok := ab.rank[id]; ok && !ab.excluded[r] {
			ab.excluded[r] = true
			newly++
		}
	}
	if newly == 0 {
		return 0
	}
	seq := ab.seq // Exclude runs inside the armed round
	for idx := range ab.states {
		st, span := &ab.states[idx], ab.span(idx)
		if !ab.advanceLocked(st, span) {
			continue
		}
		if !st.started {
			st.started = true
			ab.inflight++
		}
		ab.finishLocked(idx, seq, span, st.weight)
		if ab.staleLocked(seq) {
			return newly // a callback armed the next round
		}
	}
	ab.pipeline.Set(float64(ab.inflight))
	return newly
}

// QuorumStatus reports the round's member census: present members (every
// chunk index accepted), excluded members, and missing members (absent or
// partial). Each list is sorted by node ID.
func (ab *AggregationBuffer) QuorumStatus() (present, excluded, missing []uint32) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	for r, id := range ab.ids {
		switch {
		case ab.excluded[r]:
			excluded = append(excluded, id)
		case ab.got[r] >= len(ab.states):
			present = append(present, id)
		default:
			missing = append(missing, id)
		}
	}
	return present, excluded, missing
}

// WaitComplete blocks until every chunk index has all members folded (and
// every OnComplete callback has returned), the timeout elapses, or fail
// delivers. It reports (true, nil) on completion, (false, nil) on timeout,
// and (false, err) on node failure; a round that completes wins over a
// timeout or failure that fires with it. A zero timeout waits forever. One
// goroutine waits at a time; the wait allocates nothing.
func (ab *AggregationBuffer) WaitComplete(timeout time.Duration, fail <-chan error) (bool, error) {
	if ab.completed() {
		return true, nil
	}
	var timeC <-chan time.Time
	if timeout > 0 {
		ab.timer.Reset(timeout)
		defer stopTimer(ab.timer)
		timeC = ab.timer.C
	}
	select {
	case <-ab.allDone:
		return true, nil
	case <-timeC:
		return ab.completed(), nil
	case err := <-fail:
		switch {
		case ab.completed():
			return true, nil
		case err != nil:
			return false, err
		}
		return false, fmt.Errorf("runtime: node exited mid-round")
	}
}

// completed reports whether every chunk index has completed this round.
func (ab *AggregationBuffer) completed() bool {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.complete >= len(ab.states)
}

// stopTimer stops t and drains a fire it has not delivered, so the next
// Reset starts it clean under either timer-channel semantics.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// ChunksFor returns how many chunks a vector of length n splits into at a
// words-element boundary (an empty vector still travels as one chunk).
func ChunksFor(n, words int) int {
	if n == 0 {
		return 1
	}
	return (n + words - 1) / words
}

// Reset readies the buffer for mini-batch seq, recycling any parked chunks
// and lifting exclusions. The sum itself is left as it is: each chunk's
// first fold of the new round overwrites its span. It also arms the
// stale-round filter: from here on chunks carrying a different sequence
// number — a timed-out member's late traffic — are dropped instead of
// folded.
func (ab *AggregationBuffer) Reset(seq uint32) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	ab.seq, ab.armed = seq, true
	ab.complete, ab.inflight = 0, 0
	clear(ab.got)
	clear(ab.excluded)
	select {
	case <-ab.allDone: // the last round's token, if its wait never took it
	default:
	}
	for i := range ab.states {
		st := &ab.states[i]
		for _, p := range st.pending {
			cosmicnet.PutPayload(p.data)
		}
		*st = chunkAgg{pending: st.pending[:0]}
	}
	ab.pipeline.Set(0)
}

// ChunkSize is the default span length vectors are cut into: small enough
// that aggregation starts while later chunks are still in flight, large
// enough to amortize ring and frame overhead.
const ChunkSize = 4096
