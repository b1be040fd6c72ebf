// Package runtime is CoSMIC's system layer: the lean, specialized system
// software that orchestrates accelerator-augmented nodes for distributed
// training (Section 3 of the paper).
//
// The System Director assigns Sigma (aggregator) and Delta (worker) roles
// and configures the cluster. Within a Sigma node, the incoming-network
// handler's per-connection readers push each received chunk frame onto a
// Circular Buffer; a fixed Aggregation Pool consumes chunks and folds them
// into the Aggregation Buffer. Readers and pool form a producer-consumer
// pair, so communication and aggregation overlap. (Goroutines are the
// user-level threads here — the Go runtime multiplexes them over a fixed set
// of OS threads, which is precisely the "internally managed thread pool
// avoiding OS-level context switches" the paper builds by hand in C++.)
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/obs"
)

// Chunk is one unit of work flowing from the network readers to the
// Aggregation Pool: a contiguous span of a partial-update vector.
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
	// Recycle marks Data as a pooled wire payload: the aggregation worker
	// returns it to cosmicnet's payload pool once folded.
	Recycle bool
}

// CircularBuffer is a bounded, blocking MPMC ring of chunks: network
// readers produce, aggregation workers consume. Bounding the ring is what
// "reduces the memory required for aggregating partial results from
// multiple sources while enabling overlap between communication and
// computation".
type CircularBuffer struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []Chunk
	head     int // next pop
	count    int
	closed   bool
	// depth, when set, mirrors count so /metrics shows queue pressure live.
	depth *obs.Gauge
}

// SetDepthGauge publishes the ring's occupancy to the given gauge on every
// push and pop. Call before the ring is shared; a nil gauge is a no-op.
func (cb *CircularBuffer) SetDepthGauge(g *obs.Gauge) {
	cb.mu.Lock()
	cb.depth = g
	cb.mu.Unlock()
}

// NewCircularBuffer creates a ring with the given capacity.
func NewCircularBuffer(capacity int) *CircularBuffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("runtime: ring capacity %d", capacity))
	}
	cb := &CircularBuffer{buf: make([]Chunk, capacity)}
	cb.notEmpty = sync.NewCond(&cb.mu)
	cb.notFull = sync.NewCond(&cb.mu)
	return cb
}

// Push blocks until space is available, then enqueues the chunk. It reports
// false if the ring was closed.
func (cb *CircularBuffer) Push(c Chunk) bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for cb.count == len(cb.buf) && !cb.closed {
		cb.notFull.Wait()
	}
	if cb.closed {
		return false
	}
	cb.buf[(cb.head+cb.count)%len(cb.buf)] = c
	cb.count++
	cb.depth.Set(float64(cb.count))
	cb.notEmpty.Signal()
	return true
}

// Pop blocks until a chunk is available and dequeues it. It reports false
// if the ring is closed and drained.
func (cb *CircularBuffer) Pop() (Chunk, bool) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for cb.count == 0 && !cb.closed {
		cb.notEmpty.Wait()
	}
	if cb.count == 0 {
		return Chunk{}, false
	}
	c := cb.buf[cb.head]
	cb.buf[cb.head] = Chunk{}
	cb.head = (cb.head + 1) % len(cb.buf)
	cb.count--
	cb.depth.Set(float64(cb.count))
	cb.notFull.Signal()
	return c, true
}

// Close wakes all blocked producers and consumers; pending chunks remain
// poppable.
func (cb *CircularBuffer) Close() {
	cb.mu.Lock()
	cb.closed = true
	cb.mu.Unlock()
	cb.notEmpty.Broadcast()
	cb.notFull.Broadcast()
}

// Len returns the number of buffered chunks.
func (cb *CircularBuffer) Len() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.count
}

// AggregationBuffer accumulates partial updates. Aggregation-pool workers
// call Add concurrently; chunks of different regions never serialize
// against each other.
//
// Each fixed-boundary chunk index folds in member-rank order: an in-order
// arrival folds immediately, an out-of-order one is parked (as a pooled
// copy) until its rank comes up. Per-element fold order is then a pure
// function of the member set — independent of chunk size, arrival order,
// and aggregation-worker count — which is what keeps training bit-identical
// across those knobs. The buffer also knows when chunk index i has every
// member's contribution and fires the OnComplete callback right then, which
// is what lets a Sigma forward chunk i upstream with no whole-vector
// barrier.
type AggregationBuffer struct {
	sum []float64
	// chunkWords is the fixed chunk boundary; states has one entry per
	// chunk index.
	chunkWords int
	states     []chunkAgg
	// rank maps a member's node ID to its fold position. members =
	// len(rank); ids is the sorted member list (ids[rank[id]] == id).
	rank    map[uint32]int
	members int
	ids     []uint32
	// seqWord gates adds to the current round: once Reset has armed it, a
	// chunk whose Seq differs is stale traffic from an earlier round (an
	// excluded member catching up late) and is dropped silently.
	seqWord atomic.Uint64
	// excluded flags member ranks dropped from the current round's fold
	// (quorum mode). An excluded rank's chunks are discarded, so the folded
	// vector is a pure function of the included member set.
	excluded []atomic.Bool
	// onComplete, when set, runs when a chunk index has every member's
	// contribution folded, before WaitComplete can observe the completion.
	// span aliases the buffer's accumulated sum for that chunk.
	onComplete func(idx int, span []float64, weight float64)
	// pipeline, when set, tracks chunk indexes started but not complete.
	pipeline *obs.Gauge

	weight float64
	wmu    sync.Mutex
	done   *sync.Cond
	// complete counts finished chunk indexes; inflight the
	// started-but-incomplete ones.
	complete int
	inflight int
	// got counts accepted chunks per member rank this round; a member is
	// present once it has contributed every chunk index.
	got []int
}

// seqArmed marks seqWord as holding a live round sequence.
const seqArmed = 1 << 32

// chunkAgg is the per-chunk-index fold state.
type chunkAgg struct {
	mu sync.Mutex
	// next is the member rank whose contribution folds next.
	next    int
	weight  float64
	started bool
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
	last   bool
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
		excluded:   make([]atomic.Bool, len(sorted)),
		got:        make([]int, len(sorted)),
	}
	ab.done = sync.NewCond(&ab.wmu)
	return ab, nil
}

// SetOnComplete installs the per-chunk completion callback. It runs on an
// aggregation worker with no buffer locks held; span aliases the buffer's
// sum and must not be retained past the round. Call before the round's
// first Add.
func (ab *AggregationBuffer) SetOnComplete(fn func(idx int, span []float64, weight float64)) {
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
	if w := ab.seqWord.Load(); w&seqArmed != 0 && uint32(w) != c.Seq {
		return nil
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
	span := ab.sum[c.Offset : c.Offset+ab.spanLen(idx)]

	lastWeight := 0.0
	startedNow, completeNow := false, false
	chunkWeight := 0.0

	st.mu.Lock()
	if ab.excluded[r].Load() {
		// Checked under the chunk lock: an exclusion sweep that already
		// passed this state must not see this member's data fold afterward.
		st.mu.Unlock()
		return nil
	}
	if !st.started {
		st.started, startedNow = true, true
	}
	switch {
	case r < st.next:
		st.mu.Unlock()
		return fmt.Errorf("runtime: duplicate chunk %d from member %d", idx, c.From)
	case r > st.next:
		// Early arrival: park a pooled copy until its rank comes up. The
		// buffer never retains the caller's slice, so pooled wire payloads
		// can be recycled unconditionally after Add. Ownership of the copy
		// moves into st.pending; the drain paths Put it after folding
		// (advanceLocked, or Reset on teardown).
		data := cosmicnet.GetPayload(len(c.Data))
		copy(data, c.Data)
		//cosmic:transfers parked copy owned by st.pending until drained
		st.pending = append(st.pending, parkedChunk{rank: r, weight: c.Weight, last: c.Last, data: data})
		st.mu.Unlock()
	default: // in order: fold, then advance past parked and excluded ranks
		for i, v := range c.Data {
			span[i] += v
		}
		st.next++
		st.weight += c.Weight
		if c.Last {
			lastWeight += c.Weight
		}
		var lw2 float64
		lw2, completeNow, chunkWeight = ab.advanceLocked(st, span)
		lastWeight += lw2
		st.mu.Unlock()
	}

	// The callback fires before the completion counter moves, so a
	// WaitComplete return implies every per-chunk callback has finished.
	if completeNow && ab.onComplete != nil {
		ab.onComplete(idx, span, chunkWeight)
	}

	ab.wmu.Lock()
	ab.weight += lastWeight
	ab.got[r]++
	if startedNow {
		ab.inflight++
	}
	if completeNow {
		ab.complete++
		ab.inflight--
	}
	depth := ab.inflight
	ab.wmu.Unlock()
	ab.pipeline.Set(float64(depth))
	ab.done.Broadcast()
	return nil
}

// advanceLocked advances st.next past excluded ranks (discarding any parked
// chunks they delivered) and folds parked chunks as their ranks come up,
// reporting the weight of the contributions that finished and whether the
// chunk index just completed. Call with st.mu held.
func (ab *AggregationBuffer) advanceLocked(st *chunkAgg, span []float64) (lastWeight float64, completeNow bool, chunkWeight float64) {
	for st.next < ab.members {
		if ab.excluded[st.next].Load() {
			for i := 0; i < len(st.pending); {
				if st.pending[i].rank == st.next {
					cosmicnet.PutPayload(st.pending[i].data)
					st.pending[i] = st.pending[len(st.pending)-1]
					st.pending = st.pending[:len(st.pending)-1]
					continue
				}
				i++
			}
			st.next++
			continue
		}
		found := false
		for i := range st.pending {
			if st.pending[i].rank != st.next {
				continue
			}
			p := st.pending[i]
			for j, v := range p.data {
				span[j] += v
			}
			cosmicnet.PutPayload(p.data)
			st.next++
			st.weight += p.weight
			if p.last {
				lastWeight += p.weight
			}
			st.pending[i] = st.pending[len(st.pending)-1]
			st.pending = st.pending[:len(st.pending)-1]
			found = true
			break
		}
		if !found {
			break
		}
	}
	if st.next >= ab.members && !st.completed {
		st.completed = true
		completeNow = true
		chunkWeight = st.weight
	}
	return lastWeight, completeNow, chunkWeight
}

// Exclude drops members from the current round's fold: their chunks stop
// being waited for, anything they parked is discarded, and chunk indexes
// that were only waiting on them complete immediately (firing OnComplete in
// index order). It returns how many of the IDs were newly excluded; unknown
// IDs and repeats are ignored. Exclusions last until the next Reset. This
// is the exclude-and-continue primitive: a Sigma that times out a round
// folds with the quorum that arrived instead of wedging on the absent.
func (ab *AggregationBuffer) Exclude(ids []uint32) int {
	newly := 0
	for _, id := range ids {
		r, ok := ab.rank[id]
		if !ok {
			continue
		}
		if !ab.excluded[r].Swap(true) {
			newly++
		}
	}
	if newly == 0 {
		return 0
	}
	lastWeight := 0.0
	startedNow, completed := 0, 0
	for idx := range ab.states {
		st := &ab.states[idx]
		span := ab.sum[idx*ab.chunkWords : idx*ab.chunkWords+ab.spanLen(idx)]
		st.mu.Lock()
		lw2, completeNow, chunkWeight := ab.advanceLocked(st, span)
		if completeNow && !st.started {
			st.started = true
			startedNow++
		}
		st.mu.Unlock()
		lastWeight += lw2
		if completeNow {
			completed++
			if ab.onComplete != nil {
				ab.onComplete(idx, span, chunkWeight)
			}
		}
	}
	ab.wmu.Lock()
	ab.weight += lastWeight
	ab.inflight += startedNow
	ab.complete += completed
	ab.inflight -= completed
	depth := ab.inflight
	ab.wmu.Unlock()
	ab.pipeline.Set(float64(depth))
	ab.done.Broadcast()
	return newly
}

// QuorumStatus reports the round's member census: present members (every
// chunk index accepted), excluded members, and missing members (absent or
// partial). Each list is sorted by node ID.
func (ab *AggregationBuffer) QuorumStatus() (present, excluded, missing []uint32) {
	target := len(ab.states)
	ab.wmu.Lock()
	defer ab.wmu.Unlock()
	for r, id := range ab.ids {
		switch {
		case ab.excluded[r].Load():
			excluded = append(excluded, id)
		case ab.got[r] >= target:
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
// and (false, err) on node failure. A zero timeout waits forever.
func (ab *AggregationBuffer) WaitComplete(timeout time.Duration, fail <-chan error) (bool, error) {
	target := len(ab.states)
	var timedOut, failed bool
	var failErr error
	stop := make(chan struct{})
	defer close(stop)
	if timeout > 0 || fail != nil {
		var timeC <-chan time.Time
		if timeout > 0 {
			timer := time.NewTimer(timeout)
			defer timer.Stop()
			timeC = timer.C
		}
		go func() {
			select {
			case <-timeC:
				ab.wmu.Lock()
				timedOut = true
				ab.wmu.Unlock()
				ab.done.Broadcast()
			case err := <-fail:
				ab.wmu.Lock()
				failed, failErr = true, err
				ab.wmu.Unlock()
				ab.done.Broadcast()
			case <-stop:
			}
		}()
	}
	ab.wmu.Lock()
	defer ab.wmu.Unlock()
	for ab.complete < target {
		if failed {
			if failErr != nil {
				return false, failErr
			}
			return false, fmt.Errorf("runtime: node exited mid-round")
		}
		if timedOut {
			return false, nil
		}
		ab.done.Wait()
	}
	return true, nil
}

// ChunksFor returns how many chunks a vector of length n splits into at a
// words-element boundary (an empty vector still travels as one chunk).
func ChunksFor(n, words int) int {
	if n == 0 {
		return 1
	}
	return (n + words - 1) / words
}

// Sum returns the raw accumulated sum and total weight.
func (ab *AggregationBuffer) Sum() ([]float64, float64) {
	ab.wmu.Lock()
	w := ab.weight
	ab.wmu.Unlock()
	out := make([]float64, len(ab.sum))
	copy(out, ab.sum)
	return out, w
}

// Reset clears the buffer for mini-batch seq, recycling any parked chunks
// and lifting exclusions. It also arms the stale-round filter: from here on
// chunks carrying a different sequence number — a timed-out member's late
// traffic — are dropped instead of folded.
func (ab *AggregationBuffer) Reset(seq uint32) {
	ab.seqWord.Store(seqArmed | uint64(seq))
	ab.wmu.Lock()
	ab.weight = 0
	ab.complete = 0
	ab.inflight = 0
	for r := range ab.got {
		ab.got[r] = 0
	}
	ab.wmu.Unlock()
	for i := range ab.excluded {
		ab.excluded[i].Store(false)
	}
	for i := range ab.states {
		st := &ab.states[i]
		st.mu.Lock()
		st.next, st.weight, st.started, st.completed = 0, 0, false, false
		for _, p := range st.pending {
			cosmicnet.PutPayload(p.data)
		}
		st.pending = st.pending[:0]
		st.mu.Unlock()
	}
	for i := range ab.sum {
		ab.sum[i] = 0
	}
	ab.pipeline.Set(0)
}

// ChunkSize is the default span length vectors are cut into: small enough
// that aggregation starts while later chunks are still in flight, large
// enough to amortize ring and frame overhead.
const ChunkSize = 4096
