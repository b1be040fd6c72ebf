package runtime

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vec"
)

// sameFloat reports whether a and b have the same bits, counting any two
// NaNs as equal: the fold may commute an add, which can pick the other
// operand's NaN payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// edgeFloats are the edges of the format: signed zeros, the smallest
// denormals, the largest finite values, infinities and NaN.
var edgeFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// fuzzFloat draws a value from raw random bits, with edgeFloats and small
// integers (whose sums cancel to signed zeros) mixed in.
func fuzzFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return float64(rng.Intn(5) - 2)
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// FuzzAggregationFold checks the fold against its specification: clear the
// span, then add each folded member's chunk in rank order. Each of two
// rounds on one buffer shuffles every member's chunks (so in-order and
// parked folds both run) and may exclude a random set of members at a
// random point. A member excluded there has folded chunk idx exactly when
// every lower rank's chunk idx had arrived before the exclusion; its other
// chunks, delivered or not, never fold. The second round shows any span
// data the first one left behind. Each input runs on the vec kernels in use
// and, where those are the AVX ones, again on their Go loops.
func FuzzAggregationFold(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint16(10))
	f.Add(int64(2), uint8(1), uint8(0), uint16(0))   // empty vector
	f.Add(int64(3), uint8(5), uint8(3), uint16(37))  // short last chunk
	f.Add(int64(4), uint8(0), uint8(5), uint16(100)) // one member
	f.Add(int64(5), uint8(2), uint8(1), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, nMembers, shift uint8, length uint16) {
		checkFold(t, seed, nMembers, shift, length)
		if vec.Accelerated() {
			defer vec.SetAccelerated(false)()
			checkFold(t, seed, nMembers, shift, length)
		}
	})
}

func checkFold(t *testing.T, seed int64, nMembers, shift uint8, length uint16) {
	members := 1 + int(nMembers%5)
	words := 1 << (shift % 6)
	n := int(length % 160)
	ids := make([]uint32, members)
	for r := range ids {
		ids[r] = uint32(10 + 3*r) // sorted, so rank r is ids[r]
	}
	rng := rand.New(rand.NewSource(seed))
	ab := newTestBuffer(t, n, words, ids)
	chunks := ab.ChunkCount()
	for round := uint32(1); round <= 2; round++ {
		vecs := make([][]float64, members)
		for r := range vecs {
			vecs[r] = make([]float64, n)
			for i := range vecs[r] {
				vecs[r][i] = fuzzFloat(rng)
			}
		}
		excluded := make([]bool, members)
		var excludeIDs []uint32
		if rng.Intn(3) > 0 {
			for r := range excluded {
				if rng.Intn(2) == 0 {
					excluded[r] = true
					excludeIDs = append(excludeIDs, ids[r])
				}
			}
		}
		var arrivals []Chunk
		for r := range vecs {
			for _, c := range splitIntoChunks(round, ids[r], vecs[r], float64(1+r), words) {
				// An excluded member may deliver any part of its vector.
				if !excluded[r] || rng.Intn(2) == 0 {
					arrivals = append(arrivals, c)
				}
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		excludeAt := rng.Intn(len(arrivals) + 1)

		ab.Reset(round)
		spans := make([][]float64, chunks)
		weights := make([]float64, chunks)
		ab.SetOnComplete(func(idx int, _ uint32, span []float64, weight float64) {
			spans[idx] = append([]float64(nil), span...)
			weights[idx] = weight
		})
		arrived := make([][]bool, chunks) // before the exclusion
		for i := range arrived {
			arrived[i] = make([]bool, members)
		}
		for i, c := range arrivals {
			if i == excludeAt && excludeIDs != nil {
				ab.Exclude(excludeIDs)
			}
			if i < excludeAt || excludeIDs == nil {
				arrived[c.Offset/words][(c.From-10)/3] = true
			}
			if err := ab.Add(c); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if excludeAt == len(arrivals) && excludeIDs != nil {
			ab.Exclude(excludeIDs)
		}
		if ok, err := ab.WaitComplete(time.Second, nil); !ok || err != nil {
			t.Fatalf("round %d did not complete: ok=%v err=%v", round, ok, err)
		}
		sum := ab.Sum()
		for idx := 0; idx < chunks; idx++ {
			first := true // ranks below the first gap folded before any exclusion
			want := make([]float64, ab.spanLen(idx))
			wantWeight := 0.0
			for r := 0; r < members; r++ {
				first = first && arrived[idx][r]
				if excluded[r] && !first {
					continue
				}
				for i := range want {
					want[i] += vecs[r][idx*words+i]
				}
				wantWeight += float64(1 + r)
			}
			if weights[idx] != wantWeight {
				t.Fatalf("round %d chunk %d: weight %g, want %g", round, idx, weights[idx], wantWeight)
			}
			for i, w := range want {
				if got := spans[idx][i]; !sameFloat(got, w) {
					t.Fatalf("round %d chunk %d word %d: completed span holds %v (%#x), want %v (%#x)",
						round, idx, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
				if got := sum[idx*words+i]; !sameFloat(got, w) {
					t.Fatalf("round %d chunk %d word %d: sum holds %v (%#x), want %v (%#x)",
						round, idx, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestStaleChunkCannotCrossReset races member 2's chunk for round k, a
// round it is late for, against Reset(k+1), then folds round k+1's three
// genuine contributions. Whichever side wins the race, the stale chunk must
// not fold (or park) into round k+1 and must not move its census: the
// genuine chunks fold with no error to their exact sum, and every member is
// present.
func TestStaleChunkCannotCrossReset(t *testing.T) {
	const n, rounds = 8, 100_000
	members := []uint32{1, 2, 3}
	vecs := make([][]float64, len(members))
	want := make([]float64, n)
	for m := range vecs {
		vecs[m] = make([]float64, n)
		for i := range vecs[m] {
			vecs[m][i] = float64(1 + m + 10*i)
			want[i] += vecs[m][i]
		}
	}
	stale := make([]float64, n)
	for i := range stale {
		stale[i] = 1e6
	}
	ab := newTestBuffer(t, n, n, members)
	weights := recordWeights(ab)

	// The racer spins until round k is posted, then adds the stale chunk
	// while the test goroutine runs Reset(k+1).
	var posted, taken atomic.Int64
	var stop atomic.Bool
	defer stop.Store(true)
	posted.Store(-1)
	taken.Store(-1)
	errs := make(chan error, 1)
	go func() {
		for k := int64(0); k < 2*rounds; k += 2 {
			for posted.Load() != k {
				if stop.Load() {
					return
				}
				goruntime.Gosched()
			}
			err := ab.Add(Chunk{Seq: uint32(k), From: 2, Data: stale, Weight: 1, Last: true})
			if err != nil {
				errs <- err
				return
			}
			taken.Store(k)
		}
	}()
	for k := int64(0); k < 2*rounds; k += 2 {
		ab.Reset(uint32(k))
		posted.Store(k)
		ab.Reset(uint32(k + 1))
		for taken.Load() != k {
			select {
			case err := <-errs:
				t.Fatalf("round %d: stale chunk: %v", k, err)
			default:
			}
			goruntime.Gosched()
		}
		for m, id := range members {
			c := Chunk{Seq: uint32(k + 1), From: id, Data: vecs[m], Weight: 1, Last: true}
			if err := ab.Add(c); err != nil {
				t.Fatalf("round %d: member %d: %v", k+1, id, err)
			}
		}
		if ok, err := ab.WaitComplete(time.Second, nil); !ok || err != nil {
			t.Fatalf("round %d did not complete: ok=%v err=%v", k+1, ok, err)
		}
		sum := ab.Sum()
		for i := range want {
			if sum[i] != want[i] {
				t.Fatalf("round %d: sum[%d] = %g, want %g (the stale chunk folded in)", k+1, i, sum[i], want[i])
			}
		}
		checkWeights(t, weights, 3)
		if present, excluded, missing := ab.QuorumStatus(); len(present) != 3 || excluded != nil || missing != nil {
			t.Fatalf("round %d: census present=%v excluded=%v missing=%v", k+1, present, excluded, missing)
		}
	}
}

// TestCompletionCallbackMayReset: the completion callback runs with no lock
// held, so it may arm round k+1 itself. Round k's completion must then not
// count toward round k+1: that round starts with a clean census and a wait
// that is not yet satisfied, and completes once its own members fold.
func TestCompletionCallbackMayReset(t *testing.T) {
	const n, k = 8, 5
	members := []uint32{1, 2}
	ab := newTestBuffer(t, n, n, members)
	ab.SetOnComplete(func(_ int, seq uint32, _ []float64, _ float64) {
		if seq == k {
			ab.Reset(k + 1)
		}
	})
	add := func(seq uint32) {
		t.Helper()
		for _, id := range members {
			if err := ab.Add(Chunk{Seq: seq, From: id, Data: make([]float64, n), Weight: 1, Last: true}); err != nil {
				t.Fatalf("round %d, member %d: %v", seq, id, err)
			}
		}
	}
	ab.Reset(k)
	add(k)
	if present, excluded, missing := ab.QuorumStatus(); present != nil || excluded != nil || !equalIDs(missing, members) {
		t.Fatalf("round %d census present=%v excluded=%v missing=%v; want every member missing", k+1, present, excluded, missing)
	}
	if ok, err := ab.WaitComplete(time.Millisecond, nil); ok || err != nil {
		t.Fatalf("round %d: WaitComplete = %v, %v before any member folded; want a timeout", k+1, ok, err)
	}
	add(k + 1)
	if ok, err := ab.WaitComplete(time.Second, nil); !ok || err != nil {
		t.Fatalf("round %d did not complete: ok=%v err=%v", k+1, ok, err)
	}
}
