package runtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitCompleteGuarded runs WaitComplete under a generous real-time
// watchdog: the historical missed-wakeup race left the waiter parked on the
// condition variable forever, which a plain call would turn into a hung test
// run instead of a failure.
func waitCompleteGuarded(t *testing.T, ab *AggregationBuffer, timeout time.Duration) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		ok, err := ab.WaitComplete(timeout, nil)
		if err != nil {
			t.Errorf("WaitComplete: %v", err)
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		return ok
	case <-time.After(timeout + 10*time.Second):
		t.Fatal("WaitComplete never returned: the deadline wakeup was missed")
		return false
	}
}

// TestWaitCompleteTimeoutExpiresQuiet: no chunks ever arrive, so the only
// wakeup the waiter can get is the watchdog's. Regression for the missed
// wakeup: a flagless timer broadcast could land while the waiter was between
// its deadline check and cond.Wait, after which nothing would ever wake it.
func TestWaitCompleteTimeoutExpiresQuiet(t *testing.T) {
	ab := newTestBuffer(t, 64, 64, []uint32{0})
	start := time.Now()
	if waitCompleteGuarded(t, ab, 50*time.Millisecond) {
		t.Fatal("reported an empty buffer complete")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("returned after %v, before the %v deadline", elapsed, 50*time.Millisecond)
	}
}

// TestWaitCompleteTimeoutExpiresUnderBroadcastStorm: concurrent adds
// broadcast the condition variable continuously while completion stays
// unreachable (member 4 never contributes; the other four fold round after
// round). Every spurious wakeup re-parks the waiter, so the test churns
// through exactly the window the missed-wakeup race needed: the deadline
// broadcast must still get through.
func TestWaitCompleteTimeoutExpiresUnderBroadcastStorm(t *testing.T) {
	const n, words = 64, 16
	ab := newTestBuffer(t, n, words, []uint32{0, 1, 2, 3, 4})
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	vec := make([]float64, n)
	go func() {
		defer close(stormDone)
		for seq := uint32(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			// Reset is the round driver's call: the round's adders are
			// joined before the next one.
			ab.Reset(seq)
			var wg sync.WaitGroup
			for id := uint32(0); id < 4; id++ {
				wg.Add(1)
				go func(seq, id uint32) {
					defer wg.Done()
					for _, c := range splitIntoChunks(seq, id, vec, 1, words) {
						if err := ab.Add(c); err != nil {
							t.Error(err)
							return
						}
					}
				}(seq, id)
			}
			wg.Wait()
		}
	}()
	if waitCompleteGuarded(t, ab, 100*time.Millisecond) {
		t.Error("reported a round missing a member as complete")
	}
	close(stop)
	<-stormDone
}

// TestWaitCompleteTimeoutSatisfied: chunks that do arrive before the
// deadline report success, with every chunk index folded.
func TestWaitCompleteTimeoutSatisfied(t *testing.T) {
	const n, words = 128, 32
	ab := newTestBuffer(t, n, words, []uint32{1})
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = 1
	}
	go func() {
		for _, c := range splitIntoChunks(0, 1, vec, 1, words) {
			ab.Add(c)
		}
	}()
	if !waitCompleteGuarded(t, ab, 10*time.Second) {
		t.Fatal("timed out waiting for chunks that were delivered")
	}
	sum, w := ab.Sum()
	if w != 1 || sum[0] != 1 {
		t.Fatalf("folded state: weight %g sum[0] %g", w, sum[0])
	}
}

// quorumMemberVec is member id's deterministic contribution: values whose
// floating-point sums are order-sensitive, so any fold-order drift shows up
// as a bitwise difference.
func quorumMemberVec(id uint32, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(id)*13.7 + float64(i)*0.31)
	}
	return v
}

// foldQuorum runs one quorum fold: five members, contributions from
// {1, 3, 5} only, arrival order shuffled by seed, members {2, 4} excluded —
// before the adds when excludeFirst, after them otherwise. Returns the
// folded sum and weight.
func foldQuorum(t *testing.T, n, words int, seed int64, excludeFirst bool) ([]float64, float64) {
	t.Helper()
	ab := newTestBuffer(t, n, words, []uint32{1, 2, 3, 4, 5})
	ab.Reset(7)
	if excludeFirst {
		ab.Exclude([]uint32{2, 4})
	}
	var chunks []Chunk
	for _, id := range []uint32{1, 3, 5} {
		chunks = append(chunks, splitIntoChunks(7, id, quorumMemberVec(id, n), 1, words)...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	for _, c := range chunks {
		if err := ab.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if !excludeFirst {
		ab.Exclude([]uint32{2, 4})
	}
	ok, err := ab.WaitComplete(5*time.Second, nil)
	if err != nil || !ok {
		t.Fatalf("quorum fold did not complete: ok=%v err=%v", ok, err)
	}
	sum, w := ab.Sum()
	return sum, w
}

// TestQuorumFoldDeterministic: the folded vector of a quorum round is a pure
// function of the included member set — bitwise identical across arrival
// orders, across excluding before or after the contributions land, and equal
// to the sequential rank-order fold.
func TestQuorumFoldDeterministic(t *testing.T) {
	const n, words = 300, 64
	ref, refW := foldQuorum(t, n, words, 1, false)
	if refW != 3 {
		t.Fatalf("weight %g, want 3", refW)
	}
	for seed := int64(2); seed <= 9; seed++ {
		sum, w := foldQuorum(t, n, words, seed, seed%2 == 0)
		if w != refW {
			t.Fatalf("seed %d: weight %g, want %g", seed, w, refW)
		}
		for i := range sum {
			if sum[i] != ref[i] {
				t.Fatalf("seed %d: sum[%d] = %b, want %b (fold order leaked into the result)", seed, i, sum[i], ref[i])
			}
		}
	}
	// The rank-order fold is the spec: members fold in sorted-ID order, so
	// summing the vectors sequentially 1, 3, 5 per element must match bitwise.
	want := make([]float64, n)
	for _, id := range []uint32{1, 3, 5} {
		v := quorumMemberVec(id, n)
		for i := range want {
			want[i] += v[i]
		}
	}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("sum[%d] = %b, want the rank-order fold %b", i, ref[i], want[i])
		}
	}
}

// TestQuorumFoldDeterministicConcurrent: concurrent contributors with the
// members {2, 4} excluded up front still produce the bitwise rank-order fold.
func TestQuorumFoldDeterministicConcurrent(t *testing.T) {
	const n, words = 300, 64
	ref, _ := foldQuorum(t, n, words, 1, false)
	for run := 0; run < 4; run++ {
		ab := newTestBuffer(t, n, words, []uint32{1, 2, 3, 4, 5})
		ab.Reset(7)
		ab.Exclude([]uint32{2, 4})
		var wg sync.WaitGroup
		for _, id := range []uint32{1, 3, 5} {
			wg.Add(1)
			go func(id uint32) {
				defer wg.Done()
				for _, c := range splitIntoChunks(7, id, quorumMemberVec(id, n), 1, words) {
					if err := ab.Add(c); err != nil {
						t.Error(err)
					}
				}
			}(id)
		}
		wg.Wait()
		ok, err := ab.WaitComplete(5*time.Second, nil)
		if err != nil || !ok {
			t.Fatalf("run %d: fold did not complete: ok=%v err=%v", run, ok, err)
		}
		sum, _ := ab.Sum()
		for i := range sum {
			if sum[i] != ref[i] {
				t.Fatalf("run %d: sum[%d] = %b, want %b", run, i, sum[i], ref[i])
			}
		}
	}
}

// TestQuorumStatusCensus tracks the member census through a partial round:
// full contributors are present, excluded members move to the excluded list,
// and a member with only part of its chunks stays missing.
func TestQuorumStatusCensus(t *testing.T) {
	const n, words = 300, 64
	ab := newTestBuffer(t, n, words, []uint32{1, 2, 3, 4, 5})
	ab.Reset(3)
	for _, id := range []uint32{1, 5} {
		for _, c := range splitIntoChunks(3, id, quorumMemberVec(id, n), 1, words) {
			if err := ab.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Member 3 delivers only its first chunk: started, not present.
	partial := splitIntoChunks(3, 3, quorumMemberVec(3, n), 1, words)
	if err := ab.Add(partial[0]); err != nil {
		t.Fatal(err)
	}
	present, excluded, missing := ab.QuorumStatus()
	if !equalIDs(present, []uint32{1, 5}) || excluded != nil || !equalIDs(missing, []uint32{2, 3, 4}) {
		t.Fatalf("census before exclusion: present=%v excluded=%v missing=%v", present, excluded, missing)
	}
	if newly := ab.Exclude([]uint32{2, 4, 99}); newly != 2 {
		t.Fatalf("Exclude reported %d newly excluded, want 2 (unknown IDs ignored)", newly)
	}
	if again := ab.Exclude([]uint32{2}); again != 0 {
		t.Fatalf("re-excluding reported %d, want 0", again)
	}
	present, excluded, missing = ab.QuorumStatus()
	if !equalIDs(present, []uint32{1, 5}) || !equalIDs(excluded, []uint32{2, 4}) || !equalIDs(missing, []uint32{3}) {
		t.Fatalf("census after exclusion: present=%v excluded=%v missing=%v", present, excluded, missing)
	}
}

// TestExcludedMemberTrafficDiscarded: chunks from an excluded member —
// whether parked before the exclusion or arriving after it — never reach the
// folded vector, and stale-round chunks are dropped silently once Reset arms
// the sequence filter.
func TestExcludedMemberTrafficDiscarded(t *testing.T) {
	const n, words = 300, 64
	ab := newTestBuffer(t, n, words, []uint32{1, 2, 3})
	ab.Reset(9)
	// Member 2's chunks park (rank 1 waits on rank 0), then the exclusion
	// sweep must discard them.
	for _, c := range splitIntoChunks(9, 2, quorumMemberVec(2, n), 1, words) {
		if err := ab.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	ab.Exclude([]uint32{2})
	for _, id := range []uint32{1, 3} {
		for _, c := range splitIntoChunks(9, id, quorumMemberVec(id, n), 1, words) {
			if err := ab.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Late traffic from the excluded member, and a stale round's chunk, both
	// vanish without error.
	for _, c := range splitIntoChunks(9, 2, quorumMemberVec(2, n), 1, words) {
		if err := ab.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	stale := splitIntoChunks(8, 1, quorumMemberVec(1, n), 1, words)
	if err := ab.Add(stale[0]); err != nil {
		t.Fatal(err)
	}
	ok, err := ab.WaitComplete(5*time.Second, nil)
	if err != nil || !ok {
		t.Fatalf("fold did not complete: ok=%v err=%v", ok, err)
	}
	sum, w := ab.Sum()
	if w != 2 {
		t.Fatalf("weight %g, want 2 (excluded member credited)", w)
	}
	want := make([]float64, n)
	for _, id := range []uint32{1, 3} {
		v := quorumMemberVec(id, n)
		for i := range want {
			want[i] += v[i]
		}
	}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("sum[%d] = %b, want %b (excluded traffic leaked into the fold)", i, sum[i], want[i])
		}
	}
}

func equalIDs(got, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
