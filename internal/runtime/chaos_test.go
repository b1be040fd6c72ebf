package runtime

import (
	"log/slog"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosmicnet"
	"repro/internal/cosmicnet/chaos"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// chaosWorkload builds the deterministic linear-regression workload shared
// by every scenario: same seed, same shards, so two cluster runs differ only
// in their transport.
func chaosWorkload(nodes int) (*ml.LinearRegression, [][]ml.Sample) {
	alg := &ml.LinearRegression{M: 24}
	rng := rand.New(rand.NewSource(31))
	truth := alg.InitModel(rng)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	shards := make([][]ml.Sample, nodes)
	for n := range shards {
		shards[n] = make([]ml.Sample, 40)
		for i := range shards[n] {
			x := make([]float64, alg.M)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			shards[n][i] = ml.Sample{X: x, Y: []float64{ml.Dot(truth, x)}}
		}
	}
	return alg, shards
}

// chaosOptions assembles ClusterOptions over the given fabric (nil = real
// TCP) for the shared workload.
func chaosOptions(nodes, groups int, alg *ml.LinearRegression, shards [][]ml.Sample, nw *chaos.Network) ClusterOptions {
	const lr = 0.01
	opts := ClusterOptions{
		Nodes: nodes, Groups: groups,
		Engines: func(int) Engine {
			return &RefEngine{Alg: alg, Threads: 2, LR: lr, Agg: dsl.AggAverage}
		},
		Shards:    func(id int) []ml.Sample { return shards[id] },
		ModelSize: alg.ModelSize(),
		Agg:       dsl.AggAverage,
		LR:        lr,
		MiniBatch: nodes * 8,
	}
	if nw != nil {
		opts.Transports = func(id int) cosmicnet.Transport {
			return nw.Endpoint(strconv.Itoa(id))
		}
	}
	return opts
}

// chaosFabric parses the schedule and builds a real-clock fabric whose
// endpoint names are the cluster's node IDs.
func chaosFabric(t *testing.T, schedule string) *chaos.Network {
	t.Helper()
	sched, err := chaos.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.NewNetwork(sched, nil)
}

// trainUnderChaos launches, trains the zero-initialized model for rounds,
// and shuts down, failing the test on any error.
func trainUnderChaos(t *testing.T, opts ClusterOptions, rounds int) ([]float64, TrainStats) {
	t.Helper()
	cl, err := Launch(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	model := make([]float64, opts.ModelSize)
	got, stats, err := cl.Train(model, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != rounds {
		t.Fatalf("trained %d rounds, want %d", stats.Rounds, rounds)
	}
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("model[%d] = %v", i, v)
		}
	}
	return got, stats
}

// meanLoss evaluates the model over every shard.
func meanLoss(alg ml.Algorithm, model []float64, shards [][]ml.Sample) float64 {
	var all []ml.Sample
	for _, s := range shards {
		all = append(all, s...)
	}
	return ml.MeanLoss(alg, model, all)
}

// metricSum sums every registry sample whose series name starts with prefix.
func metricSum(reg *obs.Registry, prefix string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.Value
		}
	}
	return total
}

// TestChaosNoFaultMatchesTCPBitwise: the fault fabric with an empty schedule
// is a transparent transport — training over it produces the bitwise-
// identical model to training over real TCP sockets.
func TestChaosNoFaultMatchesTCPBitwise(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 5
	alg, shards := chaosWorkload(nodes)
	want, _ := trainUnderChaos(t, chaosOptions(nodes, groups, alg, shards, nil), rounds)
	nw := chaosFabric(t, "seed 1\n")
	got, _ := trainUnderChaos(t, chaosOptions(nodes, groups, alg, shards, nw), rounds)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("model[%d] = %b over chaos, %b over TCP", i, got[i], want[i])
		}
	}
}

// TestChaosStragglerBitwiseIdentical: latency and jitter on two member links
// slow rounds down but lose nothing, and ordered folding makes arrival time
// irrelevant — the trained model stays bitwise identical to the clean run.
func TestChaosStragglerBitwiseIdentical(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 5
	alg, shards := chaosWorkload(nodes)
	want, _ := trainUnderChaos(t, chaosOptions(nodes, groups, alg, shards, nil), rounds)
	nw := chaosFabric(t, `seed 23
link 4->0 latency 8ms jitter 4ms data-only
link 5->1 latency 6ms jitter 2ms data-only
`)
	got, stats := trainUnderChaos(t, chaosOptions(nodes, groups, alg, shards, nw), rounds)
	if stats.ExcludedRounds != 0 {
		t.Fatalf("straggler run excluded %d rounds; delays must not cost members", stats.ExcludedRounds)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("model[%d] = %b with stragglers, %b clean", i, got[i], want[i])
		}
	}
}

// TestChaosDropRecoversWithQuorum: random data-frame loss on every link
// makes members miss rounds; exclude-and-continue folds each timed-out round
// on the members that arrived, and training still completes and converges.
func TestChaosDropRecoversWithQuorum(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 10
	alg, shards := chaosWorkload(nodes)
	nw := chaosFabric(t, "seed 5\nlink *->* drop 0.04 data-only\n")
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 250 * time.Millisecond
	opts.MinQuorum = 2
	got, _ := trainUnderChaos(t, opts, rounds)
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before: lossy run did not converge", final, initial)
	}
}

// TestChaosReorderRecoversWithQuorum: aggressive reordering on two member
// links can hold a round's final frame hostage until the next one flushes
// it; the quorum machinery turns each such stall into an excluded round and
// training completes anyway.
func TestChaosReorderRecoversWithQuorum(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 8
	alg, shards := chaosWorkload(nodes)
	nw := chaosFabric(t, `seed 11
link 3->1 reorder 0.5 data-only
link 4->0 reorder 0.5 data-only
`)
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 250 * time.Millisecond
	opts.MinQuorum = 2
	got, _ := trainUnderChaos(t, opts, rounds)
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before", final, initial)
	}
}

// TestChaosPartitionHealsAndRejoins: a one-way partition blackholes Delta
// 5's contributions mid-run. Its Sigma times the rounds out, folds on the
// quorum, and marks 5 suspect; when the partition heals, 5's next
// contribution clears the mark and the cluster finishes with a full member
// set. The broadcast latency paces rounds so the partition window overlaps
// live training on any machine.
func TestChaosPartitionHealsAndRejoins(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 20
	alg, shards := chaosWorkload(nodes)
	o := obs.New()
	nw := chaosFabric(t, `seed 17
link 0->* latency 10ms data-only
partition 5->1 at 100ms heal 500ms
`)
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 250 * time.Millisecond
	opts.MinQuorum = 2
	opts.Obs = o
	got, _ := trainUnderChaos(t, opts, rounds)
	if excluded := metricSum(o.Registry(), "cosmic_round_excluded_total"); excluded < 1 {
		t.Fatalf("cosmic_round_excluded_total = %g; the partition cost no rounds", excluded)
	}
	if stuck := metricSum(o.Registry(), "cosmic_node_suspect"); stuck != 0 {
		t.Fatalf("cosmic_node_suspect sums to %g after the heal; the rejoin never cleared", stuck)
	}
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before", final, initial)
	}
}

// TestChaosDeadDeltaQuorumSurvives: Delta 5's data never arrives — the
// permanently dead member. Its Sigma folds every round on the surviving
// quorum, keeps the member marked suspect, and the run completes. With no
// RoundTimeout the quorum's resolved default bounds the round; without one
// the first round would wait for the dead member forever.
func TestChaosDeadDeltaQuorumSurvives(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 6
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{
		{"timeout-200ms", 200 * time.Millisecond},
		{"timeout-unset", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg, shards := chaosWorkload(nodes)
			o := obs.New()
			nw := chaosFabric(t, "seed 31\nlink 5->1 drop 1 data-only\n")
			opts := chaosOptions(nodes, groups, alg, shards, nw)
			opts.RoundTimeout = tc.timeout
			opts.MinQuorum = 2
			opts.Obs = o
			got, _ := trainUnderChaos(t, opts, rounds)
			reg := o.Registry()
			if excluded := metricSum(reg, "cosmic_round_excluded_total"); excluded < float64(rounds-1) {
				t.Fatalf("cosmic_round_excluded_total = %g, want >= %d (every round folds without the dead member)", excluded, rounds-1)
			}
			if v := metricSum(reg, `cosmic_node_suspect{node="1",peer="5"}`); v != 1 {
				t.Fatalf("sigma 1's suspect gauge for member 5 = %g, want 1", v)
			}
			initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
			final := meanLoss(alg, got, shards)
			if final >= initial {
				t.Fatalf("loss %g after training, %g before", final, initial)
			}
		})
	}
}

// TestChaosMidFrameKillReconnects: the fabric severs Delta 3's upstream
// connection mid-frame. The Sigma reads a truncated frame and drops the
// connection; the Delta's contribution for that round is lost (one excluded
// round), and its backoff redial plus hello rejoin restores the full member
// set for the remaining rounds.
func TestChaosMidFrameKillReconnects(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 8
	alg, shards := chaosWorkload(nodes)
	o := obs.New()
	nw := chaosFabric(t, "seed 41\nlink 3->1 kill-frame 3 once data-only\n")
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 300 * time.Millisecond
	opts.MinQuorum = 2
	opts.Reconnect = true
	opts.ReconnectWait = 10 * time.Second
	opts.Obs = o
	got, _ := trainUnderChaos(t, opts, rounds)
	reg := o.Registry()
	if excluded := metricSum(reg, "cosmic_round_excluded_total"); excluded < 1 {
		t.Fatalf("cosmic_round_excluded_total = %g; the kill cost no rounds", excluded)
	}
	if stuck := metricSum(reg, `cosmic_node_suspect{node="1",peer="3"}`); stuck != 0 {
		t.Fatalf("member 3's suspect gauge = %g after its rejoin, want 0", stuck)
	}
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before", final, initial)
	}
}

// TestChaosLossCostsRoundsNotTheRun: under a seeded drop schedule the same
// frames vanish on every run (fault decisions are a pure function of seed,
// link, and frame index — the wire-level replay tests in package chaos pin
// that down), so this schedule reliably costs rounds; exclude-and-continue
// must turn each of them into an excluded round rather than a failed run.
// Bitwise replay of a whole faulted training run is deliberately NOT
// asserted: which members make a timeout's cut depends on wall-clock
// arrival, so only fault-free runs are bit-reproducible end to end.
func TestChaosLossCostsRoundsNotTheRun(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 8
	alg, shards := chaosWorkload(nodes)
	o := obs.New()
	nw := chaosFabric(t, "seed 97\nlink *->* drop 0.06 data-only\n")
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 250 * time.Millisecond
	opts.MinQuorum = 2
	opts.Obs = o
	got, _ := trainUnderChaos(t, opts, rounds)
	if excluded := metricSum(o.Registry(), "cosmic_round_excluded_total"); excluded < 1 {
		t.Fatalf("cosmic_round_excluded_total = %g; the seeded drops cost no rounds", excluded)
	}
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before", final, initial)
	}
}

// chaosLogBuf is a goroutine-safe sink for the cluster's structured logs.
type chaosLogBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *chaosLogBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *chaosLogBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestChaosMasterPreExcludesDeadDelta pins the master's pre-exclusion
// arithmetic. Its own group is {0,2} here, but its fold set also carries one
// aggregate per other group's Sigma — three members in total. Counting
// quorum survivors against the group alone would veto pre-exclusion, so a
// permanently dead Delta would re-pay the round timeout on every round. The
// master must fold the first timed-out round on quorum, then start every
// later round without the suspect.
func TestChaosMasterPreExcludesDeadDelta(t *testing.T) {
	const nodes, groups, rounds = 4, 2, 8
	alg, shards := chaosWorkload(nodes)
	nw := chaosFabric(t, "seed 53\nlink 2->0 drop 1 data-only\n")
	opts := chaosOptions(nodes, groups, alg, shards, nw)
	opts.RoundTimeout = 200 * time.Millisecond
	opts.MinQuorum = 2
	var logs chaosLogBuf
	opts.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	got, stats := trainUnderChaos(t, opts, rounds)
	if stats.ExcludedRounds != rounds {
		t.Errorf("ExcludedRounds = %d, want every one of %d (member 2 never delivers)",
			stats.ExcludedRounds, rounds)
	}
	text := logs.String()
	folded := strings.Count(text, "round folded on quorum")
	pre := strings.Count(text, "round started without suspect members")
	if pre < rounds-2 {
		t.Errorf("pre-excluded %d of %d rounds (quorum folds: %d); the dead member is re-paying the timeout",
			pre, rounds, folded)
	}
	if folded > 2 {
		t.Errorf("%d rounds folded on quorum, want at most the rounds before the suspect mark stuck", folded)
	}
	initial := meanLoss(alg, make([]float64, alg.ModelSize()), shards)
	final := meanLoss(alg, got, shards)
	if final >= initial {
		t.Fatalf("loss %g after training, %g before", final, initial)
	}
}
