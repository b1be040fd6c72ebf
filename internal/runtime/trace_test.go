package runtime

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// tracedCluster launches a 2-group cluster where every node has its own
// observer — the multi-process deployment shape, so the per-node traces
// must be merged to read a round end to end.
func tracedCluster(t *testing.T, nodes int, base uint64, engines func(id int) Engine) (*Cluster, []*obs.Observer) {
	t.Helper()
	alg := &ml.LinearRegression{M: 16}
	rng := rand.New(rand.NewSource(7))
	shards := make([][]ml.Sample, nodes)
	for n := range shards {
		shards[n] = make([]ml.Sample, 24)
		for i := range shards[n] {
			x := make([]float64, alg.M)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			shards[n][i] = ml.Sample{X: x, Y: []float64{x[0]}}
		}
	}
	observers := make([]*obs.Observer, nodes)
	cl, err := Launch(ClusterOptions{
		Nodes: nodes, Groups: 2,
		Engines:   engines,
		Shards:    func(id int) []ml.Sample { return shards[id] },
		ModelSize: alg.ModelSize(),
		Agg:       dsl.AggAverage,
		LR:        0.01,
		MiniBatch: nodes * 4,
		PerNodeObs: func(id int) *obs.Observer {
			o := obs.New()
			observers[id] = o
			return o
		},
		TraceIDBase: base,
		RoundPolicy: RoundPolicy{RoundTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, observers
}

// TestMergedTraceConnectsRound: a 2-group cluster with one tracer per node
// trains a few rounds; merging the per-node traces yields a timeline where
// every partial/group-aggregate span carries its round's trace ID and every
// send is connected to its receivers by flow events — the
// broadcast → partial → group-aggregate → master chain of one round reads
// as one connected graph.
func TestMergedTraceConnectsRound(t *testing.T) {
	const nodes, groups, rounds = 6, 2, 3
	const base = uint64(0xb000)
	alg := &ml.LinearRegression{M: 16}
	cl, observers := tracedCluster(t, nodes, base, func(int) Engine {
		return &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage}
	})
	defer cl.Close()
	model := make([]float64, alg.ModelSize())
	if _, _, err := cl.Train(model, rounds); err != nil {
		t.Fatal(err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}

	inputs := make([][]byte, 0, nodes)
	for id, o := range observers {
		var buf bytes.Buffer
		if err := o.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("node %d trace: %v", id, err)
		}
		inputs = append(inputs, buf.Bytes())
	}
	merged, stats, err := obs.MergeChromeTraces(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Per round, one flow arrow per traced frame: a model broadcast to every
	// non-master node, a partial from every Delta, and a group aggregate
	// from every non-master Sigma.
	deltas := nodes - groups
	wantFlows := rounds * ((nodes - 1) + deltas + (groups - 1))
	if stats.Flows != wantFlows || stats.UnmatchedFlows != 0 {
		t.Errorf("flows = %d (unmatched %d), want %d matched", stats.Flows, stats.UnmatchedFlows, wantFlows)
	}

	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged, &doc); err != nil {
		t.Fatal(err)
	}
	// Every wire-level partial / group-aggregate span must carry the trace
	// ID derived from its round seq.
	namesSeen := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Args == nil {
			continue
		}
		wire := strings.Contains(e.Name, "partial") || strings.Contains(e.Name, "group-aggregate")
		if !wire {
			continue
		}
		namesSeen[e.Name]++
		seq, ok := e.Args["seq"].(float64)
		if !ok {
			t.Errorf("%s span has no seq arg: %v", e.Name, e.Args)
			continue
		}
		want := obs.IDString(RoundTraceID(base, int(seq)))
		if got := e.Args[obs.ArgTraceID]; got != want {
			t.Errorf("%s span (seq %v) trace id = %v, want %s", e.Name, seq, got, want)
		}
	}
	for _, name := range []string{"send-partial", "recv-partial", "send-group-aggregate", "recv-group-aggregate"} {
		if namesSeen[name] == 0 {
			t.Errorf("merged trace has no %s spans (saw %v)", name, namesSeen)
		}
	}

	// The chain of one round: collect round 1's flow IDs and check both
	// ends of each arrow exist ("s" on the sender row, "f" with bp=e on a
	// receiver row).
	starts, finishes := map[string]bool{}, map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "s":
			starts[e.ID] = true
		case "f":
			if e.BP != "e" {
				t.Errorf("flow finish %s without bp=e", e.ID)
			}
			finishes[e.ID] = true
		}
	}
	if len(starts) != wantFlows || len(finishes) != wantFlows {
		t.Errorf("flow starts/finishes = %d/%d, want %d", len(starts), len(finishes), wantFlows)
	}
	for id := range starts {
		if !finishes[id] {
			t.Errorf("flow %s has a start but no finish", id)
		}
	}
}

// slowEngine injects a fixed delay before delegating — a straggling node.
type slowEngine struct {
	Engine
	delay time.Duration
}

func (s *slowEngine) PartialUpdate(model []float64, shard []ml.Sample) ([]float64, error) {
	time.Sleep(s.delay)
	return s.Engine.PartialUpdate(model, shard)
}

// TestMonitorFlagsInjectedStraggler: with one node's engine slowed, the
// director-side monitor flags exactly that node after M consecutive slow
// scrapes, raises its straggler gauge, and logs a structured warning.
func TestMonitorFlagsInjectedStraggler(t *testing.T) {
	const nodes, slowID = 6, 5
	alg := &ml.LinearRegression{M: 16}
	cl, _ := tracedCluster(t, nodes, 0, func(id int) Engine {
		var e Engine = &RefEngine{Alg: alg, Threads: 1, LR: 0.01, Agg: dsl.AggAverage}
		if id == slowID {
			e = &slowEngine{Engine: e, delay: 30 * time.Millisecond}
		}
		return e
	})
	defer cl.Close()

	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	mon := NewMonitor(reg, 2, 3, slog.New(slog.NewTextHandler(&logBuf, nil)))

	model := make([]float64, alg.ModelSize())
	var flagged []string
	for round := 0; round < 6; round++ {
		var err error
		if model, _, err = cl.Train(model, 1); err != nil {
			t.Fatal(err)
		}
		latencies := map[string]float64{}
		for _, n := range cl.Nodes() {
			if h := n.Health(); h.LastRoundSeconds > 0 {
				latencies[strconv.Itoa(int(h.ID))] = h.LastRoundSeconds
			}
		}
		flagged = mon.Observe(latencies)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// The slow Delta must be flagged. Its Sigma (and the master) wait on it,
	// so they may legitimately cross the bar too — but the fast Deltas whose
	// rounds are pure compute must not.
	set := map[string]bool{}
	for _, n := range flagged {
		set[n] = true
	}
	if !set["5"] {
		t.Fatalf("flagged = %v, want node 5 among them", flagged)
	}
	for _, fast := range []string{"2", "3", "4"} {
		if set[fast] {
			t.Errorf("fast delta %s flagged as straggler (flagged = %v)", fast, flagged)
		}
	}
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == `cosmic_cluster_straggler{node="5"}` {
			found = true
			if s.Value != 1 {
				t.Errorf("straggler gauge = %g, want 1", s.Value)
			}
		}
	}
	if !found {
		t.Error("no straggler gauge for node 5 in registry")
	}
	if !strings.Contains(logBuf.String(), "straggler detected") || !strings.Contains(logBuf.String(), "node=5") {
		t.Errorf("no structured straggler warning logged:\n%s", logBuf.String())
	}
}
