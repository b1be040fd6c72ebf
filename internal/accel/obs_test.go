package accel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ml"
	"repro/internal/obs"
)

// obsTestSim builds a small 2-thread simulator with per-thread parts.
func obsTestSim(t testing.TB) (*Sim, map[string][]float64, [][]map[string][]float64) {
	t.Helper()
	alg := &ml.SVM{M: 48}
	unit, err := dsl.ParseAndAnalyze(alg.DSLSource(), alg.DSLParams())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Translate(unit)
	if err != nil {
		t.Fatal(err)
	}
	chip := arch.ChipSpec{
		Name: "obs-chip", Kind: arch.FPGA,
		PEBudget: 64, StorageKB: 1024,
		MemBandwidthGBps: 6.4, FrequencyMHz: 100, TDPWatts: 10,
	}
	plan := arch.Plan{Chip: chip, Columns: chip.Columns(), Threads: 2, RowsPerThread: 2}
	prog, err := compiler.Compile(g, plan, compiler.StyleCoSMIC)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(prog)
	rng := rand.New(rand.NewSource(3))
	model := alg.PackModel(alg.InitModel(rng))
	parts := make([][]map[string][]float64, 2)
	for tid := range parts {
		for v := 0; v < 4; v++ {
			s := ml.Sample{X: make([]float64, alg.M), Y: []float64{1}}
			for j := range s.X {
				s.X[j] = rng.NormFloat64()
			}
			parts[tid] = append(parts[tid], alg.PackSample(s))
		}
	}
	return sim, model, parts
}

// TestRunBatchTelemetry checks that an attached observer sees the batch:
// cycle counters agree with the BatchResult, per-PE busy cycles cover every
// loaded PE, bus transfer counters exist for every contended segment, and
// the trace carries per-PE and per-thread spans laid end to end.
func TestRunBatchTelemetry(t *testing.T) {
	sim, model, parts := obsTestSim(t)
	o := obs.New()
	sim.Attach(o)

	res1, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}

	reg := o.Registry()
	if got := reg.Counter("cosmic_sim_batches_total").Value(); got != 2 {
		t.Errorf("batches_total = %d, want 2", got)
	}
	if got, want := reg.Counter("cosmic_sim_cycles_total").Value(), res1.Cycles+res2.Cycles; got != want {
		t.Errorf("cycles_total = %d, want %d", got, want)
	}
	if got, want := reg.Counter("cosmic_sim_vectors_total").Value(), int64(16); got != want {
		t.Errorf("vectors_total = %d, want %d", got, want)
	}

	var peBusy, busTx int64
	for _, s := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "cosmic_sim_pe_busy_cycles_total"):
			peBusy += int64(s.Value)
		case strings.HasPrefix(s.Name, "cosmic_sim_bus_transfers_total"):
			busTx += int64(s.Value)
		}
	}
	if peBusy == 0 {
		t.Error("no per-PE busy cycles recorded")
	}
	if sim.MaxBusLoad() > 0 && busTx == 0 {
		t.Error("program has bus contention but no bus transfer counters")
	}

	var peSpans, threadSpans int
	var lastEnd int64
	for _, e := range o.Tracer().Events() {
		if e.Phase != "X" {
			continue
		}
		switch e.Name {
		case "pe-busy":
			peSpans++
		case "thread-compute":
			threadSpans++
		case "tree-reduce":
			if end := e.TS + e.Dur; end > lastEnd {
				lastEnd = end
			}
		}
	}
	if peSpans == 0 {
		t.Error("no per-PE spans in trace")
	}
	if threadSpans != 2*2 {
		t.Errorf("thread-compute spans = %d, want 4 (2 threads × 2 batches)", threadSpans)
	}
	if want := res1.Cycles + res2.Cycles; lastEnd != want {
		t.Errorf("trace timeline ends at cycle %d, want %d (batches laid end to end)", lastEnd, want)
	}
}

// TestRunBatchDetachedIsIdentical: attaching an observer must not perturb
// the numeric result, and detaching must stop recording.
func TestRunBatchDetachedIsIdentical(t *testing.T) {
	simA, model, parts := obsTestSim(t)
	simB, _, _ := obsTestSim(t)
	o := obs.New()
	simB.Attach(o)

	a, err := simA.RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simB.RunBatch(model, parts, 0.05, dsl.AggAverage)
	if err != nil {
		t.Fatal(err)
	}
	for name, av := range a.Partial {
		for i, v := range av {
			if b.Partial[name][i] != v {
				t.Fatalf("partial %s[%d] differs with observer attached", name, i)
			}
		}
	}

	simB.Attach(nil)
	if _, err := simB.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry().Counter("cosmic_sim_batches_total").Value(); got != 1 {
		t.Errorf("detached simulator still recorded: batches_total = %d, want 1", got)
	}
}

// BenchmarkRunBatchObserved guards the no-op cost of instrumentation: the
// "detached" case must match the pre-telemetry RunBatch (it allocates only
// its result), and "attached" shows the enabled price.
func BenchmarkRunBatchObserved(b *testing.B) {
	for _, attached := range []bool{false, true} {
		b.Run(fmt.Sprintf("attached=%v", attached), func(b *testing.B) {
			sim, model, parts := obsTestSim(b)
			if attached {
				sim.Attach(obs.New())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunBatch(model, parts, 0.05, dsl.AggAverage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
