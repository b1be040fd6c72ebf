package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the registry's race-cleanliness
// proof, and the totals check that no update is lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total")
	g := r.Gauge("hammer_level")
	h := r.Histogram("hammer_obs", []float64{1, 10, 100})

	const workers, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				// Re-resolving a registered instrument must be safe
				// concurrently and return the same instance.
				if r.Counter("hammer_total") != c {
					t.Error("counter identity changed")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %g, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestSnapshotDeterministic: two registries populated in different orders
// must produce byte-identical expositions, and repeated snapshots of one
// registry must agree.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		for _, i := range order {
			switch i {
			case 0:
				r.Counter(Labeled("zz_total", "pe", "3")).Add(7)
			case 1:
				r.Gauge("aa_level").Set(2.5)
			case 2:
				r.Histogram("mm_cycles", []float64{10, 100}).Observe(42)
			case 3:
				r.Counter("aa_total").Add(1)
			}
		}
		return r
	}
	var a, b bytes.Buffer
	if err := build([]int{0, 1, 2, 3}).WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{3, 2, 1, 0}).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("registration order changed exposition:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestPrometheusGolden pins the exact exposition text, including histogram
// expansion, cumulative buckets, and label merging.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cosmic_sim_batches_total").Add(3)
	r.Gauge(Labeled("cosmic_node_ring_depth", "node", "0")).Set(5)
	h := r.Histogram(Labeled("cosmic_round_seconds", "node", "0"), []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`cosmic_node_ring_depth{node="0"} 5`,
		`cosmic_round_seconds_bucket{node="0",le="0.01"} 1`,
		`cosmic_round_seconds_bucket{node="0",le="0.1"} 2`,
		`cosmic_round_seconds_bucket{node="0",le="+Inf"} 3`,
		`cosmic_round_seconds_sum{node="0"} 2.055`,
		`cosmic_round_seconds_count{node="0"} 3`,
		`cosmic_sim_batches_total 3`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// expositionLine is the grammar the CI smoke test enforces on /metrics
// output; every line the registry emits must match it.
var expositionLine = regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`)

func TestExpositionGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(1 << 40)
	r.Gauge("b_level").Set(-3.25e-7)
	h := r.Histogram(Labeled("c_cycles", "pe", "12"), []float64{1, 1024})
	h.Observe(2000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("line %q does not match exposition grammar", line)
		}
	}
}

// TestChromeTraceGolden pins the trace export for cycle-domain events,
// which carry no wall-clock and are therefore fully deterministic.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(PIDAccel, 0, "thread 0")
	tr.Cycles("accel", "thread-compute", 0, 10, 90, map[string]any{"vectors": 4})
	tr.Cycles("accel", "model-broadcast", 0, 0, 10, nil)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The clock-sync anchor carries the wall-clock start; normalize it so
	// the rest of the document stays golden.
	got := regexp.MustCompile(`"unix_us":\d+`).ReplaceAllString(buf.String(), `"unix_us":0`)
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host (wall-clock us)"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"accelerator (simulated cycles)"}},` +
		`{"name":"cosmic_clock_sync","ph":"M","ts":0,"pid":1,"tid":0,"args":{"skew_us":0,"unix_us":0}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"thread 0"}},` +
		`{"name":"model-broadcast","cat":"accel","ph":"X","ts":0,"dur":10,"pid":2,"tid":0},` +
		`{"name":"thread-compute","cat":"accel","ph":"X","ts":10,"dur":90,"pid":2,"tid":0,"args":{"vectors":4}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got != want {
		t.Errorf("trace mismatch:\ngot:  %swant: %s", got, want)
	}
}

// TestTraceWallClockSpans checks the host-domain span path end to end
// (ordering and JSON validity; timestamps are wall-clock so not golden).
func TestTraceWallClockSpans(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("compile", "parse", 0)
	sp.EndArgs(map[string]any{"ok": true})
	tr.Begin("compile", "translate", 0).End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Phase != "X" || e.PID != PIDHost || e.TS < 0 || e.Dur < 0 {
			t.Errorf("bad span event %+v", e)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
}

// TestDisabledInstrumentsDoNotAllocate is the nil-safety contract: with no
// observer attached, every instrumentation call must be a zero-allocation
// no-op, so hot paths (tape eval, RunBatch) stay allocation-free.
func TestDisabledInstrumentsDoNotAllocate(t *testing.T) {
	var (
		o  *Observer
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
	)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		g.Set(1)
		g.Add(1)
		h.Observe(3)
		tr.Cycles("a", "b", 0, 0, 1, nil)
		sp := tr.Begin("a", "b", 0)
		sp.End()
		r.Counter("x_total").Inc()
		r.Gauge("x_level").Set(1)
		r.Histogram("x_cycles", nil).Observe(1)
		o.Registry().Counter("y_total").Inc()
		o.Tracer().Begin("a", "b", 0).End()
	}); n != 0 {
		t.Errorf("disabled instruments allocated %v times per run, want 0", n)
	}
}

// TestQuantile exercises the histogram quantile estimate.
func TestQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q_cycles", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 3.5, 7, 9} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("p50 = %g, want 4", got)
	}
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("p100 = %g, want +Inf", got)
	}
}

// TestMetricsHandler serves /metrics over HTTP and re-checks the grammar.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(2)
	srv := httptest.NewServer(NewHTTPMux(r.Handler()))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if want := "served_total 2\n"; buf.String() != want {
		t.Errorf("GET /metrics = %q, want %q", buf.String(), want)
	}
}

// TestLabeledAndValidation covers the label builder and name validation.
func TestLabeledAndValidation(t *testing.T) {
	if got := Labeled("x_total", "pe", "3", "bus", "tree4"); got != `x_total{pe="3",bus="tree4"}` {
		t.Errorf("Labeled = %q", got)
	}
	for _, bad := range []string{"", "Bad", "has2digits", "x{unclosed", "x{a}{b}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", bad)
				}
			}()
			NewRegistry().Counter(bad)
		}()
	}
}
