package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}, {0.99, 4.96},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its argument in place: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

func TestGeomeanAndRatios(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1,10,100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
	if got := pctOver(110, 100); !near(got, 10) {
		t.Errorf("pctOver(110,100) = %g, want 10", got)
	}
	if got := pctOver(1, 0); got != 0 {
		t.Errorf("pctOver with a zero base = %g, want 0", got)
	}
	if got := maxOf([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("maxOf of negatives = %g, want -1", got)
	}
}

// One slow segment must not move a median-of-segments metric.
func TestMedianOfSegments(t *testing.T) {
	ps := &pass{}
	for i := 0; i < 15; i++ {
		ps.segs = append(ps.segs, segment{rounds: 100, wall: 100 * time.Millisecond})
	}
	ps.segs[7].wall = 900 * time.Millisecond // the box fell into a slow phase
	rate := median(ps.perSegment(func(s segment) float64 { return float64(s.rounds) / s.wall.Seconds() }))
	if !near(rate, 1000) {
		t.Errorf("median rounds/s = %g, want 1000 despite one slow segment", rate)
	}
}

func TestLossCrossing(t *testing.T) {
	ps := &pass{}
	for _, loss := range []float64{0.8, 0.4, 0.2, 0.1} {
		ps.segs = append(ps.segs, segment{rounds: 50, wall: time.Second, lossAfter: loss})
	}
	// 0.4 -> 0.2 crosses 0.2828 (= 0.4/sqrt 2) halfway through segment 2 in log space.
	rounds, wall := ps.lossCrossing(0.4/math.Sqrt2, 1.6)
	if !near(rounds, 125) || !near(wall, 2.5) {
		t.Errorf("crossing at %g rounds, %g s; want 125, 2.5", rounds, wall)
	}
	// A target met exactly at a boundary lands on the boundary.
	if rounds, _ := ps.lossCrossing(0.4, 1.6); !near(rounds, 100) {
		t.Errorf("boundary crossing at %g rounds, want 100", rounds)
	}
	// Never reached: the whole run.
	if rounds, wall := ps.lossCrossing(0.01, 1.6); rounds != 200 || wall != 4 {
		t.Errorf("unreached target gave %g rounds, %g s; want 200, 4", rounds, wall)
	}
	if got := ps.reachedLoss(0.25); got != 2 {
		t.Errorf("reachedLoss(0.25) = %d, want segment 2", got)
	}
}

// The socket decorator must see exactly the bytes cosmicnet accounts for,
// and count frames from the wire's own length prefixes.
func TestTimedConnCountsWhatConnCounts(t *testing.T) {
	rec := newRecorder(2)
	server, client := &timedTransport{node: 0, rec: rec}, &timedTransport{node: 1, rec: rec}
	sent, received, frames, err := loopbackFrames(server, client, []int{0, 1, 200, 4096})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := rec.nodes[1].io.snapshot(), rec.nodes[0].io.snapshot()
	if tx.writeBytes != sent || sent == 0 {
		t.Errorf("timedConn wrote %d B, Conn.BytesSent() = %d", tx.writeBytes, sent)
	}
	if rx.readBytes != received || received != sent {
		t.Errorf("timedConn read %d B, Conn.BytesReceived() = %d, sent %d", rx.readBytes, received, sent)
	}
	if tx.frames != int64(frames) {
		t.Errorf("counted %d frames on the wire, sent %d", tx.frames, frames)
	}
	if tx.writes < tx.frames || rx.reads < 2*int64(frames) {
		t.Errorf("writes %d, reads %d for %d frames", tx.writes, rx.reads, frames)
	}
	if got := len(rec.nodes[1].writes); int64(got) != tx.writes {
		t.Errorf("recorded %d write spans for %d writes", got, tx.writes)
	}
}

// A frame whose bytes arrive split across writes is still one frame.
func TestCountFramesAcrossSplitWrites(t *testing.T) {
	var io ioCounters
	c := &timedConn{io: &io}
	frame := []byte{5, 0, 0, 0, 'a', 'b', 'c', 'd', 'e'} // length prefix 5, then 5 bytes
	stream := append(append([]byte{}, frame...), frame...)
	for _, cut := range [][]int{{2, 3, 9, 11}, {18}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}} {
		io.frames.Store(0)
		c.remaining, c.nprefix = 0, 0
		prev := 0
		for _, at := range append(cut, len(stream)) {
			c.countFrames(stream[prev:at])
			prev = at
		}
		if got := io.frames.Load(); got != 2 {
			t.Errorf("cuts %v: counted %d frames, want 2", cut, got)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// BENCHMARK.json must repeat the tables in metrics.go and workload.go.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	compare := func(kind string, decl []declared, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the table has %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			got := decl[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table has %+v", kind, i, got, d)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json differs from the table's %g", kind, d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, d.name, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table has {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	var setup bool
	for _, d := range endToEnd {
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload, in both modes, must emit every declared metric exactly
// once, under its declared unit, as the last line of its output.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	for _, d := range append(append([]declared{}, bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range bf.Workloads {
		for trace, decl := range [][]declared{bf.EndToEnd, bf.PerLayer} {
			var out bytes.Buffer
			err := run(options{workload: w.Name, seed: 3, seconds: 0.2, trace: trace, smoke: true}, &out)
			if err != nil {
				t.Fatalf("%s -trace %d: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s -trace %d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s -trace %d: result line has keys %v, want exactly correct, attempted, failed, metrics", w.Name, trace, raw)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s -trace %d: emitted %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(decl))
			}
			for _, d := range decl {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %d: %s not emitted", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s -trace %d: %s emitted in %q, declared %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s -trace %d: %s = %g", w.Name, trace, d.Name, m.Value)
				case trace == 0 && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
}

// checkSpanFile checks the -trace-out file: Chrome trace-event JSON with one
// round span per round, and every child naming a round that exists.
func checkSpanFile(t *testing.T, path string, rounds int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not trace-event JSON: %v", path, err)
	}
	count := map[string]int{}
	for _, e := range doc.TraceEvents {
		count[e.Name]++
		round := int(e.Args["round"].(float64))
		if e.Ph != "X" || e.Dur < 0 || round >= rounds {
			t.Fatalf("bad span %+v", e)
		}
		if e.Name != "runtime.round" && round >= 0 && e.Args["parent"] != fmt.Sprintf("runtime.round/%d", round) {
			t.Fatalf("span %+v does not name its round as parent", e)
		}
	}
	if count["runtime.round"] != rounds || count["runtime.engine"] != rounds*clusterNodes || count["cosmicnet.write"] == 0 {
		t.Errorf("span counts %v, want %d rounds and %d engine calls", count, rounds, rounds*clusterNodes)
	}
}

// The same seed must train bitwise identically, decorated or not.
func TestSmokeModelHashRepeats(t *testing.T) {
	w, err := workloadByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	a, err := runTimed(w, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	b, err := runTraced(w, 5, 0.1, spans)
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelHash == "" || a.ModelHash != b.ModelHash {
		t.Errorf("model_hash timed %q, traced %q", a.ModelHash, b.ModelHash)
	}
	checkSpanFile(t, spans, w.warmRounds+hashSegments*w.segRounds)
	c, err := runTimed(w, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelHash == a.ModelHash {
		t.Errorf("seeds 5 and 6 trained the same model %q: the seed is not reaching the inputs", a.ModelHash)
	}
}
