package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/dsl"
	"repro/internal/obs"
)

func TestBuildProgramEndToEnd(t *testing.T) {
	b, err := BuildProgram(dsl.SourceSVM, map[string]int{"M": 64}, arch.UltraScalePlus, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Unit == nil || b.Graph == nil || b.Program == nil {
		t.Fatal("incomplete build")
	}
	// With no explicit mini-batch, the Planner uses the DSL's declaration.
	if b.Unit.Program.MiniBatch != 10000 {
		t.Errorf("declared mini-batch %d", b.Unit.Program.MiniBatch)
	}
	if err := b.Point.Plan.Validate(); err != nil {
		t.Error(err)
	}
	est, err := b.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Interval <= 0 {
		t.Errorf("estimate interval %d", est.Interval)
	}
	rtl, err := b.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rtl, "cosmic_top") {
		t.Error("RTL missing top module")
	}
}

func TestBuildProgramTABLAForcesSingleThread(t *testing.T) {
	b, err := BuildProgram(dsl.SourceSVM, map[string]int{"M": 64}, arch.UltraScalePlus,
		BuildOptions{Style: compiler.StyleTABLA, MaxThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if b.Point.Plan.Threads != 1 {
		t.Errorf("TABLA build has %d threads", b.Point.Plan.Threads)
	}
}

func TestBuildProgramPropagatesFrontendErrors(t *testing.T) {
	if _, err := BuildProgram("nonsense!", nil, arch.UltraScalePlus, BuildOptions{}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := BuildProgram(dsl.SourceSVM, nil, arch.UltraScalePlus, BuildOptions{}); err == nil {
		t.Error("expected missing-parameter error")
	}
}

// TestBuildProgramCompileSpans: with an observer attached, every pipeline
// phase must appear as a wall-clock span and the build counters must move.
func TestBuildProgramCompileSpans(t *testing.T) {
	o := obs.New()
	b, err := BuildProgram(dsl.SourceSVM, map[string]int{"M": 64}, arch.UltraScalePlus,
		BuildOptions{Verify: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Verilog(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"parse": false, "translate": false, "plan": false,
		"verify": false, "microcode": false, "build-program": false,
	}
	for _, e := range o.Trace.Events() {
		if e.Cat == "compile" {
			if _, ok := want[e.Name]; ok {
				want[e.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span recorded", name)
		}
	}
	if got := o.Metrics.Counter("cosmic_compile_builds_total").Value(); got != 1 {
		t.Errorf("builds_total = %d, want 1", got)
	}
}
