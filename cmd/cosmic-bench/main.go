// Command cosmic-bench regenerates the paper's evaluation: every table and
// figure of Section 7, printed as aligned text tables with the paper's own
// numbers quoted for comparison.
//
// Besides the text tables, each run writes a machine-readable
// BENCH_<timestamp>.json into -out (see README "Benchmark artifacts" for
// the schema): one entry per experiment with its wall time, plus one
// cycle-level simulator entry per algorithm family with simulated cycles
// and compute utilization.
//
// Usage:
//
//	cosmic-bench                  # run everything, in paper order
//	cosmic-bench -experiment fig7 # run one experiment
//	cosmic-bench -list            # list experiment identifiers
//	cosmic-bench -out /tmp        # write BENCH_<timestamp>.json there
//
// -compare diffs two artifacts entry by entry (ns/op, cycles, utilization)
// and exits nonzero when any shared entry regressed beyond -threshold:
//
//	cosmic-bench -compare -threshold 0.25 old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	cosmic "repro"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/ml"
)

// benchEntry is one measurement in the BENCH_<timestamp>.json artifact.
type benchEntry struct {
	// Name is "experiment/<id>" or "sim/<benchmark>".
	Name string `json:"name"`
	// NsPerOp is the wall time of one operation: a full experiment run for
	// experiment entries, one RunBatch call for sim entries.
	NsPerOp float64 `json:"ns_per_op"`
	// Cycles and Utilization are set on sim entries only: total simulated
	// cycles for the batch and the compute fraction of them.
	Cycles      int64   `json:"cycles,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
}

// benchReport is the artifact's top level.
type benchReport struct {
	Timestamp string       `json:"timestamp"`
	Entries   []benchEntry `json:"entries"`
}

func main() {
	exp := flag.String("experiment", "", "experiment to run (empty = all); one of "+strings.Join(experiments.IDs(), ", "))
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	out := flag.String("out", ".", "directory for the BENCH_<timestamp>.json artifact (empty = don't write)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json artifacts (old new) instead of running")
	threshold := flag.Float64("threshold", 0.25, "with -compare, exit nonzero when a shared entry regresses more than this fraction")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cosmic-bench: -compare needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	report := benchReport{Timestamp: time.Now().UTC().Format("20060102T150405Z")}
	runner := experiments.NewRunner()
	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := runner.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosmic-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		report.Entries = append(report.Entries, benchEntry{
			Name: "experiment/" + id, NsPerOp: float64(time.Since(start).Nanoseconds()),
		})
		fmt.Println(rep)
	}
	// One cycle-level accelerator measurement per algorithm family: the
	// steady-state batch on the paper's primary FPGA target.
	for _, name := range []string{"tumor", "stock", "face", "mnist", "movielens"} {
		e, err := simMicro(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosmic-bench: sim/%s: %v\n", name, err)
			os.Exit(1)
		}
		report.Entries = append(report.Entries, e)
	}

	if *out != "" {
		writeReport(filepath.Join(*out, "BENCH_"+report.Timestamp+".json"), report)
	}
}

func writeReport(path string, report benchReport) {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-bench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(report.Entries))
}

// runCompare diffs two benchmark artifacts entry by entry and reports each
// shared entry's ns/op, cycle, and utilization movement. Returns 1 when any
// shared entry's ns/op or cycles regressed (grew) by more than threshold,
// 0 otherwise — entries only present on one side are reported but never
// fail the comparison.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-bench: %v\n", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-bench: %v\n", err)
		return 2
	}
	oldByName := make(map[string]benchEntry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldByName[e.Name] = e
	}

	// relDelta is (new-old)/old: positive = regression for ns/op and cycles.
	relDelta := func(oldV, newV float64) float64 {
		if oldV == 0 {
			return 0
		}
		return (newV - oldV) / oldV
	}
	fmt.Printf("%-28s %14s %14s %8s\n", "entry", "old", "new", "delta")
	failed := false
	seen := make(map[string]bool, len(newRep.Entries))
	for _, e := range newRep.Entries {
		seen[e.Name] = true
		o, ok := oldByName[e.Name]
		if !ok {
			fmt.Printf("%-28s %14s %14.0f   (new entry)\n", e.Name+" ns/op", "-", e.NsPerOp)
			continue
		}
		d := relDelta(o.NsPerOp, e.NsPerOp)
		mark := ""
		if d > threshold {
			mark = "  REGRESSED"
			failed = true
		}
		fmt.Printf("%-28s %14.0f %14.0f %+7.1f%%%s\n", e.Name+" ns/op", o.NsPerOp, e.NsPerOp, 100*d, mark)
		if o.Cycles != 0 || e.Cycles != 0 {
			cd := relDelta(float64(o.Cycles), float64(e.Cycles))
			mark = ""
			if cd > threshold {
				mark = "  REGRESSED"
				failed = true
			}
			fmt.Printf("%-28s %14d %14d %+7.1f%%%s\n", e.Name+" cycles", o.Cycles, e.Cycles, 100*cd, mark)
		}
		if o.Utilization != 0 || e.Utilization != 0 {
			fmt.Printf("%-28s %13.1f%% %13.1f%% %+7.1f%%\n", e.Name+" util",
				100*o.Utilization, 100*e.Utilization, 100*(e.Utilization-o.Utilization))
		}
	}
	for _, e := range oldRep.Entries {
		if !seen[e.Name] {
			fmt.Printf("%-28s %14.0f %14s   (dropped)\n", e.Name+" ns/op", e.NsPerOp, "-")
		}
	}
	if failed {
		fmt.Printf("FAIL: at least one entry regressed more than %.0f%%\n", 100*threshold)
		return 1
	}
	fmt.Printf("OK: no entry regressed more than %.0f%%\n", 100*threshold)
	return 0
}

func loadReport(path string) (benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	var rep benchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return benchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// simMicro compiles a benchmark at small geometry and times one simulated
// batch, reporting cycles and compute utilization.
func simMicro(name string) (benchEntry, error) {
	const vectors = 32
	bench, err := cosmic.BenchmarkByName(name)
	if err != nil {
		return benchEntry{}, err
	}
	alg := bench.Algorithm(0.01)
	prog, err := cosmic.Compile(alg.DSLSource(), alg.DSLParams(), cosmic.UltraScalePlus,
		cosmic.Options{MiniBatch: vectors})
	if err != nil {
		return benchEntry{}, err
	}
	data := bench.Generate(alg, vectors, 1)
	parts := make([][]map[string][]float64, prog.Plan().Threads)
	for t, part := range ml.Partition(data, prog.Plan().Threads) {
		for _, s := range part {
			parts[t] = append(parts[t], alg.PackSample(s))
		}
	}
	model := make([]float64, alg.ModelSize())
	sim := prog.Simulator()
	start := time.Now()
	res, err := sim.RunBatch(alg.PackModel(model), parts, bench.DefaultLR(alg), dsl.AggAverage)
	if err != nil {
		return benchEntry{}, err
	}
	e := benchEntry{
		Name:    "sim/" + bench.Name,
		NsPerOp: float64(time.Since(start).Nanoseconds()),
		Cycles:  res.Cycles,
	}
	if res.Cycles > 0 {
		e.Utilization = float64(res.ComputeCycles) / float64(res.Cycles)
	}
	return e, nil
}
