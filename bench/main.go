// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics later changes are judged by, and a traced pass that
// produces per-layer numbers by timing calls at the stack's public
// functions and injection points. See README.md beside this file.
//
//	go run ./bench -workload wide -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	go run ./bench -workload wide -seed 1 -seconds 10 -trace 1   # per-layer metrics
//
// It prints a report for the reader and then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	smoke    bool
}

// run executes one workload and writes the report followed by the result
// line to out.
func run(o options, out io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.smoke {
		w = w.smoke()
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var r *report
	defs := endToEnd
	switch o.trace {
	case 0:
		r, err = runTimed(w, o.seed, o.seconds)
	case 1:
		defs = perLayer
		r, err = runTraced(w, o.seed, o.seconds, o.traceOut)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		if r != nil {
			printReport(out, r, defs)
		}
		return err
	}
	metrics, missing := pick(defs, r.values)
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	printReport(out, r, defs)
	line, err := json.Marshal(resultLine{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printReport writes the provenance block, the checks, the per-family rows
// and every metric by name with its unit and sample count.
func printReport(out io.Writer, r *report, defs []metricDef) {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err == nil {
		fmt.Fprintf(out, "%s\n", doc)
	}
	byName := append([]metricDef(nil), defs...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	for _, d := range byName {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(out, "%-38s %16.6g %-7s (n=%d)\n", d.name, v, d.unit, r.Samples[d.name])
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(out, "FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: wide, tiny, deep or stack")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink the workload to tens of rounds (what the package test runs)")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
