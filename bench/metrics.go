package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json repeats
// this table for the driver; bench_test.go fails if the two disagree.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher"; bound is the share of the parent's
	// median by which an end-to-end metric may worsen (0 for per-layer
	// metrics, which have none).
	better string
	bound  float64
}

// exact marks a metric the program makes deterministically: any worsening
// is a real change, never noise. The contract wants a positive bound.
const exact = 0.001

// noisy is the bound of every host-time metric: the widest the contract
// allows. Ten back-to-back runs on the reference box spread by 5 to 20 % of
// their median, more when a slow phase of the box falls inside the set
// (README.md has the table), and a bound inside the spread rejects the
// benchmark itself.
const noisy = 0.25

// endToEnd are the numbers a user of the stack pays for. Every workload
// reports all of them; README.md says which leg of a workload each comes
// from and which workload is the one to read it on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", noisy},
	{"round_p50_ms", "ms", "lower", noisy},
	{"rounds_per_s", "1/s", "higher", noisy},
	{"cpu_ms_per_round", "ms", "lower", noisy},
	{"wire_bytes_per_round", "B", "lower", exact},
	{"allocs_per_round", "1", "lower", 0.10},
	{"alloc_kb_per_round", "KB", "lower", 0.05},
	{"round_ok_ratio", "1", "higher", exact},
	{"rounds_to_loss", "1", "lower", 0.05},
	{"time_to_loss_s", "s", "lower", noisy},
	{"compile_s", "s", "lower", noisy},
	{"sim_samples_per_s", "1/s", "higher", noisy},
	{"sim_cycles_per_sample", "cyc", "lower", exact},
	{"sim_within_tol_ratio", "1", "higher", exact},
}

// perLayer are single-layer numbers, named <module>.<metric>. They explain
// an end-to-end change; none of them gates one.
var perLayer = []metricDef{
	{name: "dsl.parse_ms", unit: "ms", better: "lower"},
	{name: "dfg.translate_ms", unit: "ms", better: "lower"},
	{name: "dfg.nodes", unit: "count", better: "lower"},
	{name: "planner.plan_ms", unit: "ms", better: "lower"},
	{name: "planner.points_explored", unit: "count", better: "lower"},
	{name: "compiler.map_schedule_ms", unit: "ms", better: "lower"},
	{name: "compiler.comm_cost", unit: "count", better: "lower"},
	{name: "verilog.encode_ms", unit: "ms", better: "lower"},
	{name: "verilog.generate_ms", unit: "ms", better: "lower"},
	{name: "verilog.rtl_kb", unit: "KB", better: "lower"},
	{name: "dfg.tape_compile_ms", unit: "ms", better: "lower"},

	{name: "accel.runbatch_ms", unit: "ms", better: "lower"},
	{name: "accel.host_ns_per_sim_cycle", unit: "ns/cyc", better: "lower"},
	{name: "accel.sim_cycles", unit: "cyc", better: "lower"},
	{name: "accel.compute_util", unit: "1", better: "higher"},
	{name: "accel.runbatch_allocs", unit: "count", better: "lower"},
	{name: "accel.sim_max_abs_err", unit: "1", better: "lower"},
	{name: "dfg.tape_eval_ns_per_sample", unit: "ns", better: "lower"},
	{name: "perf.estimate_err_pct", unit: "%", better: "lower"},

	{name: "runtime.engine_us_p50", unit: "us", better: "lower"},
	{name: "runtime.engine_us_slowest_node", unit: "us", better: "lower"},
	{name: "runtime.noncompute_us", unit: "us", better: "lower"},
	{name: "runtime.compute_frac", unit: "1", better: "higher"},
	{name: "runtime.round_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.round_max_ms", unit: "ms", better: "lower"},
	{name: "runtime.segment_drift_pct", unit: "%", better: "lower"},
	{name: "runtime.launch_ms", unit: "ms", better: "lower"},
	{name: "runtime.shutdown_ms", unit: "ms", better: "lower"},
	{name: "runtime.goroutines", unit: "count", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "cosmicnet.encode_ns_per_word", unit: "ns", better: "lower"},
	{name: "cosmicnet.decode_ns_per_word", unit: "ns", better: "lower"},
	{name: "cosmicnet.encode_allocs", unit: "count", better: "lower"},
	{name: "cosmicnet.decode_allocs", unit: "count", better: "lower"},
	{name: "cosmicnet.frames_per_round", unit: "count", better: "lower"},
	{name: "cosmicnet.writes_per_round", unit: "count", better: "lower"},
	{name: "cosmicnet.reads_per_round", unit: "count", better: "lower"},
	{name: "cosmicnet.bytes_per_write", unit: "B", better: "higher"},
	{name: "cosmicnet.write_us_per_round", unit: "us", better: "lower"},
	{name: "cosmicnet.read_wait_us_per_round", unit: "us", better: "lower"},
	{name: "cosmicnet.master_tx_bytes_per_round", unit: "B", better: "lower"},

	{name: "obs.round_overhead_pct", unit: "%", better: "lower"},
	{name: "obs.trace_events_per_round", unit: "count", better: "lower"},
	{name: "tsdb.append_ns_per_sample", unit: "ns", better: "lower"},
	{name: "tsdb.query_us", unit: "us", better: "lower"},
	{name: "tsdb.bytes_per_sample", unit: "B", better: "lower"},

	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the result line's metrics from measured values, failing on a
// declared metric that was not measured so that none goes missing silently.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
