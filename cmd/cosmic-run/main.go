// Command cosmic-run launches a real multi-node CoSMIC training cluster —
// every node a goroutine with its own loopback TCP listener — and trains a
// benchmark end to end: the System Director assigns Sigma/Delta roles,
// models broadcast down the hierarchy, partial updates aggregate back up
// through the networking/aggregation thread pools, and the loss curve
// prints as rounds complete.
//
// Usage:
//
//	cosmic-run -bench tumor -nodes 6 -groups 2 -rounds 30
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	cosmic "repro"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

func main() {
	benchName := flag.String("bench", "tumor", "Table 1 benchmark name")
	scale := flag.Float64("scale", 0.02, "geometry scale in (0,1]")
	nodes := flag.Int("nodes", 4, "cluster size")
	groups := flag.Int("groups", 1, "aggregation groups (1 = flat, >1 = hierarchical)")
	threads := flag.Int("threads", 2, "accelerator worker threads per node")
	samples := flag.Int("samples", 1024, "synthetic training samples")
	batch := flag.Int("batch", 256, "system-wide mini-batch per aggregation round")
	rounds := flag.Int("rounds", 30, "aggregation rounds")
	useSim := flag.Bool("simulate", false, "compute gradients on the cycle-level accelerator simulator")
	seed := flag.Int64("seed", 1, "dataset seed")
	dataFile := flag.String("data", "", "load training data from this file (written with -save-data) instead of generating it")
	saveData := flag.String("save-data", "", "generate the dataset, write it here, and exit")
	listen := flag.String("listen", "", "multi-process mode: listen here as the master and wait for cosmic-node workers to join")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run here (view at ui.perfetto.dev)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text exposition here")
	cycleProfPath := flag.String("cycleprofile", "", "with -simulate: write the cluster's merged per-node cycle pprof profile here (.pb.gz)")
	profilePath := flag.String("profile", "", "write a wall-time pprof profile of the run's trace spans here (.pb.gz)")
	httpAddr := flag.String("http", "", "multi-process mode: serve the Director's federated /metrics, /cluster roster, /query, /dash, and /alerts on this address")
	stragglerK := flag.Float64("straggler-k", 2, "flag a node straggling when its round latency exceeds k×cluster-p50")
	stragglerM := flag.Int("straggler-m", 3, "consecutive slow scrapes before a node is flagged")
	scrapeInterval := flag.Duration("scrape-interval", 250*time.Millisecond, "multi-process mode: how often the Director scrapes worker stats and folds them into the TSDB")
	retention := flag.Duration("retention", 15*time.Minute, "multi-process mode: how long the Director's TSDB keeps raw samples")
	alertsFile := flag.String("alerts", "", "multi-process mode: JSON file of alert rules evaluated every scrape tick (see README)")
	chunkWords := flag.Int("chunk-words", 0, "streaming-chunk boundary in vector elements (0 = default 4096; must be a power of two)")
	roundTimeout := flag.Duration("round-timeout", 0, "bound each aggregation round (0 = wait forever; required by -min-quorum, which defaults it to 2s)")
	minQuorum := flag.Int("min-quorum", 0, "fold a timed-out round once at least this many members arrived instead of failing the run (0 = fail-fast)")
	flag.Parse()

	if *listen != "" {
		opts := deploy.MasterOptions{
			StragglerK: *stragglerK,
			StragglerM: *stragglerM,
			Retention:  *retention,
			Logger:     slog.New(slog.NewTextHandler(os.Stderr, nil)),
		}
		if *alertsFile != "" {
			rules, err := tsdb.LoadRulesFile(*alertsFile)
			if err != nil {
				fatal(err)
			}
			opts.AlertRules = rules
		}
		if *httpAddr != "" {
			opts.HTTPAddr = *httpAddr
			opts.ScrapeInterval = *scrapeInterval
			opts.OnHTTP = func(a string) {
				fmt.Printf("director:  serving /metrics, /cluster, /query, /dash, and /alerts on %s\n", a)
			}
		}
		runDistributed(*listen, deploy.Spec{
			Nodes: *nodes, Groups: *groups,
			Benchmark: *benchName, Scale: *scale,
			Samples: *samples / *nodes, Seed: *seed,
			MiniBatch: *batch, Rounds: *rounds, Threads: *threads,
			Average:      true,
			ChunkWords:   *chunkWords,
			RoundTimeout: *roundTimeout, MinQuorum: *minQuorum,
			Simulate: *useSim,
		}, opts, *tracePath, *profilePath)
		return
	}

	bench, err := cosmic.BenchmarkByName(*benchName)
	if err != nil {
		fatal(err)
	}
	alg := bench.Algorithm(*scale)
	var data []cosmic.Sample
	if *dataFile != "" {
		data, err = dataset.LoadFile(*dataFile)
		if err != nil {
			fatal(err)
		}
		if len(data) > 0 && len(data[0].X) != alg.FeatureSize() {
			fatal(fmt.Errorf("data file has %d features, benchmark at this scale wants %d",
				len(data[0].X), alg.FeatureSize()))
		}
		fmt.Printf("data:      %d samples loaded from %s\n", len(data), *dataFile)
	} else {
		data = bench.Generate(alg, *samples, *seed)
	}
	if *saveData != "" {
		if err := dataset.SaveFile(*saveData, data); err != nil {
			fatal(err)
		}
		fmt.Printf("data:      %d samples written to %s\n", len(data), *saveData)
		return
	}
	model := alg.InitModel(rand.New(rand.NewSource(*seed)))

	var o *cosmic.Observer
	if *tracePath != "" || *metricsPath != "" || *profilePath != "" {
		o = cosmic.NewObserver()
	}
	if *cycleProfPath != "" && !*useSim {
		fatal(fmt.Errorf("-cycleprofile needs -simulate (cycles only exist on the accelerator simulator)"))
	}
	cfg := cosmic.ClusterConfig{
		Nodes: *nodes, Groups: *groups, Threads: *threads,
		MiniBatch:    *batch,
		LearningRate: bench.DefaultLR(alg),
		Average:      true,
		Rounds:       *rounds,
		ChunkWords:   *chunkWords,
		RoundTimeout: *roundTimeout,
		MinQuorum:    *minQuorum,
		Obs:          o,
	}
	if cfg.MinQuorum > 0 && cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Second
	}
	if *useSim {
		prog, err := cosmic.Compile(alg.DSLSource(), alg.DSLParams(), cosmic.UltraScalePlus,
			cosmic.Options{MiniBatch: *batch / *nodes, Obs: o})
		if err != nil {
			fatal(err)
		}
		cfg.UseSimulator = true
		cfg.Prog = prog
		fmt.Printf("accelerator: %s\n", prog.Plan())
	}

	fmt.Printf("cluster:   %d nodes, %d groups, %d threads/node, batch %d, lr %g\n",
		cfg.Nodes, cfg.Groups, cfg.Threads, cfg.MiniBatch, cfg.LearningRate)
	fmt.Printf("benchmark: %s (%s) at scale %g: %d samples, %d model params\n",
		bench.Name, bench.Family, *scale, len(data), alg.ModelSize())

	res, err := cosmic.Train(alg, data, model, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained:   %d rounds, loss %.5f -> %.5f (%.1f%% reduction)\n",
		res.Rounds, res.InitialLoss, res.FinalLoss,
		100*(1-res.FinalLoss/res.InitialLoss))
	fmt.Printf("rounds:    p50 %v, p95 %v, max %v; network %.2f MB sent\n",
		res.RoundP50, res.RoundP95, res.RoundMax, float64(res.NetworkSentBytes)/1e6)
	if res.ExcludedRounds > 0 {
		fmt.Printf("quorum:    %d rounds folded without the full member set\n", res.ExcludedRounds)
	}
	if res.AccelCycles > 0 {
		fmt.Printf("simulated: %d total accelerator cycles across the cluster\n", res.AccelCycles)
	}
	if *cycleProfPath != "" {
		if res.CycleProfile == nil {
			fatal(fmt.Errorf("no cycle profile was collected"))
		}
		if err := res.CycleProfile.WriteFile(*cycleProfPath); err != nil {
			fatal(err)
		}
		fmt.Printf("profile:   %s (go tool pprof -top %s; per-node `node` labels)\n",
			*cycleProfPath, *cycleProfPath)
	}
	if *profilePath != "" {
		if err := obs.TraceToProfile(o.Tracer().Events()).WriteFile(*profilePath); err != nil {
			fatal(err)
		}
		fmt.Printf("profile:   %s (wall-time spans; go tool pprof -top %s)\n",
			*profilePath, *profilePath)
	}
	if err := o.WriteTraceFile(*tracePath); err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		fmt.Printf("trace:     %s (load at https://ui.perfetto.dev)\n", *tracePath)
	}
	if err := o.WriteMetricsFile(*metricsPath); err != nil {
		fatal(err)
	}
	if *metricsPath != "" {
		fmt.Printf("metrics:   %s\n", *metricsPath)
	}
}

// runDistributed hosts the System Director and the master Sigma, waiting
// for external cosmic-node worker processes to join. With opts.HTTPAddr set
// the Director scrapes every worker's metrics over the control plane, folds
// them into its TSDB, serves /metrics, /cluster, /query, /dash, and
// /alerts, and flags stragglers.
func runDistributed(addr string, spec deploy.Spec, opts deploy.MasterOptions, tracePath, profilePath string) {
	fmt.Printf("master:    listening on %s; waiting for %d cosmic-node workers to join\n",
		addr, spec.Nodes-1)
	if opts.HTTPAddr != "" || tracePath != "" || profilePath != "" {
		opts.Obs = obs.New()
	}
	if tracePath != "" {
		// Trace propagation rides the wire frames; workers started with
		// -trace record the same trace IDs for cosmic-trace to merge.
		opts.TraceIDBase = 1 << 32
	}
	res, err := deploy.RunMaster(addr, spec, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained:   %d rounds, loss %.5f -> %.5f (%.1f%% reduction)\n",
		res.Stats.Rounds, res.InitialLoss, res.FinalLoss,
		100*(1-res.FinalLoss/res.InitialLoss))
	fmt.Printf("rounds:    p50 %v, p95 %v, max %v; network %.2f MB sent\n",
		res.Stats.RoundP50, res.Stats.RoundP95, res.Stats.RoundMax,
		float64(res.Stats.NetworkSentBytes)/1e6)
	if res.Stats.ExcludedRounds > 0 {
		fmt.Printf("quorum:    %d rounds folded without the full member set\n", res.Stats.ExcludedRounds)
	}
	if profilePath != "" {
		if err := obs.TraceToProfile(opts.Obs.Tracer().Events()).WriteFile(profilePath); err != nil {
			fatal(err)
		}
		fmt.Printf("profile:   %s (master wall-time spans; scrape workers with cosmic-prof)\n",
			profilePath)
	}
	if err := opts.Obs.WriteTraceFile(tracePath); err != nil {
		fatal(err)
	}
	if tracePath != "" {
		fmt.Printf("trace:     %s (merge with cosmic-trace)\n", tracePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosmic-run:", err)
	os.Exit(1)
}
