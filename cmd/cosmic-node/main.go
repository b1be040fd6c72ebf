// Command cosmic-node is a CoSMIC worker process: it joins a master
// (cmd/cosmic-run -listen), receives its role, group, and upstream
// assignment from the System Director, and serves as a Delta or group
// Sigma node until training completes.
//
// Usage:
//
//	cosmic-run  -bench tumor -nodes 4 -groups 2 -listen 127.0.0.1:9070 &
//	cosmic-node -join 127.0.0.1:9070 -http 127.0.0.1:9071 &   # × 3
//
// -http serves live telemetry while the node trains: /metrics is the
// Prometheus text exposition of the node's counters (frames received,
// aggregation fan-in, ring depth), /healthz reports the node's identity and
// round progress (503 until the Director has configured it), /debug/pprof/
// exposes the standard Go profiling endpoints, and /debug/cosmic/cycles
// serves the node's simulated-cycle pprof profile when the cluster spec
// routes gradients through the accelerator simulator (cosmic-run -simulate;
// 503 otherwise). The address is advertised to the Director so
// `cosmic-prof -cluster <director-http>` can discover and scrape every
// worker in one command.
//
// -trace writes the node's Chrome trace-event JSON on exit; merge the
// per-node files with cosmic-trace into one cluster timeline.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/runtime"
)

func main() {
	join := flag.String("join", "", "master control address to join")
	httpAddr := flag.String("http", "", "serve /metrics, /healthz, /query, /dash, /alerts, and /debug/pprof/ on this address while training")
	tracePath := flag.String("trace", "", "write this node's Chrome trace-event JSON here on exit (merge with cosmic-trace)")
	chunkWords := flag.Int("chunk-words", 0, "assert the cluster's streaming-chunk boundary (0 = accept the Director's; a mismatch is an error)")
	reconnect := flag.Bool("reconnect", false, "redial the upstream Sigma with backoff when the data-plane connection drops (pair with cosmic-run -min-quorum)")
	reconnectWait := flag.Duration("reconnect-wait", 0, "give up redialing after this long (0 = 30s)")
	scrapeInterval := flag.Duration("scrape-interval", 250*time.Millisecond, "how often the node samples its own registry into the local TSDB")
	retention := flag.Duration("retention", 15*time.Minute, "how long the node's local TSDB keeps raw samples")
	alertsFile := flag.String("alerts", "", "JSON file of alert rules evaluated against the node's local TSDB every sample tick")
	flag.Parse()
	if *join == "" {
		fmt.Fprintln(os.Stderr, "cosmic-node: -join <addr> is required")
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var o *obs.Observer
	var health *obs.Health
	if *httpAddr != "" || *tracePath != "" {
		o = obs.New()
	}
	var rules []tsdb.Rule
	if *alertsFile != "" {
		var err error
		if rules, err = tsdb.LoadRulesFile(*alertsFile); err != nil {
			fmt.Fprintf(os.Stderr, "cosmic-node: %v\n", err)
			os.Exit(1)
		}
	}
	var cycles *obs.ProfileSource
	var eval *tsdb.Evaluator
	var stopSampler chan struct{}
	if *httpAddr != "" {
		health = obs.NewHealth()
		cycles = obs.NewProfileSource()
		// The node's own TSDB: a self-sampler goroutine folds the local
		// registry into it, so /query and /dash work against a single
		// worker exactly as against the Director's federated view.
		store := tsdb.NewStore(tsdb.Options{Retention: *retention})
		var err error
		if eval, err = tsdb.NewEvaluator(rules, o.Registry(), logger, nil); err != nil {
			fmt.Fprintf(os.Stderr, "cosmic-node: %v\n", err)
			os.Exit(1)
		}
		stopSampler = make(chan struct{})
		go func() {
			ticker := time.NewTicker(*scrapeInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-ticker.C:
				}
				now := time.Now().UnixMilli()
				store.AppendSet(now, o.Registry().Snapshot())
				eval.Eval(store, now)
			}
		}()
		mux := obs.NewNodeMux(o.Registry(), health)
		mux.Handle(obs.CycleProfilePath, cycles.Handler())
		mux.Handle("/query", store.QueryHandler())
		mux.Handle("/dash", tsdb.DashHandler())
		mux.Handle("/alerts", eval.Handler())
		srv := &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "cosmic-node: http: %v\n", err)
			}
		}()
		fmt.Printf("cosmic-node: serving /metrics, /healthz, /query, /dash, /alerts, /debug/pprof/, and %s on %s\n",
			obs.CycleProfilePath, *httpAddr)
	}
	err := deploy.RunWorker(*join, deploy.WorkerOptions{
		Obs:           o,
		Logger:        logger,
		ChunkWords:    *chunkWords,
		HTTPAddr:      *httpAddr,
		Reconnect:     *reconnect,
		ReconnectWait: *reconnectWait,
		OnNode: func(n *runtime.Node) {
			if ae, ok := n.Engine().(*runtime.AccelEngine); ok {
				cycles.Set(ae.CycleProfile)
			}
			// Alert transitions land in the node's flight recorder next to
			// its wire events, so a diag bundle carries alert context.
			eval.SetFlight(n.Flight())
			if health == nil {
				return
			}
			id := n.Health()
			health.SetReady(
				map[string]any{"node": id.ID, "role": id.Role, "group": id.Group},
				func() map[string]any {
					h := n.Health()
					return map[string]any{
						"last_round_seq":     h.LastSeq,
						"ring_depth":         h.RingDepth,
						"flight_depth":       h.FlightDepth,
						"last_round_seconds": h.LastRoundSeconds,
					}
				})
		},
	})
	if stopSampler != nil {
		close(stopSampler)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-node: %v\n", err)
		os.Exit(1)
	}
	if err := o.WriteTraceFile(*tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "cosmic-node: trace: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		fmt.Printf("cosmic-node: trace written to %s\n", *tracePath)
	}
	fmt.Println("cosmic-node: training complete, shutting down")
}
