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
// The node runs the Director's telemetry plane: every -scrape-interval it
// samples its registry into a local TSDB and evaluates the -alerts rules,
// which log as they fire, -http or not. -http (bound before joining; a bind
// failure is fatal) serves /metrics, /healthz (503 until configured),
// /query, /dash, /alerts, /debug/pprof/, and /debug/cosmic/cycles (the
// simulated-cycle profile under cosmic-run -simulate, 503 otherwise). The
// bound address is advertised to the Director, so `cosmic-prof -cluster
// <director-http>` can discover and scrape every node in one command.
//
// -trace writes the node's Chrome trace-event JSON on exit; merge the
// per-node files with cosmic-trace into one cluster timeline.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/deploy"
	"repro/internal/obs"
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
	opts := deploy.WorkerOptions{
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
		ChunkWords:    *chunkWords,
		Telemetry:     deploy.Telemetry{HTTPAddr: *httpAddr, ScrapeInterval: *scrapeInterval, Retention: *retention},
		Reconnect:     *reconnect,
		ReconnectWait: *reconnectWait,
	}
	if err := opts.LoadAlertRules(*alertsFile); err != nil {
		fatal(err)
	}
	if *httpAddr != "" || *tracePath != "" || *alertsFile != "" {
		opts.Obs = obs.New()
	}
	if err := deploy.RunWorker(*join, opts); err != nil {
		fatal(err)
	}
	if err := opts.Obs.WriteTraceFile(*tracePath); err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}
	if *tracePath != "" {
		fmt.Printf("cosmic-node: trace written to %s\n", *tracePath)
	}
	fmt.Println("cosmic-node: training complete, shutting down")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cosmic-node: %v\n", err)
	os.Exit(1)
}
