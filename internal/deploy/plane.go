package deploy

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/runtime"
)

// Telemetry configures the telemetry plane the Director and every worker
// run: a tick that folds the node's metrics (the Director's federates every
// worker's) into an in-memory TSDB and evaluates alert rules against it.
type Telemetry struct {
	// HTTPAddr, when set, serves /metrics, /healthz, /debug/pprof/, /query,
	// /dash, /alerts and the cycle profile, plus /cluster on the Director.
	// It is bound before the node joins; the roster advertises the bound
	// address.
	HTTPAddr string
	// ScrapeInterval is the tick (0 = 250ms).
	ScrapeInterval time.Duration
	// Retention bounds the TSDB's raw samples (0 = 15m); older ones fold
	// into a minute-averaged tier.
	Retention time.Duration
	// AlertRules run every tick, after tsdb.DefaultClusterRules on the
	// Director. Firing alerts surface on /alerts, the cosmic_alert_firing
	// gauge, the log, and the node's flight recorder.
	AlertRules []tsdb.Rule
}

// LoadAlertRules sets AlertRules from a JSON rules file (none for "").
func (t *Telemetry) LoadAlertRules(path string) (err error) {
	if path != "" {
		t.AlertRules, err = tsdb.LoadRulesFile(path)
	}
	return err
}

type plane struct {
	store    *tsdb.Store
	eval     *tsdb.Evaluator
	health   *obs.Health
	cycles   *obs.ProfileSource
	mux      *http.ServeMux
	srv      *http.Server
	addr     string // bound HTTP address; empty when not serving
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// newPlane builds a plane serving metrics as /metrics, with the alert
// gauges in reg, and binds its listener; /healthz answers 503 until attach.
func newPlane(t Telemetry, reg *obs.Registry, metrics http.Handler, rules []tsdb.Rule, logger *slog.Logger) (*plane, error) {
	eval, err := tsdb.NewEvaluator(rules, reg, logger, nil)
	if err != nil {
		return nil, err
	}
	p := &plane{
		store:    tsdb.NewStore(tsdb.Options{Retention: t.Retention, Downsample: time.Minute}),
		eval:     eval,
		health:   obs.NewHealth(),
		cycles:   obs.NewProfileSource(),
		interval: t.ScrapeInterval,
	}
	if p.interval <= 0 {
		p.interval = 250 * time.Millisecond
	}
	p.mux = obs.NewNodeMux(metrics, p.health)
	p.mux.Handle("/query", p.store.QueryHandler())
	p.mux.Handle("/dash", tsdb.DashHandler())
	p.mux.Handle("/alerts", eval.Handler())
	p.mux.Handle(obs.CycleProfilePath, p.cycles.Handler())
	if t.HTTPAddr != "" {
		ln, err := net.Listen("tcp", t.HTTPAddr)
		if err != nil {
			return nil, fmt.Errorf("deploy: telemetry listener: %w", err)
		}
		p.addr = ln.Addr().String()
		p.srv = &http.Server{Handler: p.mux}
		go p.srv.Serve(ln) //nolint:errcheck // closed by close
		if logger != nil {
			logger.Info("telemetry plane serving", "addr", p.addr)
		}
	}
	return p, nil
}

// attach wires the configured node into /healthz and the cycle profile, and
// puts alert transitions in its flight recorder, so a diag bundle carries
// alert context.
func (p *plane) attach(n *runtime.Node) {
	if ae, ok := n.Engine().(*runtime.AccelEngine); ok {
		p.cycles.Set(ae.CycleProfile)
	}
	p.eval.SetFlight(n.Flight())
	id := n.Health()
	p.health.SetReady(
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
}

// start runs the tick, with collect's snapshot, until close.
func (p *plane) start(collect func() []obs.Sample) {
	stop, done := make(chan struct{}), make(chan struct{})
	p.stop, p.done = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			samples := collect()
			now := time.Now().UnixMilli()
			p.store.AppendSet(now, samples)
			p.eval.Eval(p.store, now)
		}
	}()
}

// close stops the tick, waiting out one in flight, and the server. It is
// idempotent.
func (p *plane) close() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	if p.srv != nil {
		p.srv.Close()
	}
}
