package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"

	"repro/internal/obs/profile"
)

// Handler serves the registry in Prometheus text exposition format — the
// body GET /metrics returns. A nil registry serves an empty exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // best-effort over a dying socket
	})
}

// NewHTTPMux builds the live-telemetry mux a long-running process exposes:
// metrics (a registry's or a federation's Handler) as /metrics plus the
// net/http/pprof profiling endpoints under /debug/pprof/.
func NewHTTPMux(metrics http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewNodeMux is NewHTTPMux plus the node's /healthz endpoint.
func NewNodeMux(metrics http.Handler, h *Health) *http.ServeMux {
	mux := NewHTTPMux(metrics)
	mux.Handle("/healthz", h.Handler())
	return mux
}

// CycleProfilePath is the endpoint cosmic-prof scrapes for simulated-cycle
// profiles, next to Go's own /debug/pprof/profile for wall-clock CPU.
const CycleProfilePath = "/debug/cosmic/cycles"

// ProfileSource serves cycle profiles over HTTP. The provider is installed
// once the simulator exists (a node builds its engine lazily on first
// configuration), so the handler answers 503 until then. All methods are
// nil-safe.
type ProfileSource struct {
	mu sync.Mutex
	fn func() (*profile.Raw, error)
}

// NewProfileSource creates an empty (503-serving) source.
func NewProfileSource() *ProfileSource { return &ProfileSource{} }

// Set installs the profile provider.
func (s *ProfileSource) Set(fn func() (*profile.Raw, error)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Handler serves the provider's current profile as .pb.gz: 503 before Set,
// 500 when the provider fails (e.g. no batches simulated yet).
func (s *ProfileSource) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var fn func() (*profile.Raw, error)
		if s != nil {
			s.mu.Lock()
			fn = s.fn
			s.mu.Unlock()
		}
		if fn == nil {
			http.Error(w, "cycle profiling not configured", http.StatusServiceUnavailable)
			return
		}
		raw, err := fn()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="cycles.pb.gz"`)
		raw.Write(w) //nolint:errcheck // best-effort over a dying socket
	})
}

// Health is a node's /healthz state: 503 with {"status":"starting"} until
// the Director configures the node, then 200 with the node's static
// identity (role, group) merged with a live probe (last-round seq, ring
// depth) sampled per request. All methods are nil-safe.
type Health struct {
	mu     sync.Mutex
	ready  bool
	static map[string]any
	probe  func() map[string]any
}

// NewHealth creates an unconfigured (not-ready) health state.
func NewHealth() *Health { return &Health{} }

// SetReady marks the node configured: static holds identity fields, probe
// (optional) supplies live fields per request.
func (h *Health) SetReady(static map[string]any, probe func() map[string]any) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ready = true
	h.static = static
	h.probe = probe
	h.mu.Unlock()
}

// Snapshot returns readiness and the merged health document, which always
// carries the binary's build identity under "build".
func (h *Health) Snapshot() (bool, map[string]any) {
	if h == nil {
		return false, nil
	}
	h.mu.Lock()
	ready, probe := h.ready, h.probe
	doc := map[string]any{}
	for k, v := range h.static {
		doc[k] = v
	}
	h.mu.Unlock()
	if !ready {
		return false, nil
	}
	doc["build"] = BuildInfo()
	if probe != nil {
		for k, v := range probe() {
			doc[k] = v
		}
	}
	return true, doc
}

var (
	buildInfoOnce sync.Once
	buildInfoDoc  map[string]string
)

// BuildInfo returns the binary's build identity from the embedded
// runtime/debug build information: Go toolchain version, main module path
// and version, and — when built from a checkout — the VCS revision, commit
// time, and dirty flag. Computed once; the returned map must not be
// mutated.
func BuildInfo() map[string]string {
	buildInfoOnce.Do(func() {
		buildInfoDoc = map[string]string{}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfoDoc["go"] = bi.GoVersion
		buildInfoDoc["module"] = bi.Main.Path
		if bi.Main.Version != "" {
			buildInfoDoc["version"] = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfoDoc["revision"] = s.Value
			case "vcs.time":
				buildInfoDoc["vcs_time"] = s.Value
			case "vcs.modified":
				buildInfoDoc["dirty"] = s.Value
			}
		}
	})
	return buildInfoDoc
}

// Handler serves /healthz: 503 until SetReady, then the JSON document.
func (h *Health) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ready, doc := h.Snapshot()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"starting"}`)
			return
		}
		doc["status"] = "ok"
		blob, err := json.Marshal(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(blob, '\n')) //nolint:errcheck // best-effort
	})
}
