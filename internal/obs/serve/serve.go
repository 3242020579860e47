// Package serve exposes a running sweep's observability state over HTTP:
// a read-only exposition server mounted behind `gmap-eval -serve` and
// `gmap-sim -serve`. Endpoints:
//
//	/metrics       Prometheus text rendered from a Registry snapshot
//	/metrics.json  the full registry snapshot as JSON (lossless, unlike
//	               the prom text; the encoding fleet workers push)
//	/progress      JSON mirror of the execution engine's live stats
//	/trace         the span log as a JSONL event stream
//	/trace/chrome  the span log as Chrome trace-event JSON (Perfetto)
//	/healthz       liveness: 200 whenever the process serves at all
//	/readyz        readiness: 200, or 503 with the Ready error's text
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Every handler snapshots on request — nothing holds locks between
// requests and nothing mutates pipeline state — so the server can never
// perturb a simulation result. The server shuts down cleanly when the
// context passed to Start is cancelled.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	httpserve "github.com/uteda/gmap/internal/serve"
)

// Options configures the exposition server.
type Options struct {
	// Addr is the listen address (e.g. ":9300" or "127.0.0.1:0").
	Addr string
	// Registry backs /metrics; nil serves an empty exposition.
	Registry *obs.Registry
	// Tracer backs /trace; nil serves an empty stream.
	Tracer *obstrace.Tracer
	// Progress, when non-nil, supplies the object served as /progress
	// JSON. It is called per request and must be safe for concurrent use.
	Progress func() interface{}
	// Ready, when non-nil, backs /readyz: a nil return answers 200, an
	// error answers 503 with the error text. Nil Ready means
	// always-ready (liveness and readiness coincide). Called per
	// request; must be safe for concurrent use.
	Ready func() error
}

// Server is a live exposition server. It is the shared serving core of
// internal/serve — the same listen/shutdown lifecycle backs the
// clone-and-simulate service (cmd/gmap-served).
type Server = httpserve.Server

// Handler builds the exposition mux for o. Exported separately so tests
// can drive it through httptest without binding a port.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "gmap exposition server\n\n"+
			"/metrics       Prometheus text\n"+
			"/metrics.json  registry snapshot JSON (lossless)\n"+
			"/progress      sweep progress JSON\n"+
			"/trace         span log (JSONL)\n"+
			"/trace/chrome  span log (Chrome trace JSON, load in Perfetto)\n"+
			"/healthz       liveness\n"+
			"/readyz        readiness\n"+
			"/debug/pprof/  Go profiling\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.Registry.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o.Ready != nil {
			if err := o.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v interface{}
		if o.Progress != nil {
			v = o.Progress()
		}
		if v == nil {
			v = struct{}{}
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := o.Tracer.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="gmap-trace.json"`)
		if err := o.Tracer.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Request-level latency/status instrumentation rides the same
	// registry the mux exposes; with no registry the mux is untouched.
	return httpserve.Instrument(o.Registry, "obs", mux)
}

// Start binds o.Addr and serves until ctx is cancelled (or Shutdown is
// called). It returns once the listener is bound, so Addr() is
// immediately routable — pass port :0 to get an ephemeral port and read
// the actually-bound one back from Addr().
func Start(ctx context.Context, o Options) (*Server, error) {
	return httpserve.Start(ctx, "obs serve", o.Addr, Handler(o))
}
