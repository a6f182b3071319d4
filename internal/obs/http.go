package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// MuxOptions configures the shared metrics/health HTTP wiring every
// ProvLight daemon mounts: on its stats listener, or on its API mux
// (dfanalyzer-server).
type MuxOptions struct {
	// Registry backs GET /metrics (Prometheus text exposition). Nil
	// omits the endpoint.
	Registry *Registry
	// Ready, when set, backs GET /readyz: nil error is ready (200),
	// non-nil is not (503, message in the body). Omitted when nil —
	// /healthz (pure liveness) is always mounted.
	Ready func() error
	// PProf mounts net/http/pprof under /debug/pprof/ (opt-in: profiling
	// endpoints expose heap contents and must not be on by default).
	PProf bool
}

// Attach mounts the selected endpoints on mux. Daemons with their own
// API mux (dfanalyzer-server) call this directly; standalone stats
// listeners use NewMux.
func Attach(mux *http.ServeMux, o MuxOptions) {
	if r := o.Registry; r != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = r.WriteTo(w)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}` + "\n"))
	})
	if ready := o.Ready; ready != nil {
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": err.Error()})
				return
			}
			_, _ = w.Write([]byte(`{"ready":true}` + "\n"))
		})
	}
	if o.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// NewMux returns a fresh mux with the selected endpoints mounted.
func NewMux(o MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	Attach(mux, o)
	return mux
}

// Serve binds listen and serves mux on it in the background. The bind
// happens synchronously so misconfiguration fails at startup, not in a
// goroutine's log line. Returns the bound address and a stop func.
func Serve(listen string, mux http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
