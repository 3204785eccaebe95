// Package live is the runtime observability plane: an HTTP exposition
// server any experiment, benchmark, or future node process can switch
// on to watch a *running* system instead of reading post-hoc trace
// dumps. The paper's complaint is that ordered substrates hide their
// costs inside the communication layer; this package puts those costs
// on ports:
//
//	/metrics      Prometheus text exposition of the obs.Registry
//	/healthz      liveness probe (200 "ok", or the Health callback)
//	/statusz      latest published obs.Status snapshots — holdback
//	              depth, admission-window occupancy, parked casts,
//	              stability laggard, WAL spill bytes, view epoch
//	/tracez       last K sampled message lifecycles from a sampled
//	              obs.Tracer (send→recv→holdback→deliver→stabilize)
//	/debug/pprof  net/http/pprof profiling endpoints
//
// Status flows by *publication*, not by pulling: the simulation world
// is single-threaded, so the HTTP goroutine must never call into live
// substrate objects. Instead the run calls PublishStatus from kernel
// context (a periodic k.At loop, or wherever it already samples
// metrics); the server keeps the latest batch under its own lock and
// mirrors it into the registry, which is how /metrics grows gauges and
// histograms for level-style quantities. Tracers and registries are
// internally synchronized, so those are read directly.
package live

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"catocs/internal/obs"
)

// Options configures a Server. All fields are optional: a zero
// Options serves a /healthz and empty /metrics, which is still useful
// as a liveness endpoint.
type Options struct {
	// Registry is rendered at /metrics.
	Registry *obs.Registry
	// Tracer backs /tracez; sampled lifecycles render there when it is
	// a sampled tracer (obs.NewSampledTracer).
	Tracer *obs.Tracer
	// Health, when set, decides /healthz: nil return is 200 "ok", an
	// error is 503 with the error text.
	Health func() error
}

// Server is one exposition endpoint bound to a listener.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server

	mu       sync.Mutex
	statuses []obs.Status
	pubAt    time.Time
	pubs     uint64
}

// Serve binds addr (use "127.0.0.1:0" for an ephemeral port) and
// starts serving in a background goroutine. Close shuts it down.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs/live: %w", err)
	}
	s := &Server{opts: opts, ln: ln}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:43571".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

// PublishStatus replaces the /statusz snapshot with a new batch and
// mirrors its numeric fields into the registry (obs.MirrorStatus).
// Call it from the context that owns the components — the sim kernel's
// sampling loop, or a live node's housekeeping tick.
func (s *Server) PublishStatus(sts []obs.Status) {
	obs.MirrorStatus(s.opts.Registry, sts)
	s.mu.Lock()
	s.statuses = append(s.statuses[:0], sts...)
	s.pubAt = time.Now()
	s.pubs++
	s.mu.Unlock()
}

// Handler returns the route table, for tests and for embedding the
// plane into an existing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "catocs live observability plane\n\n"+
		"/metrics      Prometheus exposition\n"+
		"/healthz      liveness\n"+
		"/statusz      introspection snapshot\n"+
		"/tracez       sampled message lifecycles\n"+
		"/debug/pprof  profiling\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.opts.Registry.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to do but log-by-status.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.opts.Health != nil {
		if err := s.opts.Health(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
	}
	fmt.Fprint(w, "ok\n")
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sts := append([]obs.Status(nil), s.statuses...)
	pubAt, pubs := s.pubAt, s.pubs
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if pubs == 0 {
		fmt.Fprint(w, "no status published yet\n")
		return
	}
	fmt.Fprintf(w, "published %s (batch %d)\n\n",
		pubAt.UTC().Format(time.RFC3339), pubs)
	fmt.Fprint(w, obs.RenderStatus(sts))
}

func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t := s.opts.Tracer
	switch {
	case t == nil:
		fmt.Fprint(w, "tracing disabled\n")
	case !t.Sampling():
		fmt.Fprintf(w, "full (unsampled) tracer attached: %d events recorded; "+
			"/tracez renders sampled tracers only\n", t.Len())
	default:
		sampled, evicted := t.SampleStats()
		fmt.Fprintf(w, "sampled %d message lifecycles, %d evicted from ring\n\n",
			sampled, evicted)
		fmt.Fprint(w, obs.RenderLifecycles(t.Labels(), t.SampledLifecycles()))
	}
}
