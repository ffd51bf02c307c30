package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is the /healthz payload. OK=false answers with HTTP 503, so
// orchestration probes observe cluster degradation (killed satellite
// servers) directly.
type Health struct {
	OK bool `json:"ok"`
	// Live counts healthy serving backends (cluster cache servers).
	Live int `json:"live"`
	// Down lists degraded backends (killed, not yet revived satellites).
	Down []string `json:"down,omitempty"`
	// Note carries free-form state ("replaying", "idle", ...).
	Note string `json:"note,omitempty"`
	// Shed is the active overload-control stage ("stage-0" .. "stage-3")
	// when a shed controller is wired in; empty otherwise. Shedding does
	// not flip OK — it is the system protecting itself, not an outage.
	Shed string `json:"shed,omitempty"`
	// Runtime is the compact runtime-bridge line (goroutines, heap bytes,
	// last GC pause, sched latency), filled from ServeOptions.Runtime when
	// the health source leaves it empty.
	Runtime string `json:"runtime,omitempty"`
}

// HealthFunc reports the current health snapshot; nil means always-OK.
type HealthFunc func() Health

// Server is the opt-in observability HTTP listener. It mounts:
//
//	/metrics          Prometheus text exposition
//	/metrics.json     expvar-style JSON exposition; top-K and quantile-sketch
//	                  series carry their full keyed entries and exemplars
//	/timeseries.json  flight-recorder queries (with ServeOptions.Recorder)
//	/healthz          Health JSON (503 when not OK)
//	/debug/pprof/*    net/http/pprof (profile, heap, trace, ...)
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeOptions configures the observability listener beyond the basic
// registry + health pair.
type ServeOptions struct {
	Registry *Registry
	Health   HealthFunc
	// Recorder, when non-nil, additionally mounts /timeseries.json
	// (windowed raw/delta/rate queries against the flight recorder).
	Recorder *Recorder
	// Runtime, when non-nil, feeds the /healthz runtime line from the
	// runtime-metrics bridge.
	Runtime *RuntimeBridge
}

// ServeWith starts the observability listener on addr (host:port; port 0
// picks a free one). The registry may be nil, in which case /metrics
// expositions are empty but pprof and /healthz still work — profiling does
// not require metrics.
func ServeWith(addr string, opts ServeOptions) (*Server, error) {
	reg, health := opts.Registry, opts.Health
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A client hanging up mid-scrape surfaces as a write error here;
		// there is nothing useful to do with it.
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := Health{OK: true}
		if health != nil {
			h = health()
		}
		if h.Runtime == "" {
			h.Runtime = opts.Runtime.HealthLine()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	if opts.Recorder != nil {
		mux.HandleFunc("/timeseries.json", opts.Recorder.handleTimeseries)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler: mux,
			// Scrapes and profiles are short-lived; generous but bounded.
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() {
		// ErrServerClosed (and any accept error after Close) is the normal
		// shutdown path for an opt-in debug listener.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and severs open scrape connections.
func (s *Server) Close() error { return s.srv.Close() }
