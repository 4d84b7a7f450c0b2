package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Mount registers the live-export telemetry routes on mux:
//
//	/metrics        metrics snapshot — Prometheus text by default,
//	                ?format=json for the JSON encoding, ?delta=1 for
//	                the change since this handler's previous ?delta
//	                scrape (counters and histogram count/sum)
//	/progress       per-stage completion as a JSON array of
//	                {name,total,done,frac}, first-registration order
//	/debug/pprof/*  the standard Go profiling endpoints
//
// The handlers only read atomic snapshots of the registry and progress
// tracker; serving them concurrently with a run never perturbs
// results. Nil-safe: on a nil runtime every endpoint serves empty
// data. Mount is how other sanctioned servers (internal/serve) export
// the same telemetry surface on their own mux; Handler wraps it with a
// plain-text index for the standalone diagnostics listener.
func Mount(mux *http.ServeMux, rt *Runtime) {
	var deltaMu sync.Mutex
	var deltaPrev Snapshot
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := rt.Metrics().Snapshot()
		if r.URL.Query().Get("delta") != "" {
			deltaMu.Lock()
			snap, deltaPrev = snap.DeltaSince(deltaPrev), snap
			deltaMu.Unlock()
		}
		write := writeProm
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if r.URL.Query().Get("format") == "json" {
			write = writeJSON
			w.Header().Set("Content-Type", "application/json")
		}
		if err := write(w, snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		stages := rt.Progress().Snapshot()
		if stages == nil {
			stages = []StageStatus{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stages); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the live-export mux for a run: the Mount routes plus
// a plain-text index at /.
func Handler(rt *Runtime) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, rt)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "mlpa live export\n\n/metrics\n/metrics?format=json\n/metrics?delta=1\n/progress\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running live-export listener started by Serve.
type Server struct {
	ln   net.Listener
	done chan struct{}
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and waits for the serve loop to exit.
// In-flight requests are not drained; this is a diagnostics endpoint,
// not a production API.
func (s *Server) Close() error {
	err := s.ln.Close()
	<-s.done
	return err
}

// Serve binds addr and serves Handler(rt) until Close. It is the
// repository's single sanctioned HTTP listener setup: everything that
// wants a diagnostics endpoint goes through it, so the surface stays
// uniform and the mlpalint http-listen rule can forbid ad-hoc
// listeners everywhere else.
func Serve(addr string, rt *Runtime) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s := &Server{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns with an error once the listener closes; that is
		// the normal shutdown path, so the error is discarded.
		_ = http.Serve(ln, Handler(rt))
	}()
	return s, nil
}
