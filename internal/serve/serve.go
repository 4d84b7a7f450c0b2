package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/experiments"
	"mlpa/internal/multilevel"
	"mlpa/internal/obs"
	"mlpa/internal/parallel"
	"mlpa/internal/pipeline"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
	"mlpa/internal/smarts"
	"mlpa/internal/staticanalysis"
)

// Cache bounds, in entries; the oldest entry is evicted first.
const (
	// maxCachedResults bounds the response cache.
	maxCachedResults = 1024
	// maxCachedPrograms bounds the program registry.
	maxCachedPrograms = 64
	// maxCachedPlans bounds the plan cache. A plan is a few kilobytes
	// of points, and one entry saves a whole selection: profiling plus
	// every k-means restart.
	maxCachedPlans = 1024
	// maxCachedCkptSets bounds the checkpoint-set cache. One entry holds
	// a whole plan's portable checkpoints — the fast-forward work every
	// config evaluation of that plan would otherwise re-pay.
	maxCachedCkptSets = 64
)

// Options configures a Server. The zero value is usable: every field
// has a production default.
type Options struct {
	// Obs supplies metrics, tracing and progress. Nil creates a
	// standalone runtime (metrics still served on /metrics).
	Obs *obs.Runtime

	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64

	// MaxProgramInsts bounds the admission probe: guests that do not
	// halt within this many instructions are rejected with 422
	// budget_exceeded before any profiling or simulation is spent on
	// them (default 1<<30).
	MaxProgramInsts uint64

	// MaxProgramCode bounds the static instruction count of submitted
	// assembly (default 1<<16). Static analysis cost grows superlinearly
	// on adversarial control flow, so size is policed before analysis.
	MaxProgramCode int

	// RequestTimeout bounds each computation and each wait on a
	// coalesced in-flight computation (default 2 minutes).
	RequestTimeout time.Duration

	// MaxConcurrent caps pipeline executions across all requests via a
	// shared admission pool (default GOMAXPROCS).
	MaxConcurrent int

	// RequestWorkers is the parallel worker count each admitted
	// execution uses (default 1). Results are bit-identical for any
	// value — the repo-wide determinism contract.
	RequestWorkers int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxProgramInsts == 0 {
		o.MaxProgramInsts = 1 << 30
	}
	if o.MaxProgramCode == 0 {
		o.MaxProgramCode = 1 << 16
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.RequestWorkers <= 0 {
		o.RequestWorkers = 1
	}
	return o
}

// Server is the sampling-as-a-service daemon. Create with New, mount
// Handler (or Start a listener), and Shutdown to drain.
type Server struct {
	opts     Options
	rt       *obs.Runtime
	reg      *obs.Registry
	pool     *parallel.Pool
	results  *flightCache[[]byte]
	programs *programCache
	plans    *flightCache[*sampling.Plan]
	ckpts    *flightCache[*ckpt.Set]

	gate *gate

	// baseCtx parents every computation, decoupled from any single
	// request: a coalesced computation must survive its leader's
	// disconnect because other waiters share its result.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	muxOnce sync.Once
	mux     *http.ServeMux

	httpMu  sync.Mutex
	httpSrv *http.Server
	addr    net.Addr
	serveCh chan error

	// testHookComputeStart, when set, runs at the start of every
	// cache-miss computation. Tests use it to hold computations open
	// while asserting coalescing and drain behaviour.
	testHookComputeStart func(endpoint string)

	// testHookSelect, when set, runs at the start of every plan-cache
	// selection, and a non-nil error fails that selection. Tests use it
	// to hold a selection open and to inject a failed one.
	testHookSelect func(method string) error
}

// New creates a Server with o applied over defaults.
func New(o Options) *Server {
	o = o.withDefaults()
	rt := o.Obs
	if rt == nil {
		rt = obs.New(nil)
	}
	reg := rt.Metrics()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:       o,
		rt:         rt,
		reg:        reg,
		pool:       parallel.NewPool(o.MaxConcurrent, reg),
		results:    newResultCache(maxCachedResults, reg),
		programs:   newProgramCache(maxCachedPrograms, o.MaxProgramCode, reg),
		plans:      newPlanCache(maxCachedPlans, reg),
		ckpts:      newCkptCache(maxCachedCkptSets, reg),
		gate:       newGate(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

// Handler returns the daemon's mux: the /v1 API, /healthz, and the obs
// telemetry routes (/metrics, /progress, pprof).
func (s *Server) Handler() http.Handler {
	s.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) { s.handle("analyze", w, r) })
		mux.HandleFunc("/v1/plan", func(w http.ResponseWriter, r *http.Request) { s.handle("plan", w, r) })
		mux.HandleFunc("/v1/estimate", func(w http.ResponseWriter, r *http.Request) { s.handle("estimate", w, r) })
		mux.HandleFunc("/healthz", s.handleHealth)
		obs.Mount(mux, s.rt)
		mux.HandleFunc("/", s.handleIndex)
		s.mux = mux
	})
	return s.mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		s.writeError(w, &apiError{Status: http.StatusNotFound, Code: codeNotFound,
			Message: fmt.Sprintf("no route %s (see docs/SERVICE.md)", r.URL.Path)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "mlpa sampling service\n\nPOST /v1/analyze\nPOST /v1/plan\nPOST /v1/estimate\nGET  /healthz\nGET  /metrics\nGET  /progress\n")
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.gate.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"draining\"}\n")
		return
	}
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handle is the shared /v1 endpoint handler: admission, decoding,
// program resolution, single-flight cached computation, reply.
func (s *Server) handle(endpoint string, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("serve.requests").Inc()
	defer func() {
		s.reg.Histogram("serve." + endpoint + ".seconds").Observe(time.Since(start).Seconds())
	}()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Code: codeBadMethod,
			Message: fmt.Sprintf("%s requires POST, got %s", r.URL.Path, r.Method)})
		return
	}
	// Drain gate: a request either enters before the drain begins and
	// is then guaranteed to complete, or is refused outright.
	if !s.gate.enter() {
		s.writeError(w, &apiError{Status: http.StatusServiceUnavailable, Code: codeDraining,
			Message: "server is draining; retry against another instance"})
		return
	}
	defer s.gate.exit()

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, &apiError{Status: http.StatusRequestEntityTooLarge, Code: codeTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", s.opts.MaxBodyBytes)})
			return
		}
		s.writeError(w, badRequest(codeBadJSON, "reading request body: %v", err))
		return
	}
	req, ae := decodeRequest(data)
	if ae != nil {
		s.writeError(w, ae)
		return
	}
	entry, ae := s.programs.resolve(req)
	if ae != nil {
		s.writeError(w, ae)
		return
	}

	// The wait context bounds this caller only; the computation itself
	// runs under the server's base context (see compute).
	waitCtx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	key := keyFor(endpoint, entry.hash, req).hash()
	// ckptDisp is a side channel out of the computation closure: when
	// this request is the leader of an estimate computation, it reports
	// whether the plan's checkpoint set was built or reused. Coalesced
	// and replayed requests did no checkpoint work, so they carry no
	// X-Mlpa-Ckpt header.
	var ckptDisp string
	body, disp, err := s.results.get(waitCtx, key, func() ([]byte, error) {
		b, ae := s.compute(endpoint, entry, req, &ckptDisp)
		if ae != nil {
			return nil, ae
		}
		return b, nil // a nil error interface, not a typed nil *apiError
	})
	if err != nil {
		s.writeError(w, asAPIError(err))
		return
	}
	s.reg.Counter("serve.responses.ok").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mlpa-Cache", disp)
	if disp == dispMiss && ckptDisp != "" {
		w.Header().Set("X-Mlpa-Ckpt", ckptDisp)
	}
	w.Write(body)
}

// compute executes one cache miss end to end. It runs inside the
// leader request's goroutine but under the server's base context, so
// coalesced waiters are not aborted by the leader hanging up.
func (s *Server) compute(endpoint string, e *programEntry, req Request, ckptDisp *string) ([]byte, *apiError) {
	if s.testHookComputeStart != nil {
		s.testHookComputeStart(endpoint)
	}
	if endpoint == "analyze" {
		// Purely static: no guest execution, no pool slot needed.
		return s.computeAnalyze(e)
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.RequestTimeout)
	defer cancel()
	if err := s.pool.Acquire(ctx); err != nil {
		return nil, asAPIError(err)
	}
	defer s.pool.Release()
	switch endpoint {
	case "plan":
		return s.computePlan(ctx, e, req)
	case "estimate":
		return s.computeEstimate(ctx, e, req, ckptDisp)
	}
	return nil, &apiError{Status: http.StatusInternalServerError, Code: codeInternal,
		Message: "unknown endpoint " + endpoint}
}

func (s *Server) programInfo(e *programEntry) ProgramInfo {
	return ProgramInfo{
		Name:         e.prog.Name,
		Hash:         e.hash,
		Instructions: len(e.prog.Code),
		BasicBlocks:  e.prog.NumBlocks(),
		DataSize:     e.prog.DataSize,
	}
}

func (s *Server) computeAnalyze(e *programEntry) ([]byte, *apiError) {
	a := staticanalysis.Analyze(e.prog)
	if !a.Report.OK() {
		return nil, &apiError{Status: http.StatusUnprocessableEntity, Code: codeUnverifiable,
			Message: a.Report.Err().Error()}
	}
	resp := AnalyzeResponse{Program: s.programInfo(e), Verified: true}
	for _, l := range a.Loops.Loops {
		resp.Loops = append(resp.Loops, LoopInfo{Head: l.Head, Depth: l.Depth, Blocks: len(l.Blocks)})
		if l.Depth+1 > resp.MaxDepth {
			resp.MaxDepth = l.Depth + 1
		}
	}
	b, err := marshalBody(resp)
	if err != nil {
		return nil, asAPIError(err)
	}
	return b, nil
}

// selectFor probes the program and returns the request's plan, the one
// both /v1/plan and /v1/estimate execute, from the plan cache.
func (s *Server) selectFor(ctx context.Context, e *programEntry, req Request) (*sampling.Plan, uint64, uint64, *apiError) {
	total, ae := e.measuredLength(s.opts.MaxProgramInsts)
	if ae != nil {
		return nil, 0, 0, ae
	}
	interval := intervalFor(req, total)
	plan, err := s.cachedPlan(ctx, e, req, interval)
	if err != nil {
		return nil, 0, 0, asAPIError(err)
	}
	return plan, total, interval, nil
}

// cachedPlan returns the request's plan, selecting it at most once per
// plan identity (planKey). A plan depends on the program and the
// selection policy, never on the config, so a plan request and the
// estimates under every config share one selection. Selection is
// deterministic and plans are read-only downstream, so the cache can
// only change wall time.
func (s *Server) cachedPlan(ctx context.Context, e *programEntry, req Request, interval uint64) (*sampling.Plan, error) {
	plan, _, err := s.plans.get(ctx, planKey(e.hash, req), func() (*sampling.Plan, error) {
		if s.testHookSelect != nil {
			if err := s.testHookSelect(req.Method); err != nil {
				return nil, err
			}
		}
		return s.selectPlan(ctx, e, req, interval)
	})
	return plan, err
}

func (s *Server) computePlan(ctx context.Context, e *programEntry, req Request) ([]byte, *apiError) {
	plan, total, interval, ae := s.selectFor(ctx, e, req)
	if ae != nil {
		return nil, ae
	}
	resp := PlanResponse{
		Program:         s.programInfo(e),
		Benchmark:       plan.Benchmark,
		Method:          plan.Method,
		TotalInsts:      total,
		IntervalLen:     interval,
		Points:          make([]PointJSON, len(plan.Points)),
		DetailedInsts:   plan.DetailedInsts(),
		FunctionalInsts: plan.FunctionalInsts(),
		DetailedFrac:    plan.DetailedFraction(),
		LastPosition:    plan.LastPosition(),
	}
	for i, pt := range plan.Points {
		resp.Points[i] = PointJSON{Start: pt.Start, End: pt.End, Weight: pt.Weight, Level: pt.Level}
	}
	b, err := marshalBody(resp)
	if err != nil {
		return nil, asAPIError(err)
	}
	return b, nil
}

func (s *Server) computeEstimate(ctx context.Context, e *programEntry, req Request, ckptDisp *string) ([]byte, *apiError) {
	plan, _, _, ae := s.selectFor(ctx, e, req)
	if ae != nil {
		return nil, ae
	}
	cfg, err := config.ByName(req.Config)
	if err != nil {
		return nil, badRequest(codeBadField, "%v", err)
	}
	// The checkpoint set depends on the plan, never on the config, so
	// it shares the plan's key: a repeat estimate under a new config
	// reuses the set and skips fast-forward entirely. Results are
	// bit-identical either way (the pipeline's differential harness),
	// so the cache can only change wall time.
	set, disp, err := s.ckpts.get(ctx, planKey(e.hash, req), func() (*ckpt.Set, error) {
		return pipeline.BuildCheckpointSet(e.prog, plan, s.execOptions(ctx))
	})
	if err != nil {
		return nil, asAPIError(err)
	}
	*ckptDisp = ckptReuse
	if disp == dispMiss {
		*ckptDisp = ckptBuild
	}
	s.reg.Counter("serve.executions").Inc()
	opts := s.execOptions(ctx)
	opts.Checkpoints = set
	est, err := pipeline.ExecutePlan(e.prog, plan, cfg, opts)
	if err != nil {
		return nil, asAPIError(err)
	}
	b, err := marshalBody(encodeEstimate(s.programInfo(e), req.Config, est))
	if err != nil {
		return nil, asAPIError(err)
	}
	return b, nil
}

// execOptions is the server's fixed execution policy, the harness's
// finite one (experiments.CheckpointExec), which lets checkpoint sets
// replace fast-forward. Everything that can influence result bits is
// that policy or a server-lifetime option, never per-request, so
// cached replays stay byte-identical with fresh executions.
func (s *Server) execOptions(ctx context.Context) pipeline.ExecOptions {
	opts := experiments.CheckpointExec()
	opts.Workers, opts.Ctx, opts.Obs = s.opts.RequestWorkers, ctx, s.rt
	return opts
}

// intervalFor picks the fine interval length: an explicit override, the
// suite scale's published interval, or 1/100 of the measured dynamic
// length for custom programs — clamped into [1, total].
func intervalFor(req Request, total uint64) uint64 {
	iv := req.IntervalLen
	if iv == 0 {
		if req.Benchmark != "" {
			size, err := bench.ParseSize(req.Size)
			if err == nil {
				iv = bench.FineInterval(size)
			}
		} else {
			iv = total / 100
			if iv < 1000 {
				iv = 1000
			}
		}
	}
	if iv > total {
		iv = total
	}
	if iv == 0 {
		iv = 1
	}
	return iv
}

// selectPlan runs the request's method selection under the harness's
// policy at the request's seed.
func (s *Server) selectPlan(ctx context.Context, e *programEntry, req Request, interval uint64) (*sampling.Plan, error) {
	p := e.prog
	fine := experiments.FineConfig(interval, req.Seed, s.rt)
	switch req.Method {
	case coasts.MethodName:
		plan, _, _, err := coasts.Select(p, coasts.Config{Kmax: experiments.CoarseKmax, Seed: req.Seed, Obs: s.rt})
		return plan, err
	case simpoint.MethodName:
		plan, _, _, err := simpoint.Select(p, fine)
		return plan, err
	case multilevel.MethodName:
		// The first level is the program's COASTS plan, shared with
		// coasts requests through the plan cache, as Table II shares it
		// (experiments.NewStudy).
		coarseReq := req
		coarseReq.Method = coasts.MethodName
		co, err := s.cachedPlan(ctx, e, coarseReq, interval)
		if err != nil {
			return nil, fmt.Errorf("multilevel: first level: %w", err)
		}
		plan, _, err := multilevel.Resample(p, co, multilevel.Config{Fine: fine, Obs: s.rt})
		return plan, err
	case smarts.MethodName:
		plan, err := smarts.Select(p, smarts.Config{UnitLen: interval, Period: interval * 25})
		return plan, err
	}
	return nil, badRequest(codeBadField, "unknown method %q", req.Method)
}

func (s *Server) writeError(w http.ResponseWriter, ae *apiError) {
	s.reg.Counter("serve.errors").Inc()
	s.reg.Counter("serve.errors." + ae.Code).Inc()
	b, err := marshalBody(errorBody{Error: ae})
	if err != nil {
		// Unreachable for a struct of strings; degrade to plain text.
		http.Error(w, ae.Message, ae.Status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	w.Write(b)
}

// BeginDrain flips the server into draining mode: requests already
// admitted run to completion, new API requests are refused with 503
// {"code":"draining"}, and telemetry routes stay up.
func (s *Server) BeginDrain() { s.gate.drain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.gate.isDraining() }

// InFlight returns the number of admitted API requests still running.
func (s *Server) InFlight() int { return s.gate.inFlight() }

// Start listens on addr and serves the daemon in the background. The
// bound address is available from Addr (useful with ":0").
func (s *Server) Start(addr string) error {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.httpSrv != nil {
		return errors.New("serve: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.httpSrv = srv
	s.addr = ln.Addr()
	s.serveCh = make(chan error, 1)
	go func() { s.serveCh <- srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address, or nil before Start.
func (s *Server) Addr() net.Addr {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	return s.addr
}

// Shutdown drains and stops the server: it refuses new API requests,
// waits for every admitted request to complete (bounded by ctx), then
// closes the listener. On ctx expiry, remaining computations are
// cancelled via the server's base context and ctx.Err() is returned —
// the only path on which an accepted request can be cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.drain()
	select {
	case <-s.gate.drained():
	case <-ctx.Done():
		s.baseCancel()
		return ctx.Err()
	}
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
		if serveErr := <-s.serveCh; serveErr != nil && serveErr != http.ErrServerClosed && err == nil {
			err = serveErr
		}
	}
	s.baseCancel()
	return err
}

// gate tracks in-flight API requests and implements the drain
// handshake without WaitGroup add/wait races: entry is atomic with the
// draining check, so every admitted request is awaited and every
// refused request never starts.
type gate struct {
	mu       sync.Mutex
	draining bool
	n        int
	idle     chan struct{}
	closed   bool
}

func newGate() *gate { return &gate{idle: make(chan struct{})} }

// enter admits one request, returning false when draining.
func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *gate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	g.maybeCloseLocked()
}

// drain flips to draining mode; idempotent.
func (g *gate) drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	g.maybeCloseLocked()
}

// drained returns a channel closed once draining has begun and the
// last admitted request has exited.
func (g *gate) drained() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.idle
}

func (g *gate) maybeCloseLocked() {
	if g.draining && g.n == 0 && !g.closed {
		g.closed = true
		close(g.idle)
	}
}

func (g *gate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

func (g *gate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}
