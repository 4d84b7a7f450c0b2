package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpa/internal/config"
	"mlpa/internal/experiments"
	"mlpa/internal/obs"
	"mlpa/internal/pipeline"
)

// testAsm is the standing test guest: two loop phases with distinct
// instruction mixes (ALU-only, then memory-heavy), long enough to
// yield a multi-interval plan and short enough that estimates run in
// milliseconds.
const testAsm = `
; phase A: arithmetic loop
    addi r1, r0, 3000
loopA:
    addi r2, r2, 3
    addi r3, r3, 5
    addi r1, r1, -1
    bne  r1, r0, loopA
; phase B: memory loop
    addi r1, r0, 3000
loopB:
    ld   r4, (r5)
    st   r4, 8(r5)
    addi r5, r5, 16
    addi r1, r1, -1
    bne  r1, r0, loopB
    halt
`

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	if o.Obs == nil {
		o.Obs = obs.New(nil)
	}
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func asmBody(method string, seed int64) string {
	return fmt.Sprintf(`{"assembly": %q, "method": %q, "seed": %d}`, testAsm, method, seed)
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s = %d, want >= %d", name, reg.Counter(name).Value(), want)
}

// TestCoalescingIdenticalRequests is the tentpole concurrency test: N
// identical concurrent estimate requests produce byte-identical bodies
// and exactly one pipeline execution — one miss, N-1 coalesced — and a
// later identical request replays the cached bytes.
func TestCoalescingIdenticalRequests(t *testing.T) {
	const n = 8
	rt := obs.New(nil)
	s, ts := newTestServer(t, Options{Obs: rt, RequestWorkers: 2})

	// Gate the single expected computation open until every waiter has
	// registered, so coalescing is deterministic, not a lucky race.
	gate := make(chan struct{})
	started := make(chan string, n)
	s.testHookComputeStart = func(endpoint string) {
		started <- endpoint
		<-gate
	}

	body := asmBody("multilevel", 1)
	type result struct {
		status int
		disp   string
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := post(t, ts.URL+"/v1/estimate", body)
			results <- result{resp.StatusCode, resp.Header.Get("X-Mlpa-Cache"), b}
		}()
	}

	// Exactly one computation starts; the other n-1 requests must
	// register as coalesced waiters on it.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no computation started")
	}
	waitCounter(t, rt.Metrics(), "serve.cache.coalesced", n-1)
	select {
	case ep := <-started:
		t.Fatalf("second computation started (%s); identical requests must coalesce", ep)
	default:
	}
	close(gate)
	wg.Wait()
	close(results)

	var miss, coalesced int
	var first []byte
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status %d, body %s", r.status, r.body)
		}
		switch r.disp {
		case dispMiss:
			miss++
		case dispCoalesced:
			coalesced++
		default:
			t.Errorf("disposition %q, want miss or coalesced", r.disp)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Errorf("response bodies differ across coalesced requests")
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Errorf("dispositions: %d miss, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
	if got := rt.Metrics().Counter("serve.executions").Value(); got != 1 {
		t.Errorf("serve.executions = %d, want exactly 1 for %d identical requests", got, n)
	}

	// A later identical request is a pure cache hit: same bytes, still
	// one execution.
	s.testHookComputeStart = nil
	resp, b := post(t, ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mlpa-Cache") != dispHit {
		t.Fatalf("replay: status %d, disposition %q", resp.StatusCode, resp.Header.Get("X-Mlpa-Cache"))
	}
	if !bytes.Equal(first, b) {
		t.Errorf("cached replay differs from original body")
	}
	if got := rt.Metrics().Counter("serve.executions").Value(); got != 1 {
		t.Errorf("serve.executions = %d after replay, want 1", got)
	}
}

// TestConcurrentDistinctMatchSingleShot: distinct concurrent requests
// served with RequestWorkers > 1 through the server's shared caches are
// bit-identical to a sequential single-shot ExecutePlan with one
// worker and no shared state — the service preserves the repo's
// determinism contract under production concurrency.
func TestConcurrentDistinctMatchSingleShot(t *testing.T) {
	const n = 3
	_, ts := newTestServer(t, Options{RequestWorkers: 3, MaxConcurrent: n})

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts.URL+"/v1/estimate", asmBody("multilevel", int64(i+1)))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d, body %s", i+1, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()

	// Reference: an isolated server instance computing each request
	// sequentially via direct single-shot ExecutePlan, Workers = 1, no
	// shared caches, no HTTP.
	ref := New(Options{})
	for i := 0; i < n; i++ {
		req, ae := decodeRequest([]byte(asmBody("multilevel", int64(i+1))))
		if ae != nil {
			t.Fatal(ae)
		}
		entry, ae := ref.programs.resolve(req)
		if ae != nil {
			t.Fatal(ae)
		}
		plan, _, _, ae := ref.selectFor(context.Background(), entry, req)
		if ae != nil {
			t.Fatal(ae)
		}
		cfg, err := config.ByName(req.Config)
		if err != nil {
			t.Fatal(err)
		}
		opts := experiments.CheckpointExec()
		opts.Workers = 1
		est, err := pipeline.ExecutePlan(entry.prog, plan, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalBody(encodeEstimate(ref.programInfo(entry), req.Config, est))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("seed %d: served body differs from single-shot sequential execution", i+1)
		}
	}
}

// TestErrorPaths pins the structured-error contract: every malformed
// request maps to a stable 4xx code with a JSON envelope.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 4096, MaxProgramInsts: 5000, MaxProgramCode: 4})
	cases := []struct {
		name     string
		endpoint string
		body     string
		status   int
		code     string
	}{
		{"bad json", "analyze", "{not json", http.StatusBadRequest, codeBadJSON},
		{"trailing data", "analyze", `{"benchmark":"gzip"} extra`, http.StatusBadRequest, codeBadJSON},
		{"unknown field", "analyze", `{"benchmark":"gzip","frobnicate":1}`, http.StatusBadRequest, codeBadJSON},
		{"neither program", "analyze", `{}`, http.StatusBadRequest, codeBadField},
		{"both programs", "analyze", `{"benchmark":"gzip","assembly":"halt"}`, http.StatusBadRequest, codeBadField},
		{"name without assembly", "analyze", `{"benchmark":"gzip","name":"x"}`, http.StatusBadRequest, codeBadField},
		{"unknown benchmark", "analyze", `{"benchmark":"doom"}`, http.StatusBadRequest, codeBadField},
		{"unknown size", "analyze", `{"benchmark":"gzip","size":"xl"}`, http.StatusBadRequest, codeBadField},
		{"unknown method", "plan", `{"benchmark":"gzip","method":"magic"}`, http.StatusBadRequest, codeBadField},
		{"unknown config", "estimate", `{"benchmark":"gzip","config":"Z"}`, http.StatusBadRequest, codeBadField},
		{"malformed assembly", "analyze", `{"assembly":"bogus r9, q3"}`, http.StatusBadRequest, codeBadProgram},
		{"non-halting guest", "plan", `{"assembly":"loop:\n addi r1, r1, 1\n bne r1, r0, loop\n halt"}`, http.StatusUnprocessableEntity, codeBudgetExceeded},
		{"program too large", "analyze", `{"assembly":"addi r1, r0, 1\n addi r2, r0, 1\n addi r3, r0, 1\n addi r4, r0, 1\n halt"}`, http.StatusUnprocessableEntity, codeProgramTooBig},
		{"oversized body", "analyze", `{"assembly":"` + strings.Repeat("; pad\\n", 2000) + `halt"}`, http.StatusRequestEntityTooLarge, codeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := post(t, ts.URL+"/v1/"+tc.endpoint, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			if want := fmt.Sprintf("%q", tc.code); !strings.Contains(string(b), want) {
				t.Errorf("body %s missing code %s", b, want)
			}
		})
	}

	t.Run("wrong verb", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/analyze")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("unknown route", func(t *testing.T) {
		resp, _ := post(t, ts.URL+"/v1/nope", "{}")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404", resp.StatusCode)
		}
	})
}

// TestHealthAndTelemetryRoutes: the daemon self-reports and exposes
// the obs registry on its own mux.
func TestHealthAndTelemetryRoutes(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/metrics", "/progress", "/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if s.Draining() {
		t.Error("fresh server reports draining")
	}
}

// TestSuiteBenchmarkRequests: suite programs resolve through the
// registry shortcut and analyze/plan round-trip.
func TestSuiteBenchmarkRequests(t *testing.T) {
	rt := obs.New(nil)
	_, ts := newTestServer(t, Options{Obs: rt})
	body := `{"benchmark":"gzip","size":"tiny","method":"smarts"}`
	resp, b := post(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d, body %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"benchmark": "gzip"`) {
		t.Errorf("plan body missing benchmark name: %s", b)
	}
	// Same benchmark again: the program registry must reuse the entry.
	resp, _ = post(t, ts.URL+"/v1/plan", body)
	if got := resp.Header.Get("X-Mlpa-Cache"); got != dispHit {
		t.Errorf("repeat plan disposition %q, want hit", got)
	}
	if rt.Metrics().Counter("serve.programs.reused").Value() == 0 {
		t.Error("program registry reuse counter is zero after repeat request")
	}
}
