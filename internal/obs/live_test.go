package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingSink captures emitted records for assertions.
type recordingSink struct {
	mu   sync.Mutex
	recs []Record
}

func (s *recordingSink) Emit(rec Record) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *recordingSink) all() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

func TestProgressStages(t *testing.T) {
	p := NewProgress()
	a := p.Stage("select")
	a.AddTotal(10)
	a.Add(3)
	b := p.Stage("points")
	b.AddTotal(4)
	b.Add(4)
	if same := p.Stage("select"); same != a {
		t.Error("Stage did not return the registered stage")
	}

	snap := p.Snapshot()
	if len(snap) != 2 || snap[0].Name != "select" || snap[1].Name != "points" {
		t.Fatalf("snapshot order = %+v, want select then points", snap)
	}
	if snap[0].Done != 3 || snap[0].Total != 10 || snap[0].Frac != 0.3 {
		t.Errorf("select = %+v, want 3/10 frac 0.3", snap[0])
	}
	if snap[1].Frac != 1.0 {
		t.Errorf("points frac = %v, want 1.0", snap[1].Frac)
	}

	// Nil-safety: detached stages accept updates, snapshots are nil.
	var np *Progress
	np.Stage("x").AddTotal(1)
	np.Stage("x").Add(1)
	if np.Snapshot() != nil {
		t.Error("nil Progress snapshot not nil")
	}
	var nr *Runtime
	nr.Progress().Stage("y").Add(1)
}

func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := p.Stage("work")
			st.AddTotal(100)
			for i := 0; i < 100; i++ {
				st.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, st := range p.Snapshot() {
				if st.Done > st.Total {
					t.Errorf("done %d overtook total %d", st.Done, st.Total)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Done != 800 || snap[0].Total != 800 {
		t.Errorf("final = %+v, want 800/800", snap)
	}
}

// TestSamplerCumulative drives Sample directly (no timer dependence)
// and checks sequence numbers and cumulative values.
func TestSamplerCumulative(t *testing.T) {
	reg := NewRegistry()
	sink := &recordingSink{}
	s := StartSampler(reg, sink, SamplerOptions{Interval: time.Hour})

	s.Sample() // empty registry: suppressed
	reg.Counter("n").Add(2)
	s.Sample()
	reg.Counter("n").Add(3)
	s.Stop() // emits the final sample

	recs := sink.all()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2 (empty sample suppressed)", len(recs))
	}
	for i, rec := range recs {
		if rec["ev"] != "metrics_sample" {
			t.Errorf("rec %d ev = %v", i, rec["ev"])
		}
		if rec["seq"] != int64(i+1) {
			t.Errorf("rec %d seq = %v, want %d", i, rec["seq"], i+1)
		}
	}
	c0 := recs[0]["counters"].(map[string]int64)
	c1 := recs[1]["counters"].(map[string]int64)
	if c0["n"] != 2 || c1["n"] != 5 {
		t.Errorf("cumulative counters = %d, %d, want 2, 5", c0["n"], c1["n"])
	}
}

func TestSamplerNilSafe(t *testing.T) {
	if s := StartSampler(nil, &recordingSink{}, SamplerOptions{}); s != nil {
		t.Error("sampler on nil registry not nil")
	}
	var s *Sampler
	s.Sample()
	s.Stop()
}

// TestSamplerTicker lets the periodic loop run for real, checking that
// samples arrive without explicit Sample calls.
func TestSamplerTicker(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Add(1)
	sink := &recordingSink{}
	s := StartSampler(reg, sink, SamplerOptions{Interval: time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.all()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if len(sink.all()) == 0 {
		t.Fatal("no periodic samples within deadline")
	}
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestHandlerEndpoints exercises every route of the live-export mux
// against a live runtime.
func TestHandlerEndpoints(t *testing.T) {
	rt := New(nil)
	rt.Metrics().Counter("points").Add(7)
	rt.Metrics().Histogram("wall").Observe(0.25)
	stage := rt.Progress().Stage("pipeline.points")
	stage.AddTotal(10)
	stage.Add(4)

	srv := httptest.NewServer(Handler(rt))
	defer srv.Close()

	body, resp := get(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "mlpa_points 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, `mlpa_wall{quantile="0.5"}`) {
		t.Errorf("/metrics missing summary quantile:\n%s", body)
	}

	body, resp = get(t, srv.URL+"/metrics?format=json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics?format=json: %v", err)
	}
	if snap.Counters["points"] != 7 {
		t.Errorf("json counter = %d, want 7", snap.Counters["points"])
	}

	// Delta scrapes: first carries everything, a quiet second carries a
	// zero counter delta, one after activity carries just the change.
	body, _ = get(t, srv.URL+"/metrics?format=json&delta=1")
	var d Snapshot
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Counters["points"] != 7 {
		t.Errorf("first delta = %d, want full 7", d.Counters["points"])
	}
	rt.Metrics().Counter("points").Add(2)
	body, _ = get(t, srv.URL+"/metrics?format=json&delta=1")
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Counters["points"] != 2 {
		t.Errorf("second delta = %d, want 2", d.Counters["points"])
	}

	body, resp = get(t, srv.URL+"/progress")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/progress content type = %q", ct)
	}
	var stages []StageStatus
	if err := json.Unmarshal([]byte(body), &stages); err != nil {
		t.Fatalf("/progress: %v\n%s", err, body)
	}
	if len(stages) != 1 || stages[0].Name != "pipeline.points" || stages[0].Done != 4 {
		t.Errorf("/progress = %+v", stages)
	}

	body, _ = get(t, srv.URL+"/")
	if !strings.Contains(body, "/metrics") || !strings.Contains(body, "/progress") {
		t.Errorf("index missing endpoints:\n%s", body)
	}
	_, resp = get(t, srv.URL+"/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
	body, _ = get(t, srv.URL+"/debug/pprof/cmdline")
	if body == "" {
		t.Error("pprof cmdline empty")
	}
}

// TestHandlerNilRuntime: every endpoint serves empty-but-valid data on
// a nil runtime.
func TestHandlerNilRuntime(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	body, _ := get(t, srv.URL+"/metrics?format=json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Empty() {
		t.Errorf("nil runtime metrics = %+v", snap)
	}
	body, _ = get(t, srv.URL+"/progress")
	var stages []StageStatus
	if err := json.Unmarshal([]byte(body), &stages); err != nil {
		t.Fatal(err)
	}
	if len(stages) != 0 {
		t.Errorf("nil runtime progress = %+v", stages)
	}
}

// TestServeLifecycle: Serve binds, serves the same handler, and Close
// releases the port and stops the loop.
func TestServeLifecycle(t *testing.T) {
	rt := New(nil)
	rt.Metrics().Counter("up").Inc()
	srv, err := Serve("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := get(t, "http://"+srv.Addr().String()+"/metrics")
	if !strings.Contains(body, "mlpa_up 1") {
		t.Errorf("served metrics missing counter:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// Drop the pooled keep-alive connection: Close only stops the
	// listener, so a fresh dial is what must fail.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get("http://" + srv.Addr().String() + "/metrics"); err == nil {
		t.Error("listener not accepting new connections after Close")
	}
}
