package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlpa/internal/obs"
)

// planTraffic is one benchmark's plan-sharing traffic: a SimPoint plan
// and its estimates under both configs, and the COASTS and multi-level
// plans, whose first level is that same COASTS plan.
var planTraffic = []struct{ endpoint, body string }{
	{"plan", asmBody("simpoint", 1)},
	{"estimate", estBody("simpoint", "A", 1)},
	{"estimate", estBody("simpoint", "B", 1)},
	{"plan", asmBody("coasts", 1)},
	{"plan", asmBody("multilevel", 1)},
}

// selectionCounts tallies the journal's selection records by method.
func selectionCounts(recs []obs.Record) map[string]int {
	n := map[string]int{}
	for _, r := range recs {
		if r["ev"] == "selection" {
			n[r["method"].(string)]++
		}
	}
	return n
}

// resampledCount reads how many coarse points the multi-level
// selection re-sampled: each one adds a SimPoint selection record.
func resampledCount(t *testing.T, recs []obs.Record) int {
	t.Helper()
	for _, r := range recs {
		if r["ev"] == "selection" && r["method"] == "multilevel" {
			return r["resampled"].(int)
		}
	}
	t.Fatal("no multilevel selection record")
	return 0
}

// freshBody serves one request on a new server with cold caches.
func freshBody(t *testing.T, endpoint, body string) []byte {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	resp, b := post(t, ts.URL+"/v1/"+endpoint, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh %s: status %d, body %s", endpoint, resp.StatusCode, b)
	}
	return b
}

// TestPlanSelectedOncePerIdentity: one server answering a SimPoint plan,
// its estimates under A and B, and the COASTS and multi-level plans of
// the same program runs each selection stage once, in either arrival
// order — three plan-cache misses, one SimPoint, one COASTS and one
// multi-level selection record — and every body equals a fresh
// server's for the same request.
func TestPlanSelectedOncePerIdentity(t *testing.T) {
	fresh := make([][]byte, len(planTraffic))
	for i, rq := range planTraffic {
		fresh[i] = freshBody(t, rq.endpoint, rq.body)
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 2, 3, 1, 0}} {
		var sink obs.MemorySink
		rt := obs.New(&sink)
		_, ts := newTestServer(t, Options{Obs: rt})
		for _, i := range order {
			rq := planTraffic[i]
			resp, b := post(t, ts.URL+"/v1/"+rq.endpoint, rq.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("order %v, request %d: status %d, body %s", order, i, resp.StatusCode, b)
			}
			if !bytes.Equal(b, fresh[i]) {
				t.Errorf("order %v, request %d: body differs from a fresh server's", order, i)
			}
		}
		reg := rt.Metrics()
		if got := reg.Counter("serve.plans.selections").Value(); got != 3 {
			t.Errorf("order %v: serve.plans.selections = %d, want 3 (simpoint, coasts, multilevel)", order, got)
		}
		if got := reg.Counter("serve.plans.reuses").Value(); got != 3 {
			t.Errorf("order %v: serve.plans.reuses = %d, want 3 (two SimPoint, one COASTS)", order, got)
		}
		recs := sink.Records()
		got := selectionCounts(recs)
		want := map[string]int{"coasts": 1, "multilevel": 1, "simpoint": 1 + resampledCount(t, recs)}
		for method, n := range want {
			if got[method] != n {
				t.Errorf("order %v: %d %s selection records, want %d", order, got[method], method, n)
			}
		}
	}
}

// TestPlanSelectionSharedInFlight: a plan request and an estimate of
// the same plan identity, arriving while its selection is held open,
// share that one selection; a failed selection reaches every waiter
// and is not cached, so the next request selects afresh.
func TestPlanSelectionSharedInFlight(t *testing.T) {
	traffic := []struct{ endpoint, body string }{
		{"plan", asmBody("simpoint", 1)},
		{"estimate", estBody("simpoint", "B", 1)},
	}
	want := make([][]byte, len(traffic))
	for i, rq := range traffic {
		want[i] = freshBody(t, rq.endpoint, rq.body)
	}
	injected := errors.New("injected selection failure")
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			rt := obs.New(nil)
			reg := rt.Metrics()
			// Two slots, so the estimate reaches the plan cache while the
			// plan request holds its slot inside the selection.
			s, ts := newTestServer(t, Options{Obs: rt, MaxConcurrent: 2})
			started := make(chan string, 4) // room for every selection the test can start
			release := make(chan struct{})
			releaseOnce := sync.OnceFunc(func() { close(release) })
			defer releaseOnce() // never leave a handler blocked on a failed test
			var calls atomic.Int32
			s.testHookSelect = func(method string) error {
				started <- method
				if calls.Add(1) == 1 {
					<-release
					if fail {
						return injected
					}
				}
				return nil
			}

			type reply struct {
				status int
				body   []byte
			}
			replies := make([]reply, len(traffic))
			var wg sync.WaitGroup
			for i, rq := range traffic {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/"+rq.endpoint, "application/json", strings.NewReader(rq.body))
					if err != nil {
						t.Errorf("%s: %v", rq.endpoint, err)
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Errorf("%s: reading response: %v", rq.endpoint, err)
					}
					replies[i] = reply{resp.StatusCode, b}
				}()
				if i == 0 {
					select {
					case <-started:
					case <-time.After(10 * time.Second):
						t.Fatal("no selection started")
					}
				}
			}
			waitCounter(t, reg, "serve.plans.reuses", 1)
			select {
			case m := <-started:
				t.Fatalf("a second %s selection started; the estimate must join the one in flight", m)
			default:
			}
			releaseOnce()
			wg.Wait()

			if got := reg.Counter("serve.plans.selections").Value(); got != 1 {
				t.Errorf("serve.plans.selections = %d, want 1", got)
			}
			for i, r := range replies {
				switch {
				case fail && (r.status != http.StatusInternalServerError || !strings.Contains(string(r.body), injected.Error())):
					t.Errorf("request %d: status %d, body %s; want the injected failure", i, r.status, r.body)
				case !fail && r.status != http.StatusOK:
					t.Errorf("request %d: status %d, body %s", i, r.status, r.body)
				case !fail && !bytes.Equal(r.body, want[i]):
					t.Errorf("request %d: body differs from a fresh server's", i)
				}
			}
			if !fail {
				return
			}
			// The failure was not cached: a retry selects again and succeeds.
			resp, b := post(t, ts.URL+"/v1/plan", traffic[0].body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retry: status %d, body %s", resp.StatusCode, b)
			}
			if got := reg.Counter("serve.plans.selections").Value(); got != 2 {
				t.Errorf("after retry: serve.plans.selections = %d, want 2", got)
			}
			if !bytes.Equal(b, want[0]) {
				t.Error("retry body differs from a fresh server's")
			}
		})
	}
}
