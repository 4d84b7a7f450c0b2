package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"mlpa/internal/obs"
	"mlpa/internal/serve"
)

// TestRunAgainstLiveServer drives the harness at an in-process daemon
// with duplicate-heavy traffic and checks the report's arithmetic:
// every request accounted for, no failures, and a duplicate-heavy mix
// must produce cache hits or coalesced responses.
func TestRunAgainstLiveServer(t *testing.T) {
	s := serve.New(serve.Options{Obs: obs.New(nil)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Endpoint:    "plan",
		Clients:     4,
		Requests:    40,
		DupFraction: 0.9,
		Benchmarks:  []string{"gzip"},
		Size:        "tiny",
		Method:      "smarts",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 40 || rep.Failures != 0 || rep.Draining != 0 {
		t.Fatalf("report: %+v, want 40 ok and no failures", rep)
	}
	if rep.Hits+rep.Misses+rep.Coalesced != rep.OK {
		t.Errorf("dispositions %d+%d+%d don't sum to ok=%d",
			rep.Hits, rep.Misses, rep.Coalesced, rep.OK)
	}
	// dup 0.9 over 40 requests leaves only a handful of distinct
	// bodies, so most responses must come from the cache.
	if rep.Hits+rep.Coalesced == 0 {
		t.Error("duplicate-heavy traffic produced zero cache hits")
	}
	if rep.Misses > rep.Distinct {
		t.Errorf("%d misses exceed %d distinct bodies", rep.Misses, rep.Distinct)
	}
	if rep.HitRate <= 0 {
		t.Errorf("hit rate %v, want > 0", rep.HitRate)
	}
	// The report must round-trip as the CI artifact.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != *rep {
		t.Error("report did not survive a JSON round-trip")
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestRunAgainstDrainingServer: refusals during drain are counted as
// draining, not failures — the graceful-shutdown contract seen from
// the client side.
func TestRunAgainstDrainingServer(t *testing.T) {
	s := serve.New(serve.Options{Obs: obs.New(nil)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.BeginDrain()

	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Endpoint: "plan",
		Clients:  2,
		Requests: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Errorf("%d failures against a draining server, want 0", rep.Failures)
	}
	if rep.Draining != 10 {
		t.Errorf("draining = %d, want 10", rep.Draining)
	}
}

// TestEstimateTrafficReusesAcrossConfigs: estimate-only traffic asks
// for every seed under configs A and B, so the server selects each plan
// and builds each checkpoint set once and reuses both for the other
// config.
func TestEstimateTrafficReusesAcrossConfigs(t *testing.T) {
	rt := obs.New(nil)
	s := serve.New(serve.Options{Obs: rt})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Endpoint:    "estimate",
		Clients:     2,
		Requests:    8,
		DupFraction: 0.5,
		Benchmarks:  []string{"gzip"},
		Size:        "tiny",
		Method:      "smarts",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 8 || rep.Failures != 0 || rep.Distinct != 4 {
		t.Fatalf("report: %+v, want 8 ok over 4 distinct bodies and no failures", rep)
	}
	reg := rt.Metrics()
	for _, name := range []string{"serve.ckpt.reuses", "serve.plans.reuses"} {
		if n := reg.Counter(name).Value(); n <= 0 {
			t.Errorf("%s = %d after estimate-only traffic, want > 0", name, n)
		}
	}
	if n := reg.Counter("serve.ckpt.builds").Value(); n != 2 {
		t.Errorf("serve.ckpt.builds = %d, want one per seed (2)", n)
	}
}
