// Package loadgen is the load harness for the mlpa serve daemon: it
// drives concurrent, duplicate-heavy API traffic against a running
// instance and reports cache effectiveness and failure counts. CI's
// serve-smoke job uses it to assert that coalescing and the
// content-hash cache actually engage under load and that a draining
// server never fails an accepted request.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoint is the API endpoint to exercise: analyze, plan or
	// estimate (default plan). Estimate traffic pairs each seed with
	// configs A and B in the distinct pool.
	Endpoint string
	// Clients is the number of concurrent requesters (default 4).
	Clients int
	// Requests is the total request count (default 64).
	Requests int
	// DupFraction in [0,1) shrinks the distinct-request pool: the pool
	// holds about Requests*(1-DupFraction) distinct bodies, so higher
	// values mean more duplicate traffic and more cache hits
	// (default 0.75).
	DupFraction float64
	// Benchmarks cycles the guest programs (default gzip).
	Benchmarks []string
	// Size is the suite scale for every request (default tiny).
	Size string
	// Method is the sampling method for plan/estimate requests
	// (default multilevel).
	Method string
	// Seed bases the per-request seeds; distinct pool entries get
	// distinct seeds so they miss independently (default 1).
	Seed int64
	// Timeout bounds each HTTP request (default 2 minutes).
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Endpoint == "" {
		o.Endpoint = "plan"
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.DupFraction < 0 || o.DupFraction >= 1 {
		o.DupFraction = 0.75
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"gzip"}
	}
	if o.Size == "" {
		o.Size = "tiny"
	}
	if o.Method == "" {
		o.Method = "multilevel"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	return o
}

// Report is the harness result, serialized as the serve-smoke CI
// artifact.
type Report struct {
	Endpoint  string `json:"endpoint"`
	Clients   int    `json:"clients"`
	Requests  int    `json:"requests"`
	Distinct  int    `json:"distinct_bodies"`
	OK        int    `json:"ok"`
	Hits      int    `json:"cache_hits"`
	Misses    int    `json:"cache_misses"`
	Coalesced int    `json:"cache_coalesced"`
	// Draining counts 503 {"code":"draining"} refusals — expected when
	// the harness overlaps a shutdown, and not failures: the contract
	// is that refused requests were never accepted.
	Draining int `json:"draining"`
	// Failures counts transport errors and any unexpected status.
	Failures int `json:"failures"`
	// HitRate is (hits+coalesced)/ok: the fraction of successful
	// responses that did not pay for a fresh computation.
	HitRate        float64 `json:"hit_rate"`
	Bytes          int64   `json:"body_bytes"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	PerSecond      float64 `json:"requests_per_second"`
}

// request mirrors the serve API request schema (kept in sync by the
// golden tests on the serve side).
type request struct {
	Benchmark string `json:"benchmark"`
	Size      string `json:"size"`
	Method    string `json:"method,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Config    string `json:"config,omitempty"`
}

// Run drives the load and blocks until every request completes or ctx
// is cancelled. A cancelled context abandons unissued requests but
// still reports the issued ones.
func Run(ctx context.Context, o Options) (*Report, error) {
	o = o.withDefaults()

	// Deterministic duplicate-heavy workload: a small pool of distinct
	// bodies, each request drawing from it uniformly.
	distinct := int(float64(o.Requests)*(1-o.DupFraction) + 0.5)
	if distinct < 1 {
		distinct = 1
	}
	if distinct > o.Requests {
		distinct = o.Requests
	}
	bodies := make([][]byte, distinct)
	for i := range bodies {
		// Distinct seeds make distinct cache keys for plan and
		// estimate traffic even on the same benchmark. Estimate traffic
		// asks for each seed's estimate under both Table I configs, so
		// the second reuses the plan and checkpoint set of the first.
		id, cfg := i, ""
		if o.Endpoint == "estimate" {
			id, cfg = i/2, [2]string{"A", "B"}[i%2]
		}
		b, err := json.Marshal(request{
			Benchmark: o.Benchmarks[id%len(o.Benchmarks)],
			Size:      o.Size,
			Method:    o.Method,
			Seed:      o.Seed + int64(id),
			Config:    cfg,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	rng := rand.New(rand.NewSource(o.Seed))
	picks := make([]int, o.Requests)
	for i := range picks {
		picks[i] = rng.Intn(distinct)
	}

	rep := &Report{Endpoint: o.Endpoint, Clients: o.Clients, Requests: o.Requests, Distinct: distinct}
	url := o.BaseURL + "/v1/" + o.Endpoint
	client := &http.Client{Timeout: o.Timeout}

	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.Requests || ctx.Err() != nil {
					return
				}
				disp, status, n, err := issue(ctx, client, url, bodies[picks[i]])
				mu.Lock()
				rep.Bytes += n
				switch {
				case err != nil:
					rep.Failures++
				case status == http.StatusOK:
					rep.OK++
					switch disp {
					case "hit":
						rep.Hits++
					case "coalesced":
						rep.Coalesced++
					case "miss":
						rep.Misses++
					}
				case status == http.StatusServiceUnavailable:
					rep.Draining++
				default:
					rep.Failures++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.ElapsedSeconds = time.Since(start).Seconds()
	if rep.OK > 0 {
		rep.HitRate = float64(rep.Hits+rep.Coalesced) / float64(rep.OK)
	}
	if rep.ElapsedSeconds > 0 {
		rep.PerSecond = float64(rep.OK+rep.Draining+rep.Failures) / rep.ElapsedSeconds
	}
	return rep, nil
}

// issue sends one request and returns the cache disposition header,
// status and body size.
func issue(ctx context.Context, client *http.Client, url string, body []byte) (string, int, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return "", resp.StatusCode, n, fmt.Errorf("reading response: %w", err)
	}
	return resp.Header.Get("X-Mlpa-Cache"), resp.StatusCode, n, nil
}

// Summary renders the one-line human-readable summary the CLI prints.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d requests (%d distinct) in %.2fs: %d ok (%d miss, %d coalesced, %d hit; hit rate %.0f%%), %d draining, %d failures",
		r.Requests, r.Distinct, r.ElapsedSeconds, r.OK, r.Misses, r.Coalesced, r.Hits, 100*r.HitRate, r.Draining, r.Failures)
}
