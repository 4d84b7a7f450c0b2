package pipeline

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mlpa/internal/bench"
	"mlpa/internal/config"
	"mlpa/internal/obs"
	"mlpa/internal/simpoint"
)

func scrapeSnapshot(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("bad /metrics json: %v\n%s", err, body)
	}
	return s
}

func scrapeProgress(t *testing.T, base string) []obs.StageStatus {
	t.Helper()
	resp, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stages []obs.StageStatus
	if err := json.Unmarshal(body, &stages); err != nil {
		t.Fatalf("bad /progress json: %v\n%s", err, body)
	}
	return stages
}

// TestLiveExportDuringRun serves /metrics and /progress from a runtime
// that a real ExecutePlan is writing into, scraping concurrently with
// the run: every counter must advance monotonically across scrapes,
// and the final progress must account for every plan point. Run under
// -race this is the acceptance check that live export never perturbs
// or races the pipeline.
func TestLiveExportDuringRun(t *testing.T) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	rt := obs.New(nil)
	srv := httptest.NewServer(obs.Handler(rt))
	defer srv.Close()

	type result struct {
		est *Estimate
		err error
	}
	done := make(chan result, 1)
	go func() {
		est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{
			Warmup: 2000, DetailLeadIn: 256, Workers: 2, Obs: rt,
		})
		done <- result{est, err}
	}()

	// Scrape while the run is in flight (and at least once after), and
	// assert monotonic counters throughout.
	var prev obs.Snapshot
	check := func() {
		t.Helper()
		cur := scrapeSnapshot(t, srv.URL)
		for name, v := range prev.Counters {
			if cur.Counters[name] < v {
				t.Errorf("counter %s went backwards: %d -> %d", name, v, cur.Counters[name])
			}
		}
		for name, h := range prev.Histograms {
			if cur.Histograms[name].Count < h.Count {
				t.Errorf("histogram %s count went backwards", name)
			}
		}
		prev = cur
	}
	var res result
	for running := true; running; {
		select {
		case res = <-done:
			running = false
		default:
			check()
		}
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	check() // final state

	if got := prev.Counters["pipeline.points_executed"]; got != int64(res.est.Points) {
		t.Errorf("final pipeline.points_executed = %d, want %d", got, res.est.Points)
	}
	stages := scrapeProgress(t, srv.URL)
	var found bool
	for _, st := range stages {
		if st.Name != "pipeline.points" {
			continue
		}
		found = true
		if st.Total != int64(res.est.Points) || st.Done != st.Total || st.Frac != 1.0 {
			t.Errorf("pipeline.points = %+v, want %d/%d frac 1", st, res.est.Points, res.est.Points)
		}
	}
	if !found {
		t.Errorf("no pipeline.points stage in /progress: %+v", stages)
	}
}

// nullSink swallows sampler records, standing in for a side-channel
// stream that must not reach the journal.
type nullSink struct{}

func (nullSink) Emit(obs.Record) {}

// TestServeAndSamplerDoNotPerturbJournal is the bit-identity
// acceptance check: a run with the live server being scraped and a
// fast sampler attached must produce the same estimate and the same
// journal skeleton as a plain run.
func TestServeAndSamplerDoNotPerturbJournal(t *testing.T) {
	spec, err := bench.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.MustProgram(bench.SizeTiny)
	plan, _, _, err := simpoint.Select(p, simpoint.Config{
		IntervalLen: bench.FineInterval(bench.SizeTiny), Kmax: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(serve bool) (*Estimate, []map[string]any) {
		t.Helper()
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		rt := obs.New(sink)

		var srv *httptest.Server
		var sampler *obs.Sampler
		var stopScrape chan struct{}
		if serve {
			srv = httptest.NewServer(obs.Handler(rt))
			defer srv.Close()
			// Sampler to a side channel at an aggressive interval, so it
			// snapshots mid-run many times.
			sampler = obs.StartSampler(rt.Metrics(), nullSink{}, obs.SamplerOptions{Interval: time.Millisecond})
			stopScrape = make(chan struct{})
			go func() {
				for {
					select {
					case <-stopScrape:
						return
					default:
						resp, err := http.Get(srv.URL + "/metrics?delta=1")
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()
		}

		est, err := ExecutePlan(p, plan, config.BaseA(), ExecOptions{
			Warmup: 2000, DetailLeadIn: 256, Workers: 2, Obs: rt,
		})
		if serve {
			close(stopScrape)
			sampler.Stop()
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		return stripWall(est), journalSkeleton(t, &buf)
	}

	plainEst, plainJournal := run(false)
	servedEst, servedJournal := run(true)
	if !reflect.DeepEqual(plainEst, servedEst) {
		t.Errorf("estimate changed under live export:\n got %s\nwant %s",
			dumpEstimate(servedEst), dumpEstimate(plainEst))
	}
	if !reflect.DeepEqual(plainJournal, servedJournal) {
		t.Error("journal skeleton changed under live export")
	}
}
