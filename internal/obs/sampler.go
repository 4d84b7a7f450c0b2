package obs

import (
	"sync"
	"time"
)

// SamplerOptions tunes a Sampler.
type SamplerOptions struct {
	// Interval between samples; zero or negative defaults to 5s.
	Interval time.Duration
}

// Sampler periodically snapshots a registry and streams the cumulative
// result to a sink as {"ev":"metrics_sample"} records, so a long run's
// metrics are observable while it is in flight rather than only at
// exit. The sampler reads the registry through the same atomic snapshot path as
// /metrics; it never perturbs instrumented code, only observes it.
type Sampler struct {
	reg      *Registry
	sink     Sink
	interval time.Duration

	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	seq int64
}

// StartSampler begins sampling reg into sink every opt.Interval. It
// returns nil (a valid no-op sampler) when reg or sink is nil, so
// callers can wire it unconditionally.
func StartSampler(reg *Registry, sink Sink, opt SamplerOptions) *Sampler {
	if reg == nil || sink == nil {
		return nil
	}
	if opt.Interval <= 0 {
		opt.Interval = 5 * time.Second
	}
	s := &Sampler{
		reg:      reg,
		sink:     sink,
		interval: opt.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			// Final sample so the stream always ends current.
			s.Sample()
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Sample takes one snapshot immediately and emits it. Nil-safe; safe
// to call concurrently with the periodic loop.
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.reg.Snapshot()
	if snap.Empty() {
		return
	}
	s.seq++
	rec := Record{"ev": "metrics_sample", "seq": s.seq}
	if len(snap.Counters) > 0 {
		rec["counters"] = snap.Counters
	}
	if len(snap.Gauges) > 0 {
		rec["gauges"] = snap.Gauges
	}
	if len(snap.Histograms) > 0 {
		rec["histograms"] = snap.Histograms
	}
	s.sink.Emit(rec)
}

// Stop halts the periodic loop, emits one final sample, and waits for
// the loop goroutine to exit. Nil-safe and idempotent-unsafe: call
// once.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}
