package obs

import (
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe collection of named metrics. A nil
// *Registry is valid: metric lookups return detached instruments that
// accept updates but register nowhere, so instrumented code never has
// to branch on whether observability is enabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. On a nil registry it returns a detached counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. On a nil registry it returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use. On a nil registry it returns a detached histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins floating-point metric.
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: hbuckets log2-spaced buckets, bucket i
// covering [2^(i-hoffset), 2^(i-hoffset+1)). Samples at or below
// 2^-hoffset (including zero and negatives) land in bucket 0, samples
// beyond the top bound in the last bucket. The span 2^-32..2^32 covers
// everything the pipeline observes — nanosecond timers through
// iteration counts — with ~half-bucket (~41%) worst-case quantile
// error, tightened by clamping to the exact observed min/max.
const (
	hbuckets = 64
	hoffset  = 32
)

// Histogram accumulates summary statistics of observed samples: count,
// sum, min, max, mean and log-bucketed quantiles. It doubles as a
// timer via Observe of elapsed seconds (see Time).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [hbuckets]int64
}

// bucketIndex maps a sample to its log2 bucket.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(math.Floor(math.Log2(v))) + hoffset
	if i < 0 {
		return 0
	}
	if i >= hbuckets {
		return hbuckets - 1
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
	h.mu.Unlock()
}

// Time starts a timer; the returned function observes the elapsed
// wall-clock seconds when called (defer h.Time()()).
func (h *Histogram) Time() func() {
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0).Seconds()) }
}

// Stat returns the histogram's current summary.
func (h *Histogram) Stat() HistStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
		s.P50 = h.quantileLocked(0.50)
		s.P90 = h.quantileLocked(0.90)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the log2
// buckets, clamped to the exact observed [min, max].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < hbuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			// Geometric midpoint of the bucket, clamped to observed
			// extremes so degenerate histograms stay exact.
			v := math.Exp2(float64(i-hoffset) + 0.5)
			if i == 0 {
				v = h.min
			}
			return math.Min(math.Max(v, h.min), h.max)
		}
	}
	return h.max
}

// HistStat is a point-in-time histogram summary. P50/P90/P99 are
// log2-bucket quantile estimates (see Histogram.Quantile).
type HistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every registered metric. Its
// JSON encoding is deterministic: encoding/json emits map keys in
// sorted order.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Stat()
		}
	}
	return s
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return writeJSON(w, r.Snapshot())
}

// DeltaSince returns the change from prev to s: counters are
// subtracted (a counter absent from prev contributes its full value),
// histogram count/sum are subtracted with the remaining summary fields
// carried over cumulatively, and gauges — last-value-wins by nature —
// report only entries whose value changed. Entries that did not change
// are omitted entirely, so a quiet interval yields an Empty delta.
// Two snapshots of the same registry taken in order always yield
// non-negative counter deltas.
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	var d Snapshot
	for name, v := range s.Counters {
		dv := v - prev.Counters[name]
		if dv == 0 {
			continue
		}
		if d.Counters == nil {
			d.Counters = make(map[string]int64, len(s.Counters))
		}
		d.Counters[name] = dv
	}
	for name, v := range s.Gauges {
		pv, ok := prev.Gauges[name]
		if ok && pv == v {
			continue
		}
		if d.Gauges == nil {
			d.Gauges = make(map[string]float64, len(s.Gauges))
		}
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		h.Count -= p.Count
		h.Sum -= p.Sum
		if h.Count == 0 && h.Sum == 0 {
			continue
		}
		if h.Count > 0 {
			h.Mean = h.Sum / float64(h.Count)
		} else {
			h.Mean = 0
		}
		if d.Histograms == nil {
			d.Histograms = make(map[string]HistStat, len(s.Histograms))
		}
		d.Histograms[name] = h
	}
	return d
}

// Empty reports whether the snapshot carries no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}
