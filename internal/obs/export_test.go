package obs

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSnapshot builds a registry with fixed contents, so its
// snapshot encodes identically on every run and platform.
func goldenSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Counter("points_total").Add(42)
	reg.Counter("emu.insts").Add(1_000_000)
	reg.Gauge("kmeans.inertia").Set(12.5)
	h := reg.Histogram("plan/exec wall") // name needs sanitizing for Prometheus
	for _, v := range []float64{0.5, 1.0, 2.0, 4.0} {
		h.Observe(v)
	}
	return reg.Snapshot()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestJSONExporterGolden pins the JSON encoding byte-for-byte: sorted
// keys, two-space indent, quantile fields present.
func TestJSONExporterGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json.golden", buf.Bytes())
}

// TestPromExporterGolden pins the Prometheus text exposition
// byte-for-byte: TYPE lines, sanitized names, summary quantiles.
func TestPromExporterGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom.golden", buf.Bytes())
}

// TestExportersDeterministic: two exports of the same snapshot are
// byte-identical — the property the golden files and the journal
// determinism contract rest on.
func TestExportersDeterministic(t *testing.T) {
	s := goldenSnapshot()
	for name, write := range map[string]func(io.Writer, Snapshot) error{"json": writeJSON, "prom": writeProm} {
		var a, b bytes.Buffer
		if err := write(&a, s); err != nil {
			t.Fatal(err)
		}
		if err := write(&b, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two exports of one snapshot differ", name)
		}
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"points_total", "mlpa_points_total"},
		{"plan/exec wall", "mlpa_plan_exec_wall"},
		{"a.b-c", "mlpa_a_b_c"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHistogramQuantiles checks the log2-bucket estimates against a
// known sample set: midpoints inside the data, exact at the extremes.
func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	for _, v := range []float64{0.5, 1.0, 2.0, 4.0} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.P50 < 1.0 || st.P50 > 2.0 {
		t.Errorf("P50 = %v, want within [1,2]", st.P50)
	}
	if st.P90 != 4.0 || st.P99 != 4.0 {
		t.Errorf("P90/P99 = %v/%v, want clamped to max 4.0", st.P90, st.P99)
	}
	if got := h.Quantile(0); got != 0.5 {
		t.Errorf("Quantile(0) = %v, want min 0.5", got)
	}
	if got := h.Quantile(1); got != 4.0 {
		t.Errorf("Quantile(1) = %v, want max 4.0", got)
	}
	// Single-sample histograms are exact at every quantile.
	one := new(Histogram)
	one.Observe(3.7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 3.7 {
			t.Errorf("single sample Quantile(%v) = %v, want 3.7", q, got)
		}
	}
}

// TestDeltaSince covers the delta semantics: counters subtract,
// histogram count/sum subtract with the mean recomputed, gauges report
// only changes, and new metrics contribute their full value.
func TestDeltaSince(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	g := reg.Gauge("v")
	h := reg.Histogram("h")
	c.Add(10)
	g.Set(1.5)
	h.Observe(2)
	prev := reg.Snapshot()

	c.Add(5)
	h.Observe(4)
	h.Observe(6)
	reg.Counter("fresh").Add(3)
	cur := reg.Snapshot()

	d := cur.DeltaSince(prev)
	if d.Counters["n"] != 5 {
		t.Errorf("counter delta = %d, want 5", d.Counters["n"])
	}
	if d.Counters["fresh"] != 3 {
		t.Errorf("new counter delta = %d, want full value 3", d.Counters["fresh"])
	}
	if _, ok := d.Gauges["v"]; ok {
		t.Error("unchanged gauge appears in delta")
	}
	hd := d.Histograms["h"]
	if hd.Count != 2 || hd.Sum != 10 || hd.Mean != 5 {
		t.Errorf("hist delta = %+v, want count 2 sum 10 mean 5", hd)
	}

	g.Set(2.5)
	d2 := reg.Snapshot().DeltaSince(cur)
	if d2.Gauges["v"] != 2.5 {
		t.Errorf("changed gauge delta = %v, want 2.5", d2.Gauges["v"])
	}

	if !(Snapshot{}).Empty() {
		t.Error("zero snapshot not Empty")
	}
	if cur.Empty() {
		t.Error("populated snapshot reports Empty")
	}
}

// TestSnapshotDeltaConcurrent hammers a registry from writer
// goroutines while a reader takes snapshot/delta pairs, asserting
// every delta is non-negative and the final total is exact. Run under
// -race this is the satellite's concurrent-correctness check.
func TestSnapshotDeltaConcurrent(t *testing.T) {
	reg := NewRegistry()
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				reg.Counter("points").Inc()
				reg.Histogram("wall").Observe(1)
				reg.Gauge("frac").Set(float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev Snapshot
		for i := 0; i < 200; i++ {
			cur := reg.Snapshot()
			d := cur.DeltaSince(prev)
			if d.Counters["points"] < 0 {
				t.Errorf("negative counter delta %d", d.Counters["points"])
				return
			}
			if hd := d.Histograms["wall"]; hd.Count < 0 {
				t.Errorf("negative histogram count delta %d", hd.Count)
				return
			}
			prev = cur
		}
	}()
	wg.Wait()
	<-done
	if got := reg.Counter("points").Value(); got != writers*perWriter {
		t.Errorf("final count = %d, want %d", got, writers*perWriter)
	}
	if st := reg.Histogram("wall").Stat(); st.Count != writers*perWriter {
		t.Errorf("final hist count = %d, want %d", st.Count, writers*perWriter)
	}
}
