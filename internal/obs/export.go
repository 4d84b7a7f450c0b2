package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The two snapshot encodings, /metrics's Prometheus text and the JSON
// of the -metrics file and /metrics?format=json, emit deterministically
// ordered output (sorted metric names), so identical snapshots encode
// to identical bytes.

// writeJSON encodes a snapshot as JSON with two-space indentation.
func writeJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// writeProm encodes a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as summaries with p50/p90/p99 quantile samples plus _sum
// and _count, under promName's names.
func writeProm(w io.Writer, s Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
			return err
		}
		for _, q := range [...]struct {
			label string
			value float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", pn, q.label, promFloat(q.value)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry metric name into the mlpa_ namespace: every
// character outside [a-zA-Z0-9_] becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("mlpa_") + len(name))
	b.WriteString("mlpa_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus expects (shortest
// round-trippable representation).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
