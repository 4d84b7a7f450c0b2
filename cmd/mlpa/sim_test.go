package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/emu"
)

func TestLoadProgramFromSuite(t *testing.T) {
	p, err := loadProgram(&flags{benchmark: "gzip", size: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "gzip" {
		t.Errorf("name = %q", p.Name)
	}
	for _, size := range []string{"tiny", "small", "ref"} {
		if _, err := loadProgram(&flags{benchmark: "swim", size: size}); err != nil {
			t.Errorf("size %s: %v", size, err)
		}
	}
}

// TestLoadProgramFromFile: a positional assembly file takes precedence
// over -bench, and the program is named after the file.
func TestLoadProgramFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	if err := os.WriteFile(path, []byte("addi r1, r0, 1\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram(&flags{benchmark: "gzip", size: "tiny", args: []string{path}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 || p.Name != "prog" {
		t.Errorf("loaded %q with %d instructions, want prog with 2", p.Name, len(p.Code))
	}
}

func TestLoadProgramErrors(t *testing.T) {
	if _, err := loadProgram(&flags{benchmark: "bogus", size: "tiny"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := loadProgram(&flags{benchmark: "gzip", size: "huge"}); err == nil {
		t.Error("unknown size accepted")
	}
	if _, err := loadProgram(&flags{benchmark: "gzip", size: "tiny", args: []string{"/nonexistent.s"}}); err == nil {
		t.Error("missing file accepted")
	}
	// A flag after the file is left unparsed; it must not be dropped.
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte("halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProgram(&flags{benchmark: "gzip", size: "tiny", args: []string{path, "-mode", "functional"}}); err == nil {
		t.Error("arguments after the file accepted")
	}
}

// TestRunSimFunctionalMax: -max bounds functional mode like the other
// modes, and 0 runs the program to completion.
func TestRunSimFunctionalMax(t *testing.T) {
	p, err := bench.Program("gzip", bench.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	total, err := emu.New(p, 0).RunToCompletion(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		max, want uint64
	}{{1000, 1000}, {0, total}} {
		out, err := captureOutput(t, &os.Stdout, func() error {
			return run([]string{"sim", "-size", "tiny", "-bench", "gzip", "-mode", "functional", "-max", strconv.FormatUint(tc.max, 10)})
		})
		if err != nil {
			t.Fatalf("-max %d: %v", tc.max, err)
		}
		if want := "instructions: " + strconv.FormatUint(tc.want, 10) + "\n"; !strings.Contains(out, want) {
			t.Errorf("-max %d printed\n%s\nwant a line %q", tc.max, out, want)
		}
	}
}

// TestRunSimModes runs every mode under a budget, detailed and warm
// with one block per config, rejects an unknown mode, and checks that
// the metrics each mode records reach the -metrics dump.
func TestRunSimModes(t *testing.T) {
	for _, tc := range []struct {
		mode, counter string
	}{{"functional", "emu.run_insts"}, {"detailed", "cpu.detail.calls"}, {"warm", "cpu.warm.calls"}} {
		metrics := filepath.Join(t.TempDir(), "metrics.json")
		out, err := captureOutput(t, &os.Stdout, func() error {
			return run([]string{"sim", "-size", "tiny", "-bench", "gzip", "-mode", tc.mode,
				"-config", "A,B", "-max", "5000", "-metrics", metrics})
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		blocks := 2
		if tc.mode == "functional" {
			blocks = 1
		}
		if got := strings.Count(out, "program:"); got != blocks {
			t.Errorf("%s printed %d blocks, want %d:\n%s", tc.mode, got, blocks, out)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Counters[tc.counter] == 0 {
			t.Errorf("%s: metrics lack %s: %v", tc.mode, tc.counter, snap.Counters)
		}
	}
	if err := run([]string{"sim", "-size", "tiny", "-bench", "gzip", "-mode", "turbo"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestRunMetricsToStderr: -metrics - writes the registry to stderr.
func TestRunMetricsToStderr(t *testing.T) {
	out, err := captureOutput(t, &os.Stderr, func() error {
		return run([]string{"sim", "-size", "tiny", "-bench", "gzip", "-mode", "functional", "-metrics", "-"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"emu.run_insts"`) {
		t.Errorf("stderr lacks the registry:\n%s", out)
	}
}
