package main

import (
	"os"
	"path/filepath"
	"testing"

	"mlpa/internal/prog"
)

// dataflowGoldenASM is a small verified program exercising every piece
// of the dataflow report: a loop with live-through registers, memory
// traffic in the exit block, and two statically-dead writes.
const dataflowGoldenASM = `
    addi r1, r0, 10
    addi r2, r0, 3
    addi r4, r0, 64
loop:
    add  r3, r1, r2
    addi r1, r1, -1
    bne  r1, r0, loop
    st   r3, (r4)
    ld   r6, (r4)
    addi r5, r0, 7
    halt
`

// dataflowGolden is the exact report dataflowReport must render for
// dataflowGoldenASM.
const dataflowGolden = `
Dataflow:
  B0 [0,3): liveIn={} liveOut={r1 r2 r4} gen={} kill={r1 r2 r4}
  B1 [3,6): liveIn={r1 r2 r4} liveOut={r1 r2 r3 r4} gen={r1 r2} kill={r1 r3}
  B2 [6,10): liveIn={r3 r4} liveOut={} gen={r3 r4} kill={r5 r6} mem=LS
  dead writes: 2
    pc 7: {r6}  ld r6, 0(r4)
    pc 8: {r5}  addi r5, r0, 7
  predecode cross-check: ok
`

func TestDataflowReportGolden(t *testing.T) {
	p, err := prog.Assemble("df", dataflowGoldenASM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataflowReport(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != dataflowGolden {
		t.Errorf("dataflow report drifted from golden:\n got: %q\nwant: %q", got, dataflowGolden)
	}
}

func TestRunAnalyzeDataflow(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "df.s")
	if err := os.WriteFile(file, []byte(dataflowGoldenASM), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", "-dataflow", file}); err != nil {
		t.Fatal(err)
	}
	// The flag composes with -dynamic and with suite benchmarks.
	if err := run([]string{"analyze", "-dataflow", "-dynamic", file}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", "-dataflow", "-size", "tiny", "-bench", "gzip"}); err != nil {
		t.Fatal(err)
	}
}
