package ckpt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/staticanalysis/dataflow"
)

// captureAt runs a fresh machine for p to position insts and captures
// the state there.
func captureAt(t *testing.T, p *prog.Program, insts uint64, index int) (*ckpt.State, *emu.Machine) {
	t.Helper()
	m := emu.New(p, 0)
	if _, err := m.Run(insts); err != nil {
		t.Fatal(err)
	}
	li, err := liveInAt(p, m.PC)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Capture(m, index, li)
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

func liveInAt(p *prog.Program, pc int64) (sampling.LiveIn, error) {
	live, mem, err := dataflow.For(p).LiveInAt(pc)
	if err != nil {
		return sampling.LiveIn{}, err
	}
	ints, fps := live.Split()
	return sampling.LiveIn{PC: pc, Int: ints, FP: fps, Mem: mem}, nil
}

// TestStateEncodeDecodeRoundTrip: decode∘encode is the identity on
// captured states, for every example program at several positions.
func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range prog.Examples() {
		for _, pos := range []uint64{0, 1, 1000, 37_501} {
			st, _ := captureAt(t, p, pos, 3)
			data, err := st.Encode()
			if err != nil {
				t.Fatalf("%s@%d: encode: %v", p.Name, pos, err)
			}
			back, err := ckpt.Decode(data)
			if err != nil {
				t.Fatalf("%s@%d: decode: %v", p.Name, pos, err)
			}
			if !reflect.DeepEqual(st, back) {
				t.Fatalf("%s@%d: decode(encode(s)) != s", p.Name, pos)
			}
		}
	}
}

// TestRestoreReplaysIdentically: a machine restored from a checkpoint
// must execute exactly like the machine it was captured from —
// identical PC/instruction trajectory, memory image and block counts —
// even though its statically-dead registers were scrubbed.
func TestRestoreReplaysIdentically(t *testing.T) {
	for _, p := range prog.Examples() {
		t.Run(p.Name, func(t *testing.T) {
			st, orig := captureAt(t, p, 20_000, 0)
			restored, err := st.NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			if restored.PC != orig.PC || restored.Insts != orig.Insts {
				t.Fatalf("restored at pc=%d insts=%d, captured at pc=%d insts=%d",
					restored.PC, restored.Insts, orig.PC, orig.Insts)
			}
			ref := orig.Clone()
			ref.ResetBlockCounts()
			const forward = 30_000
			if _, err := ref.Run(forward); err != nil && !ref.Halted {
				t.Fatal(err)
			}
			if _, err := restored.Run(forward); err != nil && !restored.Halted {
				t.Fatal(err)
			}
			if restored.PC != ref.PC || restored.Insts != ref.Insts || restored.Halted != ref.Halted {
				t.Fatalf("replay diverged: restored pc=%d insts=%d halted=%v, reference pc=%d insts=%d halted=%v",
					restored.PC, restored.Insts, restored.Halted, ref.PC, ref.Insts, ref.Halted)
			}
			if !reflect.DeepEqual(restored.BlockCounts, ref.BlockCounts) {
				t.Fatal("replay diverged: block counts differ")
			}
			for w := int64(0); w < ref.MemWords(); w++ {
				if restored.LoadWord(w<<3) != ref.LoadWord(w<<3) {
					t.Fatalf("replay diverged: memory word %d differs", w)
				}
			}
		})
	}
}

// TestRestoreIntoMachineSmallerThanPage: a 64-word machine owns the
// first 64 words of page 0. Its capture holds exactly those words (the
// rest of the page is zero, not wrapped copies), and restoring it into
// a machine of the same size reproduces its memory.
func TestRestoreIntoMachineSmallerThanPage(t *testing.T) {
	p := &prog.Program{Name: "small", Code: []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Rs1: isa.RZero, Imm: 7},
		{Op: isa.OpSt, Rs1: isa.RZero, Rs2: 1, Imm: 8},
		{Op: isa.OpSt, Rs1: isa.RZero, Rs2: 1, Imm: 63 * 8},
		{Op: isa.OpHalt},
	}}
	m := emu.New(p, 64)
	if _, err := m.RunToCompletion(100); err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.Capture(m, 0, sampling.LiveIn{PC: m.PC, Int: ^uint32(0), FP: ^uint32(0), Mem: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, emu.PageWords)
	want[1], want[63] = 7, 7
	if len(st.Pages) != 1 || st.Pages[0].Index != 0 || !reflect.DeepEqual(st.Pages[0].Words, want) {
		t.Fatalf("captured pages %+v, want page 0 holding words 1 and 63 only", st.Pages)
	}
	restored := emu.New(p, 64)
	if err := st.RestoreInto(restored); err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < m.MemWords(); w++ {
		if got, want := restored.LoadWord(w<<3), m.LoadWord(w<<3); got != want {
			t.Fatalf("word %d restored as %d, captured %d", w, got, want)
		}
	}
}

// TestDecodeRejectsCorruption: flipping any byte of a valid encoding
// must fail decoding with a structured error — ErrIntegrity for
// payload damage, ErrFormat for structural damage — and truncations
// must fail too. No corruption may decode successfully.
func TestDecodeRejectsCorruption(t *testing.T) {
	st, _ := captureAt(t, prog.Examples()[0], 10_000, 0)
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		_, err := ckpt.Decode(bad)
		if err == nil {
			t.Fatalf("byte %d: corruption decoded successfully", i)
		}
		if !errors.Is(err, ckpt.ErrIntegrity) && !errors.Is(err, ckpt.ErrFormat) {
			t.Fatalf("byte %d: unstructured error %v", i, err)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, len(data) / 2, len(data) - 1} {
		if _, err := ckpt.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

// TestEncodeRejectsUnscrubbedState: the format's invariant is that
// dead registers are zero; Encode refuses to produce a violating blob
// and Decode refuses to accept one.
func TestEncodeRejectsUnscrubbedState(t *testing.T) {
	st, _ := captureAt(t, prog.Examples()[0], 5_000, 0)
	for i := 1; i < 32; i++ {
		if st.LiveIn.Int&(1<<uint(i)) == 0 {
			st.IntRegs[i] = 99
			break
		}
	}
	if _, err := st.Encode(); !errors.Is(err, ckpt.ErrFormat) {
		t.Fatalf("encode of unscrubbed state: %v, want ErrFormat", err)
	}
}

// testSet builds a small but real set: two points on an example
// program, captured at their warm starts.
func testSet(t *testing.T, p *prog.Program) *ckpt.Set {
	t.Helper()
	plan := &sampling.Plan{
		Benchmark:  p.Name,
		Method:     "test",
		TotalInsts: 60_000,
		Points: []sampling.Point{
			{Start: 10_000, End: 15_000, Weight: 0.5, Level: 1, Parent: -1},
			{Start: 40_000, End: 45_000, Weight: 0.5, Level: 1, Parent: -1},
		},
	}
	set := &ckpt.Set{
		ProgramName: p.Name,
		ProgramHash: ckpt.ProgramHash(p),
		Assembly:    p.Disassemble(),
		DataSize:    p.DataSize,
		Plan:        plan,
		Policy:      ckpt.Policy{Warmup: 4096, DetailLeadIn: 512},
		Program:     p,
	}
	m := emu.New(p, 0)
	for i, pt := range plan.Points {
		warmStart := pt.Start - 4096 - 512
		if _, err := m.Run(warmStart - m.Insts); err != nil {
			t.Fatal(err)
		}
		li, err := liveInAt(p, m.PC)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ckpt.Capture(m, i, li)
		if err != nil {
			t.Fatal(err)
		}
		set.States = append(set.States, st)
	}
	return set
}

// TestSetSaveLoadRoundTrip: Save → Load reproduces the set (program
// reassembled from the embedded code image, states bit-equal) and
// Verify passes.
func TestSetSaveLoadRoundTrip(t *testing.T) {
	p := prog.Examples()[0]
	set := testSet(t, p)
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Verify(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.ProgramHash != set.ProgramHash || back.DataSize != set.DataSize {
		t.Fatal("program identity did not round-trip")
	}
	if !reflect.DeepEqual(back.Plan, set.Plan) || back.Policy != set.Policy {
		t.Fatal("plan or policy did not round-trip")
	}
	if !reflect.DeepEqual(back.States, set.States) {
		t.Fatal("states did not round-trip")
	}
	if back.Program == nil || ckpt.ProgramHash(back.Program) != set.ProgramHash {
		t.Fatal("reassembled program does not hash to the set's program hash")
	}
	if err := back.Match(p, set.Plan, set.Policy); err != nil {
		t.Fatalf("loaded set does not match its own inputs: %v", err)
	}
}

// manifestV1 is the layout of a version 1 manifest, whose policy also
// records a run-ahead length.
type manifestV1 struct {
	Format      string          `json:"format"`
	Version     int             `json:"version"`
	ProgramName string          `json:"program_name"`
	ProgramHash string          `json:"program_hash"`
	DataSize    int64           `json:"data_size"`
	Assembly    string          `json:"assembly"`
	Plan        json.RawMessage `json:"plan"`
	Policy      struct {
		Warmup       uint64 `json:"warmup"`
		DetailLeadIn uint64 `json:"detail_lead_in"`
		RunAhead     uint64 `json:"run_ahead"`
	} `json:"policy"`
	Points         json.RawMessage `json:"points"`
	ManifestSHA256 string          `json:"manifest_sha256"`
}

// asVersion1 rewrites a saved manifest as version 1 wrote it: version
// 1, a zero run_ahead in the policy, and a self-hash that matches.
func asVersion1(t *testing.T, body []byte) []byte {
	t.Helper()
	var man manifestV1
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	man.Version, man.ManifestSHA256 = 1, ""
	canon, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	man.ManifestSHA256 = hex.EncodeToString(sum[:])
	out, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestSetLoadRejectsTampering: one flipped byte anywhere in the layout
// — a state file or the manifest — must be rejected with a structured
// error, and so must a set whose manifest is at the previous version.
func TestSetLoadRejectsTampering(t *testing.T) {
	p := prog.Examples()[0]
	set := testSet(t, p)
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, name string, flip int) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), data...)
		bad[flip%len(bad)] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.WriteFile(path, data, 0o644) })
		err = ckpt.Verify(dir)
		if err == nil {
			t.Fatalf("tampered %s verified successfully", name)
		}
		if !errors.Is(err, ckpt.ErrIntegrity) && !errors.Is(err, ckpt.ErrFormat) && !errors.Is(err, ckpt.ErrMismatch) {
			t.Fatalf("tampered %s: unstructured error %v", name, err)
		}
	}
	t.Run("state-file", func(t *testing.T) { corrupt(t, "point-0001.ckpt", 100) })
	t.Run("manifest", func(t *testing.T) { corrupt(t, ckpt.ManifestFile, 200) })
	t.Run("truncated-state", func(t *testing.T) {
		path := filepath.Join(dir, "point-0000.ckpt")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.WriteFile(path, data, 0o644) })
		if err := ckpt.Verify(dir); err == nil {
			t.Fatal("truncated state file verified successfully")
		}
	})
	t.Run("version-1-manifest", func(t *testing.T) {
		path := filepath.Join(dir, ckpt.ManifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, asVersion1(t, data), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.WriteFile(path, data, 0o644) })
		_, err = ckpt.Load(dir)
		if !errors.Is(err, ckpt.ErrFormat) {
			t.Fatalf("version 1 manifest: %v, want ErrFormat", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 2") {
			t.Errorf("version 1 manifest: error %q does not name both versions", msg)
		}
	})
}

// TestSetMatchRejectsMismatches: wrong policy, wrong plan and wrong
// program all fail Match with ErrMismatch, and so does Capture with a
// live-in summary recorded at a different PC than the machine's.
func TestSetMatchRejectsMismatches(t *testing.T) {
	examples := prog.Examples()
	p := examples[0]
	set := testSet(t, p)
	if err := set.Match(p, set.Plan, ckpt.Policy{Warmup: 1}); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("wrong policy: %v, want ErrMismatch", err)
	}
	otherPlan := *set.Plan
	otherPlan.Points = append([]sampling.Point(nil), set.Plan.Points...)
	otherPlan.Points[1].Weight = 0.25
	if err := set.Match(p, &otherPlan, set.Policy); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("wrong plan: %v, want ErrMismatch", err)
	}
	if err := set.Match(examples[1], set.Plan, set.Policy); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("wrong program: %v, want ErrMismatch", err)
	}

	_, m := captureAt(t, p, 1000, 0)
	li, err := liveInAt(p, m.PC)
	if err != nil {
		t.Fatal(err)
	}
	li.PC++
	if _, err := ckpt.Capture(m, 0, li); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("live-in at pc %d for a machine at pc %d: %v, want ErrMismatch", li.PC, m.PC, err)
	}
}

var hashSink string

// BenchmarkProgramHash times the program identity Set.Match checks on
// every checkpoint-backed plan execution: a SHA-256 over the whole
// disassembly of a small-scale suite program.
func BenchmarkProgramHash(b *testing.B) {
	p, err := bench.Program("art", bench.SizeSmall)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = ckpt.ProgramHash(p)
	}
}
