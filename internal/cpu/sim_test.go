package cpu

import (
	"strings"
	"testing"

	"mlpa/internal/bpred"
	"mlpa/internal/cache"
	"mlpa/internal/emu"
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// testConfig is a Table-I-A-like configuration assembled locally to
// avoid an import cycle with package config.
func testConfig() Config {
	cfg := Config{
		Name:        "test",
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     128,
		LSQSize:     64,
		Predictor:   bpred.KindCombined,
		BHTEntries:  8192,
		Caches: cache.HierarchyConfig{
			IL1:      cache.Config{Name: "il1", TotalBytes: 8 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
			DL1:      cache.Config{Name: "dl1", TotalBytes: 16 << 10, Assoc: 4, BlockBytes: 32, Latency: 2},
			L2:       cache.Config{Name: "ul2", TotalBytes: 1 << 20, Assoc: 4, BlockBytes: 32, Latency: 20},
			MemFirst: 150,
			MemNext:  10,
		},
		SchedWindow:       32,
		MispredictPenalty: 3,
	}
	cfg.FUs[isa.ClassIntALU] = 8
	cfg.FUs[isa.ClassLoad] = 4
	cfg.FUs[isa.ClassFPAdd] = 2
	cfg.FUs[isa.ClassIntMul] = 2
	cfg.FUs[isa.ClassFPMul] = 2
	return cfg
}

// testConfigB is Table I's configuration B, assembled locally for the
// same reason.
func testConfigB() Config {
	cfg := testConfig()
	cfg.Name = "testB"
	cfg.Predictor = bpred.KindBimodal
	cfg.BHTEntries = 2048
	cfg.Caches = cache.HierarchyConfig{
		IL1:      cache.Config{Name: "il1", TotalBytes: 32 << 10, Assoc: 1, BlockBytes: 32, Latency: 1},
		DL1:      cache.Config{Name: "dl1", TotalBytes: 128 << 10, Assoc: 2, BlockBytes: 32, Latency: 1},
		L2:       cache.Config{Name: "ul2", TotalBytes: 4 << 20, Assoc: 8, BlockBytes: 32, Latency: 30},
		MemFirst: 200,
		MemNext:  15,
	}
	cfg.FUs[isa.ClassIntALU] = 6
	cfg.FUs[isa.ClassLoad] = 2
	cfg.FUs[isa.ClassFPAdd] = 6
	cfg.FUs[isa.ClassIntMul] = 4
	cfg.FUs[isa.ClassFPMul] = 4
	return cfg
}

func runProgram(t *testing.T, src string) Result {
	t.Helper()
	p, err := prog.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p, 0)
	s := MustNew(testConfig())
	res, err := s.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counterLoop(trips int) string {
	return `
    addi r1, r0, ` + itoa(trips) + `
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.ROBSize = 1
	if err := bad.Validate(); err == nil {
		t.Error("tiny ROB accepted")
	}
	bad = cfg
	bad.FUs[isa.ClassIntALU] = 0
	if err := bad.Validate(); err == nil {
		t.Error("no-ALU config accepted")
	}
	// Every functional-unit pool needs a unit: an empty one would leave
	// its instructions waiting until the deadlock watchdog fires.
	for _, c := range []struct {
		class isa.Class
		name  string
	}{
		{isa.ClassIntMul, "integer multiply/divide"},
		{isa.ClassFPAdd, "FP add"},
		{isa.ClassFPMul, "FP multiply/divide"},
	} {
		bad = cfg
		bad.FUs[c.class] = 0
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("empty %s pool: error %v, want one naming the class", c.name, err)
		}
	}
	bad = cfg
	bad.SchedWindow = 2
	if err := bad.Validate(); err == nil {
		t.Error("window < issue width accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
	// Only Table I's two predictor kinds exist, and the error names
	// them.
	for _, kind := range []bpred.Kind{"pag", "perfect"} {
		bad = cfg
		bad.Predictor = kind
		_, err := New(bad)
		if err == nil || !strings.Contains(err.Error(), `"combined"`) || !strings.Contains(err.Error(), `"bimodal"`) {
			t.Errorf("predictor kind %q: error %v, want one naming both supported kinds", kind, err)
		}
	}
}

func TestRunCommitsAllInstructions(t *testing.T) {
	res := runProgram(t, counterLoop(100))
	want := uint64(1 + 100*3 + 1)
	if res.Insts != want {
		t.Errorf("Insts = %d, want %d", res.Insts, want)
	}
	if res.Cycles == 0 {
		t.Error("Cycles = 0")
	}
	if res.CPI() <= 0 {
		t.Errorf("CPI = %v", res.CPI())
	}
}

func TestCPIBounds(t *testing.T) {
	res := runProgram(t, counterLoop(2000))
	cpi := res.CPI()
	// A dependent-chain loop can't beat 1/width and shouldn't be
	// catastrophically slow on an 8-wide machine with warm caches.
	if cpi < 1.0/8 {
		t.Errorf("CPI = %v below theoretical minimum", cpi)
	}
	if cpi > 20 {
		t.Errorf("CPI = %v implausibly high for an ALU loop", cpi)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	// Serial chain: every mul depends on the previous one.
	serial := `
    addi r1, r0, 1
    addi r9, r0, 200
chain:
    mul r1, r1, r1
    mul r1, r1, r1
    mul r1, r1, r1
    mul r1, r1, r1
    addi r9, r9, -1
    bne r9, r0, chain
    halt
`
	// Independent muls: same op count, no chain.
	parallel := `
    addi r1, r0, 1
    addi r9, r0, 200
par:
    mul r2, r1, r1
    mul r3, r1, r1
    mul r4, r1, r1
    mul r5, r1, r1
    addi r9, r9, -1
    bne r9, r0, par
    halt
`
	rs := runProgram(t, serial)
	rp := runProgram(t, parallel)
	if rs.CPI() <= rp.CPI() {
		t.Errorf("serial CPI %v <= parallel CPI %v; dependences not modeled", rs.CPI(), rp.CPI())
	}
}

func TestCacheMissesRaiseCPI(t *testing.T) {
	// Streaming loads over 1 MiB (beyond L1, beyond nothing of L2) vs
	// repeatedly loading one word.
	missy := `
    addi r1, r0, 0
    addi r9, r0, 4000
miss:
    ld   r2, 0(r1)
    addi r1, r1, 4096
    addi r9, r9, -1
    bne  r9, r0, miss
    halt
`
	hitty := `
    addi r1, r0, 0
    addi r9, r0, 4000
hit:
    ld   r2, 0(r1)
    addi r3, r3, 1
    addi r9, r9, -1
    bne  r9, r0, hit
    halt
`
	rm := runProgram(t, missy)
	rh := runProgram(t, hitty)
	if rm.CPI() <= rh.CPI()*1.5 {
		t.Errorf("missing CPI %v not clearly above hitting CPI %v", rm.CPI(), rh.CPI())
	}
	if rm.DL1.MissRate() < 0.5 {
		t.Errorf("streaming loads DL1 miss rate = %v, want high", rm.DL1.MissRate())
	}
	if rh.DL1.MissRate() > 0.01 {
		t.Errorf("single-word loads DL1 miss rate = %v, want ~0", rh.DL1.MissRate())
	}
}

func TestBranchMispredictsRaiseCPI(t *testing.T) {
	// Data-dependent unpredictable branches via xorshift PRNG vs a
	// perfectly biased loop of the same size.
	random := `
    addi r1, r0, 12345
    addi r9, r0, 5000
rloop:
    shli r2, r1, 13
    xor  r1, r1, r2
    shri r2, r1, 7
    xor  r1, r1, r2
    shli r2, r1, 17
    xor  r1, r1, r2
    andi r3, r1, 1
    beq  r3, r0, skip
    addi r4, r4, 1
skip:
    addi r9, r9, -1
    bne  r9, r0, rloop
    halt
`
	biased := `
    addi r1, r0, 1
    addi r9, r0, 5000
bloop:
    addi r2, r2, 1
    addi r3, r3, 1
    addi r4, r4, 1
    addi r5, r5, 1
    addi r6, r6, 1
    addi r7, r7, 1
    addi r8, r8, 1
    beq  r0, r1, never
    addi r9, r9, -1
    bne  r9, r0, bloop
never:
    halt
`
	rr := runProgram(t, random)
	rb := runProgram(t, biased)
	if rr.Branch.Accuracy() >= 0.98 {
		t.Errorf("random branch accuracy = %v, want < 0.98", rr.Branch.Accuracy())
	}
	if rb.Branch.Accuracy() < 0.98 {
		t.Errorf("biased branch accuracy = %v, want >= 0.98", rb.Branch.Accuracy())
	}
	if rr.CPI() <= rb.CPI() {
		t.Errorf("random-branch CPI %v <= biased CPI %v; mispredict penalty not modeled", rr.CPI(), rb.CPI())
	}
}

func TestRunInChunksMatchesSingleRun(t *testing.T) {
	src := counterLoop(500)
	p, err := prog.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	// Single run.
	m1 := emu.New(p, 0)
	s1 := MustNew(testConfig())
	whole, err := s1.Run(m1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chunked runs on one persistent context.
	m2 := emu.New(p, 0)
	s2 := MustNew(testConfig())
	var sum Result
	for !m2.Halted {
		r, err := s2.Run(m2, 300)
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(r)
	}
	if sum.Insts != whole.Insts {
		t.Fatalf("chunked Insts %d != whole %d", sum.Insts, whole.Insts)
	}
	// Chunk boundaries drain the pipeline, so cycles differ slightly.
	ratio := float64(sum.Cycles) / float64(whole.Cycles)
	if ratio < 0.9 || ratio > 1.5 {
		t.Errorf("chunked cycles %d vs whole %d (ratio %v)", sum.Cycles, whole.Cycles, ratio)
	}
	if sum.L1.Accesses == 0 || sum.L2.Accesses == 0 {
		t.Error("chunked runs lost cache stats")
	}
}

func TestMaxInstsExact(t *testing.T) {
	p, err := prog.Assemble("t", counterLoop(1000))
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p, 0)
	s := MustNew(testConfig())
	res, err := s.Run(m, 123)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 123 {
		t.Errorf("Insts = %d, want 123", res.Insts)
	}
	if m.Insts != 123 {
		t.Errorf("machine advanced %d, want 123", m.Insts)
	}
	if m.Halted {
		t.Error("machine halted prematurely")
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store then immediately load the same address repeatedly: loads
	// should forward, keeping DL1 load misses minimal and CPI low.
	src := `
    addi r1, r0, 256
    addi r9, r0, 1000
sl:
    st   r9, 0(r1)
    ld   r2, 0(r1)
    addi r9, r9, -1
    bne  r9, r0, sl
    halt
`
	res := runProgram(t, src)
	if res.CPI() > 5 {
		t.Errorf("store/load loop CPI = %v, forwarding broken?", res.CPI())
	}
	if res.Insts != uint64(2+1000*4+1) {
		t.Errorf("Insts = %d", res.Insts)
	}
}

func TestFPLatencyVisible(t *testing.T) {
	fdivChain := `
    addi r1, r0, 3
    cvtif f1, r1
    cvtif f2, r1
    addi r9, r0, 300
fl:
    fdiv f1, f1, f2
    addi r9, r9, -1
    bne  r9, r0, fl
    halt
`
	faddChain := `
    addi r1, r0, 3
    cvtif f1, r1
    cvtif f2, r1
    addi r9, r0, 300
al:
    fadd f1, f1, f2
    addi r9, r9, -1
    bne  r9, r0, al
    halt
`
	rd := runProgram(t, fdivChain)
	ra := runProgram(t, faddChain)
	if rd.CPI() <= ra.CPI() {
		t.Errorf("fdiv chain CPI %v <= fadd chain CPI %v", rd.CPI(), ra.CPI())
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Insts: 10, Cycles: 20, L1: cache.Stats{Accesses: 5, Misses: 1}}
	b := Result{Insts: 30, Cycles: 40, L1: cache.Stats{Accesses: 7, Misses: 2}}
	a.Add(b)
	if a.Insts != 40 || a.Cycles != 60 {
		t.Errorf("Add: %+v", a)
	}
	if a.L1.Accesses != 12 || a.L1.Misses != 3 {
		t.Errorf("Add stats: %+v", a.L1)
	}
}

func TestResultRates(t *testing.T) {
	r := Result{Insts: 100, Cycles: 250}
	if r.CPI() != 2.5 {
		t.Errorf("CPI = %v", r.CPI())
	}
	if r.IPC() != 0.4 {
		t.Errorf("IPC = %v", r.IPC())
	}
	var zero Result
	if zero.CPI() != 0 || zero.IPC() != 0 {
		t.Error("zero-result rates not 0")
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() Result { return runProgram(t, counterLoop(777)) }
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.Insts != r2.Insts {
		t.Errorf("non-deterministic timing: %+v vs %+v", r1, r2)
	}
	if r1.L1 != r2.L1 || r1.L2 != r2.L2 {
		t.Error("non-deterministic cache stats")
	}
}

func TestLSQPressure(t *testing.T) {
	// 100 back-to-back independent stores exceed the 64-entry LSQ; the
	// simulator must make progress without deadlock.
	src := `
    addi r9, r0, 50
outer:
    st r1, 0(r0)
    st r1, 8(r0)
    st r1, 16(r0)
    st r1, 24(r0)
    st r1, 32(r0)
    st r1, 40(r0)
    st r1, 48(r0)
    st r1, 56(r0)
    addi r9, r9, -1
    bne r9, r0, outer
    halt
`
	res := runProgram(t, src)
	if res.Insts != uint64(1+50*10+1) {
		t.Errorf("Insts = %d", res.Insts)
	}
}

func TestRunWindowMeasuresMiddle(t *testing.T) {
	p, err := prog.Assemble("t", counterLoop(3000))
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p, 0)
	s := MustNew(testConfig())
	res, err := s.RunWindow(m, 500, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 1000 {
		t.Errorf("measured %d instructions, want 1000", res.Insts)
	}
	// The machine advanced through lead + window + tail.
	if m.Insts != 2000 {
		t.Errorf("machine at %d, want 2000", m.Insts)
	}
	if res.Cycles == 0 || res.CPI() <= 0 {
		t.Errorf("window result = %+v", res)
	}
}

func TestRunWindowLeadRemovesRamp(t *testing.T) {
	// The same region measured with and without a lead-in: the cold
	// pipeline ramp should make the no-lead measurement slower.
	run := func(lead uint64) Result {
		p, err := prog.Assemble("t", counterLoop(3000))
		if err != nil {
			t.Fatal(err)
		}
		m := emu.New(p, 0)
		s := MustNew(testConfig())
		if lead == 0 {
			if _, err := m.Run(512); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.RunWindow(m, lead, 2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := run(512)
	cold := run(0)
	if warm.CPI() >= cold.CPI() {
		t.Errorf("lead-in CPI %v not below cold CPI %v", warm.CPI(), cold.CPI())
	}
}

func TestRunWindowHaltInsideTail(t *testing.T) {
	p, err := prog.Assemble("t", counterLoop(100)) // 302 insts total
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p, 0)
	s := MustNew(testConfig())
	res, err := s.RunWindow(m, 50, 200, 1000) // tail exceeds program
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 200 {
		t.Errorf("measured %d, want 200", res.Insts)
	}
	if !m.Halted {
		t.Error("program should have halted inside the tail")
	}
}

func TestWarmCodeLeavesDataCold(t *testing.T) {
	// 200 strided loads cover 12.8 KiB — resident in the 16 KiB DL1
	// once touched.
	src := `
    addi r9, r0, 200
w:
    ld   r2, 0(r1)
    addi r1, r1, 64
    addi r9, r9, -1
    bne  r9, r0, w
    halt
`
	p, err := prog.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	// WarmCode replay must not pre-fill the data cache: a detailed run
	// after WarmCode should still see DL1 misses, while after full
	// Warm it should not.
	measure := func(full bool) float64 {
		m := emu.New(p, 0)
		s := MustNew(testConfig())
		clone := m.Clone()
		var err error
		if full {
			err = s.Warm(clone, 4000)
		} else {
			err = s.WarmCode(clone, 4000)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(m, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res.DL1.MissRate()
	}
	codeOnly := measure(false)
	fullWarm := measure(true)
	if codeOnly <= fullWarm {
		t.Errorf("WarmCode DL1 miss rate %v not above full-warm %v", codeOnly, fullWarm)
	}
	if codeOnly < 0.2 {
		t.Errorf("WarmCode erased compulsory data misses: miss rate %v", codeOnly)
	}
}

func TestWarmMeasured(t *testing.T) {
	p, err := prog.Assemble("t", counterLoop(500))
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p, 0)
	s := MustNew(testConfig())
	res, err := s.WarmMeasured(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 1000 {
		t.Errorf("Insts = %d, want 1000", res.Insts)
	}
	if res.Cycles != 0 {
		t.Errorf("warm mode reported %d cycles", res.Cycles)
	}
	if res.Branch.Lookups == 0 || res.IL1.Accesses == 0 {
		t.Errorf("warm mode lost stats: %+v", res)
	}
	// Runs to halt when the budget exceeds the program.
	res2, err := s.WarmMeasured(m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Error("machine not halted")
	}
	if res2.Insts == 0 {
		t.Error("second warm region empty")
	}
}
