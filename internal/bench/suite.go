package bench

import (
	"fmt"
	"sync"

	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// Size selects the suite scale. All presets preserve the benchmarks'
// phase *structure*; they differ in how many emulated instructions one
// work quantum expands to (see DESIGN.md on nominal-to-emulated
// scaling).
type Size int

// Suite scale presets.
const (
	// SizeTiny is for unit tests: ~0.3M instructions per benchmark.
	SizeTiny Size = iota
	// SizeSmall is for Go benchmarks: ~1.2M instructions.
	SizeSmall
	// SizeRef is the full harness scale: ~5M instructions.
	SizeRef
)

// String names the preset.
func (s Size) String() string {
	switch s {
	case SizeTiny:
		return "tiny"
	case SizeSmall:
		return "small"
	case SizeRef:
		return "ref"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// ParseSize is the inverse of String: it returns the preset with the
// given name.
func ParseSize(name string) (Size, error) {
	for _, s := range []Size{SizeTiny, SizeSmall, SizeRef} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want tiny, small or ref)", name)
}

type sizeParams struct {
	unit int64 // kernel trip multiplier (quantum ~1500*unit insts)
	// iterScale multiplies each spec's outer iteration count (except
	// fixed-iteration specs like gcc), so coarse points shrink
	// relative to the program the way SPEC2000 iterations relate to
	// full runs. The fine interval is 40*unit, making one outer
	// iteration ~37 fine intervals and pushing iterations above the
	// multi-level re-sampling threshold (30 intervals).
	iterScale int
}

// Kernel working sets are deliberately L1-resident (chase, mixed) or
// warm-state-invariant (stream never revisits a block): at the suite's
// scaled interval lengths, cross-iteration L2 warming would make early
// simulation points systematically unrepresentative, a transient that
// is negligible at the paper's 444M-instruction coarse points.
// The buffers are small (1 KiB) so their one-time fill transient
// spans only a sliver of the first iteration.
const (
	chaseWords = 128 // 1 KiB
	mixedWords = 128 // 1 KiB
)

func params(s Size) sizeParams {
	switch s {
	case SizeSmall:
		return sizeParams{unit: 8, iterScale: 8}
	case SizeRef:
		return sizeParams{unit: 16, iterScale: 12}
	default:
		return sizeParams{unit: 4, iterScale: 1}
	}
}

func (pp sizeParams) fineLen() uint64 { return uint64(40 * pp.unit) }

// FineInterval returns the fine-grained ("10M nominal") interval
// length for a preset.
func FineInterval(s Size) uint64 { return params(s).fineLen() }

// NominalPerInst returns how many of the paper's nominal instructions
// one emulated instruction stands for, defined so that one fine
// interval corresponds to the paper's 10M-instruction SimPoint
// interval.
func NominalPerInst(s Size) float64 { return 10e6 / float64(params(s).fineLen()) }

// epoch assigns a repeating kernel pattern to iterations starting at
// From. Mul scales kernel trip counts within the epoch (gcc's dominant
// iteration uses a large Mul on a one-iteration epoch).
type epoch struct {
	From    int
	Pattern []string // kernel names, cycled by (i-From) % len
	Mul     int64    // 0 means 1
}

// Spec describes one synthetic benchmark and the SPEC2000 traits it
// models.
type Spec struct {
	Name  string
	Model string // which SPEC2000 benchmark's published traits it encodes
	// Iterations is the outer-loop trip count (gcc: 56, as reported).
	Iterations int
	// Epochs is the phase script.
	Epochs []epoch
	// Phases is the number of distinct coarse phases the script
	// creates (paper Section III: avg 3; gzip 4, fma3d 5, equake 6).
	Phases int
	// LastPhasePos is the approximate position (fraction of
	// instructions) where the last coarse phase first appears (paper:
	// avg 17%; gcc 86%, art 47%, bzip2 36%).
	LastPhasePos float64
	// FP marks floating-point-suite models.
	FP bool
	// FixedIterations pins the iteration count across size presets
	// (gcc's 56 reference-input iterations are themselves a reported
	// trait).
	FixedIterations bool
}

func (s *Spec) validate() error {
	if s.Iterations < 2 {
		return fmt.Errorf("bench %s: %d iterations", s.Name, s.Iterations)
	}
	if len(s.Epochs) == 0 || s.Epochs[0].From != 0 {
		return fmt.Errorf("bench %s: first epoch must start at 0", s.Name)
	}
	for i := 1; i < len(s.Epochs); i++ {
		if s.Epochs[i].From <= s.Epochs[i-1].From {
			return fmt.Errorf("bench %s: epochs not increasing", s.Name)
		}
	}
	for _, e := range s.Epochs {
		if len(e.Pattern) == 0 {
			return fmt.Errorf("bench %s: empty pattern", s.Name)
		}
	}
	return nil
}

// Suite returns the benchmark catalog in table order.
func Suite() []*Spec {
	return []*Spec{
		{
			Name: "gzip", Model: "gzip (4 coarse phases)",
			Iterations: 48, Phases: 4, LastPhasePos: 0.08,
			Epochs: []epoch{{From: 0, Pattern: []string{"mixed", "alu", "branchy", "stream"}}},
		},
		{
			Name: "gcc", Model: "gcc (56 variable iterations, one 60% iteration, last phase at 86%)",
			Iterations: 56, Phases: 3, LastPhasePos: 0.86, FixedIterations: true,
			Epochs: []epoch{
				{From: 0, Pattern: []string{"alu"}},
				{From: 20, Pattern: []string{"mixed"}, Mul: 139},
				{From: 21, Pattern: []string{"alu"}},
				{From: 38, Pattern: []string{"branchy"}},
			},
		},
		{
			Name: "vpr", Model: "vpr (place phase, then route joins)",
			Iterations: 48, Phases: 2, LastPhasePos: 0.17,
			Epochs: []epoch{
				{From: 0, Pattern: []string{"mixed"}},
				{From: 8, Pattern: []string{"mixed", "branchy"}},
			},
		},
		{
			Name: "mcf", Model: "mcf (pointer-chasing, 2 phases)",
			Iterations: 48, Phases: 2, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"chase", "chase", "mixed"}}},
		},
		{
			Name: "crafty", Model: "crafty (branch-heavy, 2 phases)",
			Iterations: 48, Phases: 2, LastPhasePos: 0.05,
			Epochs: []epoch{{From: 0, Pattern: []string{"branchy", "branchy", "alu"}}},
		},
		{
			Name: "parser", Model: "parser (2 phases)",
			Iterations: 60, Phases: 2, LastPhasePos: 0.03,
			Epochs: []epoch{{From: 0, Pattern: []string{"mixed", "branchy"}}},
		},
		{
			Name: "eon", Model: "eon (flat rendering profile, 2 phases)",
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"alu2", "mixed"}}},
		},
		{
			Name: "perlbmk", Model: "perlbmk (interpreter dispatch, branch-heavy)",
			Iterations: 52, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"branchy", "alu"}}},
		},
		{
			Name: "gap", Model: "gap (computer algebra, 3 phases)",
			Iterations: 48, Phases: 3, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"alu", "mixed", "alu2"}}},
		},
		{
			Name: "vortex", Model: "vortex (complex, 3 phases)",
			Iterations: 48, Phases: 3, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"mixed", "alu", "ilp"}}},
		},
		{
			Name: "bzip2", Model: "bzip2 (last phase first appears at 36%)",
			Iterations: 48, Phases: 3, LastPhasePos: 0.36,
			Epochs: []epoch{
				{From: 0, Pattern: []string{"stream", "alu"}},
				{From: 17, Pattern: []string{"branchy", "stream", "alu"}},
			},
		},
		{
			Name: "twolf", Model: "twolf (2 phases)",
			Iterations: 48, Phases: 2, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"mixed", "mixed", "branchy"}}},
		},
		{
			Name: "wupwise", Model: "wupwise (FP, 2 phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "alu"}}},
		},
		{
			Name: "swim", Model: "swim (FP streaming, 2 phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"stream", "fp"}}},
		},
		{
			Name: "mgrid", Model: "mgrid (FP multigrid streaming)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"stream", "fp2"}}},
		},
		{
			Name: "applu", Model: "applu (FP solver, 3 phases)", FP: true,
			Iterations: 48, Phases: 3, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"stream", "fp", "mixed"}}},
		},
		{
			Name: "mesa", Model: "mesa (rendering, 2 phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"mixed", "fp"}}},
		},
		{
			Name: "galgel", Model: "galgel (FP fluid dynamics, 2 phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp2", "stream"}}},
		},
		{
			Name: "art", Model: "art (last phase first appears at 47%)", FP: true,
			Iterations: 48, Phases: 3, LastPhasePos: 0.47,
			Epochs: []epoch{
				{From: 0, Pattern: []string{"stream", "mixed"}},
				{From: 23, Pattern: []string{"fp", "stream", "mixed"}},
			},
		},
		{
			Name: "equake", Model: "equake (6 coarse phases)", FP: true,
			Iterations: 48, Phases: 6, LastPhasePos: 0.12,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "alu", "mixed", "fp2", "alu2", "branchy"}}},
		},
		{
			Name: "fma3d", Model: "fma3d (5 coarse phases)", FP: true,
			Iterations: 50, Phases: 5, LastPhasePos: 0.10,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "alu2", "mixed", "fp2", "ilp"}}},
		},
		{
			Name: "lucas", Model: "lucas (chaotic fine-grained, smooth coarse-grained)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.15,
			Epochs: []epoch{
				{From: 0, Pattern: []string{"fp"}},
				{From: 7, Pattern: []string{"burst"}},
			},
		},
		{
			Name: "facerec", Model: "facerec (FP image processing, 3 phases)", FP: true,
			Iterations: 48, Phases: 3, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "mixed", "ilp"}}},
		},
		{
			Name: "ammp", Model: "ammp (2 phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "mixed"}}},
		},
		{
			Name: "sixtrack", Model: "sixtrack (accelerator physics, 2 similar FP phases)", FP: true,
			Iterations: 48, Phases: 2, LastPhasePos: 0.04,
			Epochs: []epoch{{From: 0, Pattern: []string{"fp", "fp2"}}},
		},
		{
			Name: "apsi", Model: "apsi (meteorology, 3 phases)", FP: true,
			Iterations: 48, Phases: 3, LastPhasePos: 0.06,
			Epochs: []epoch{{From: 0, Pattern: []string{"stream", "alu2", "fp"}}},
		},
	}
}

// ByName returns the suite spec with the given name.
func ByName(name string) (*Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Program generates (and caches) the executable of the suite
// benchmark name at a size.
func Program(name string, size Size) (*prog.Program, error) {
	s, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return s.Program(size)
}

// Names returns the suite benchmark names in order.
func Names() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}

var progCache sync.Map // "name/size" -> *prog.Program

// Program generates (and caches) the executable for a spec at a size.
func (s *Spec) Program(size Size) (*prog.Program, error) {
	key := fmt.Sprintf("%s/%d", s.Name, size)
	if p, ok := progCache.Load(key); ok {
		return p.(*prog.Program), nil
	}
	p, err := s.build(size)
	if err != nil {
		return nil, err
	}
	progCache.Store(key, p)
	return p, nil
}

// MustProgram is Program, panicking on generation errors.
func (s *Spec) MustProgram(size Size) *prog.Program {
	p, err := s.Program(size)
	if err != nil {
		panic(err)
	}
	return p
}

func (s *Spec) kernels() map[string]kernel {
	return map[string]kernel{
		"alu":     aluKernel(),
		"alu2":    aluKernel2(),
		"ilp":     ilpKernel(),
		"stream":  streamKernel(),
		"chase":   chaseKernel(chaseWords),
		"branchy": branchyKernel(),
		"fp":      fpKernel(),
		"fp2":     fpKernel2(),
		"mixed":   mixedKernel(mixedWords),
		"burst":   burstKernel(),
	}
}

// build generates the program: kernel init code, then an outer loop
// whose body dispatches on the iteration counter per the phase script.
func (s *Spec) build(size Size) (*prog.Program, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	pp := params(size)
	b := prog.NewBuilder(s.Name)
	g := &gen{b: b, unit: pp.unit, dataCursor: 64}
	kerns := s.kernels()

	// Which kernels does the script use?
	used := map[string]bool{}
	for _, e := range s.Epochs {
		for _, k := range e.Pattern {
			if _, ok := kerns[k]; !ok {
				return nil, fmt.Errorf("bench %s: unknown kernel %q", s.Name, k)
			}
			used[k] = true
		}
	}
	// One-time kernel initialization (chase permutation, buffers).
	order := []string{"alu", "alu2", "ilp", "stream", "chase", "branchy", "fp", "fp2", "mixed", "burst"}
	for _, name := range order {
		if used[name] && kerns[name].init != nil {
			kerns[name].init(g)
		}
	}
	// Cursor for the shared conflict-reuse section, starting in a
	// virtual region far above both the low data region and the
	// stream region.
	conflictCursor := g.reserve(8)
	b.Li(2, 1<<32)
	b.Li(3, conflictCursor)
	b.St(2, 3, 0)

	// Iteration scaling: epoch boundaries scale with the iteration
	// count so phase positions are preserved across presets.
	scale := params(size).iterScale
	if s.FixedIterations {
		scale = 1
	}
	n := s.Iterations * scale

	// Outer loop.
	b.Li(regIter, 0)
	b.Li(regN, int64(n))
	b.Label("outer")

	// Dispatch: locate the active epoch, set the multiplier, pick the
	// pattern entry, jump to the kernel body.
	for ei, e := range s.Epochs {
		epochEnd := n
		if ei+1 < len(s.Epochs) {
			epochEnd = s.Epochs[ei+1].From * scale
		}
		next := b.AutoLabel("epoch")
		b.Slti(2, regIter, int64(epochEnd))
		b.Beq(2, isa.RZero, next)
		mul := e.Mul
		if mul == 0 {
			mul = 1
		}
		b.Li(regMul, mul)
		if len(e.Pattern) == 1 {
			b.Jmp("k_" + e.Pattern[0])
		} else {
			b.Addi(3, regIter, int64(-e.From*scale))
			b.Li(4, int64(len(e.Pattern)))
			b.Rem(3, 3, 4)
			for pi := 0; pi < len(e.Pattern)-1; pi++ {
				b.Addi(4, 3, int64(-pi))
				b.Beq(4, isa.RZero, "k_"+e.Pattern[pi])
			}
			b.Jmp("k_" + e.Pattern[len(e.Pattern)-1])
		}
		b.Label(next)
	}
	// Unreachable fallthrough guard: treat as tail.
	b.Jmp("tail")

	// Kernel bodies, shared across epochs.
	for _, name := range order {
		if !used[name] {
			continue
		}
		b.Label("k_" + name)
		kerns[name].body(g)
		b.Jmp("tail")
	}

	// Variant pad: every iteration additionally runs one of five small
	// distinct code chunks selected by i mod 5 (~7% of an iteration).
	// Real programs' fixed-length intervals fall into many more BBV
	// subclusters than there are coarse phases; the rotating pads
	// recreate that: fine-grained clustering finds the pad subclusters
	// (whose representatives scatter uniformly over the run, putting
	// the last fine point late, as in SPEC2000), while their small
	// share leaves coarse-grained iteration signatures grouped by
	// kernel.
	b.Label("tail")
	conflictReuse(g, conflictCursor)
	b.Li(4, 5)
	b.Rem(3, regIter, 4)
	for v := 0; v < 4; v++ {
		b.Addi(4, 3, int64(-v))
		b.Beq(4, isa.RZero, fmt.Sprintf("pad_%d", v))
	}
	b.Jmp("pad_4")
	padOps := []func(){
		func() { b.Addi(13, 13, 3); b.Addi(14, 14, 5); b.Xor(15, 15, 13) },
		func() { b.Mul(13, 13, 13); b.Addi(13, 13, 1); b.Or(14, 14, 13) },
		func() { b.Shli(13, 14, 2); b.Shri(14, 13, 1); b.Addi(14, 14, 9) },
		func() { b.Xori(13, 13, 255); b.Sub(14, 14, 13); b.Addi(14, 14, 2) },
		func() { b.Slt(13, 14, 15); b.Add(14, 14, 13); b.Xori(15, 15, 7) },
	}
	// Pad sections are ~interval-sized (fine-grained clustering sees
	// them as distinct subphases) but only ~2% of an iteration, so
	// coarse-grained clustering still groups iterations by kernel.
	for v, ops := range padOps {
		b.Label(fmt.Sprintf("pad_%d", v))
		b.Li(5, 6*pp.unit)
		g.loop(fmt.Sprintf("pad%d", v), 5, ops)
		if v < len(padOps)-1 {
			b.Jmp("tail2")
		}
	}

	b.Label("tail2")
	b.Addi(regIter, regIter, 1)
	b.Blt(regIter, regN, "outer")
	b.Halt()

	return b.Build()
}

// OuterLoopHead returns the PC of the generated outer loop head (the
// coarse iteration boundary the dynamic profiler should rediscover).
func OuterLoopHead(p *prog.Program) int64 {
	return p.Labels["outer"]
}
