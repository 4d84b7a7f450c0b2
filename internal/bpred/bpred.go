// Package bpred implements the branch predictors of Table I's two
// configurations: the combined predictor (bimodal and gshare under a
// meta-chooser, "Combined, 8K BHT entries") of configuration A and the
// bimodal predictor of configuration B, plus a branch target buffer and
// return-address stack.
package bpred

import "fmt"

// Outcome is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// historyBits is the length of the combined predictor's global history.
const historyBits = 12

// dirPredictor predicts conditional-branch direction. bim is a
// PC-indexed table of 2-bit counters. The combined kind adds gsh, a
// table indexed by the PC XOR historyBits of global history, and meta,
// a PC-indexed chooser whose counter at 2 or above picks gsh over bim
// (SimpleScalar's "comb"); both are nil for the bimodal kind. Every
// table has the same power-of-two size, mask+1.
type dirPredictor struct {
	bim     []counter
	gsh     []counter
	meta    []counter
	mask    int64
	history int64
}

// predict returns the predicted direction of the branch at pc, then
// trains with the resolved direction: both components, and the chooser
// toward whichever component was right when they disagreed.
func (d *dirPredictor) predict(pc int64, taken bool) bool {
	bi := pc & d.mask
	bp := d.bim[bi].taken()
	d.bim[bi] = d.bim[bi].update(taken)
	if d.gsh == nil {
		return bp
	}
	gi := (pc ^ d.history) & d.mask
	gp := d.gsh[gi].taken()
	pred := bp
	if d.meta[bi].taken() {
		pred = gp
	}
	if bp != gp {
		d.meta[bi] = d.meta[bi].update(gp == taken)
	}
	d.gsh[gi] = d.gsh[gi].update(taken)
	d.history <<= 1
	if taken {
		d.history |= 1
	}
	d.history &= 1<<historyBits - 1
	return pred
}

// reset returns every counter to weakly taken, as SimpleScalar
// initializes them, and empties the global history.
func (d *dirPredictor) reset() {
	for _, t := range [...][]counter{d.bim, d.gsh, d.meta} {
		for i := range t {
			t[i] = 2
		}
	}
	d.history = 0
}

// BTB is a direct-mapped, tagged branch target buffer.
type BTB struct {
	tags    []int64
	targets []int64
	mask    int64
}

// NewBTB creates a BTB with the given entry count (rounded to a power
// of two).
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	tags := make([]int64, n)
	for i := range tags {
		tags[i] = -1
	}
	return &BTB{tags: tags, targets: make([]int64, n), mask: int64(n - 1)}
}

// Lookup returns the predicted target for the branch at pc, if present.
func (b *BTB) Lookup(pc int64) (target int64, ok bool) {
	i := pc & b.mask
	if b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the resolved target of a taken branch.
func (b *BTB) Update(pc, target int64) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// RAS is a return-address stack for call/return prediction.
type RAS struct {
	stack []int64
	top   int
	size  int
}

// NewRAS creates a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth < 1 {
		depth = 1
	}
	return &RAS{stack: make([]int64, depth), size: depth}
}

// Push records a return address at a call.
func (r *RAS) Push(addr int64) {
	r.stack[r.top%r.size] = addr
	r.top++
}

// Pop predicts the target of a return. ok is false when the stack is
// empty.
func (r *RAS) Pop() (addr int64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%r.size], true
}

// Stats tracks prediction accuracy.
type Stats struct {
	Lookups      uint64
	DirMisses    uint64 // wrong direction
	TargetMisses uint64 // right direction, wrong/unknown target
}

// Mispredicts returns total mispredictions.
func (s Stats) Mispredicts() uint64 { return s.DirMisses + s.TargetMisses }

// Accuracy returns the fraction of correct predictions.
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts())/float64(s.Lookups)
}

// Unit bundles direction predictor, BTB and RAS into the front-end
// branch unit used by the detailed simulator.
type Unit struct {
	dir   dirPredictor
	BTB   *BTB
	RAS   *RAS
	stats Stats
}

// Kind selects a direction predictor family for NewUnit.
type Kind string

// Supported predictor kinds: Table I's configuration A uses the
// combined predictor, configuration B the bimodal one.
const (
	KindCombined Kind = "combined"
	KindBimodal  Kind = "bimodal"
)

// NewUnit builds a branch unit with bhtEntries direction entries per
// table (rounded up to a power of two; Table I: 8K), a 512-entry BTB
// and an 8-deep RAS.
func NewUnit(kind Kind, bhtEntries int) (*Unit, error) {
	if kind != KindCombined && kind != KindBimodal {
		return nil, fmt.Errorf("bpred: unknown predictor kind %q (want %q or %q)", kind, KindCombined, KindBimodal)
	}
	n := 1
	for n < bhtEntries {
		n <<= 1
	}
	d := dirPredictor{bim: make([]counter, n), mask: int64(n - 1)}
	if kind == KindCombined {
		d.gsh, d.meta = make([]counter, n), make([]counter, n)
	}
	d.reset()
	return &Unit{dir: d, BTB: NewBTB(512), RAS: NewRAS(8)}, nil
}

// CopyFrom overwrites u's predictor state with src's — direction
// tables and global history, BTB, RAS and statistics —
// reusing u's storage, so u predicts exactly as src would from here
// on. Both units must come from NewUnit with the same kind and entry
// count.
func (u *Unit) CopyFrom(src *Unit) error {
	d, s := &u.dir, &src.dir
	if len(d.bim) != len(s.bim) || len(d.gsh) != len(s.gsh) ||
		len(u.BTB.tags) != len(src.BTB.tags) || u.RAS.size != src.RAS.size {
		return fmt.Errorf("bpred: copy between units of different kind or size")
	}
	copy(d.bim, s.bim)
	copy(d.gsh, s.gsh)
	copy(d.meta, s.meta)
	d.history = s.history
	copy(u.BTB.tags, src.BTB.tags)
	copy(u.BTB.targets, src.BTB.targets)
	copy(u.RAS.stack, src.RAS.stack)
	u.RAS.top = src.RAS.top
	u.stats = src.stats
	return nil
}

// Reset returns u to the state NewUnit leaves: every direction counter
// weakly taken, no global history, an empty BTB and return-address
// stack, and zero statistics.
func (u *Unit) Reset() {
	u.dir.reset()
	for i := range u.BTB.tags {
		u.BTB.tags[i] = -1
	}
	clear(u.BTB.targets)
	clear(u.RAS.stack)
	u.RAS.top = 0
	u.stats = Stats{}
}

// Stats returns prediction statistics.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats zeroes statistics without clearing predictor state.
func (u *Unit) ResetStats() { u.stats = Stats{} }

// PredictCond predicts a conditional branch at pc and immediately
// trains with the resolved outcome (execution-driven simulation knows
// the truth at fetch time; the timing model charges the misprediction
// penalty separately). Returns whether the prediction was correct.
func (u *Unit) PredictCond(pc int64, taken bool, target int64) bool {
	u.stats.Lookups++
	pred := u.dir.predict(pc, taken)
	correct := pred == taken
	if correct && taken {
		// Direction right; target must come from the BTB.
		if t, ok := u.BTB.Lookup(pc); !ok || t != target {
			u.stats.TargetMisses++
			correct = false
		}
	}
	if !correct {
		if pred != taken {
			u.stats.DirMisses++
		}
	}
	if taken {
		u.BTB.Update(pc, target)
	}
	return correct
}

// PredictJump handles unconditional direct jumps (always taken; target
// from BTB on first sight).
func (u *Unit) PredictJump(pc, target int64) bool {
	u.stats.Lookups++
	t, ok := u.BTB.Lookup(pc)
	correct := ok && t == target
	if !correct {
		u.stats.TargetMisses++
	}
	u.BTB.Update(pc, target)
	return correct
}

// PredictCall records the return address and predicts like a jump.
func (u *Unit) PredictCall(pc, target, returnAddr int64) bool {
	u.RAS.Push(returnAddr)
	return u.PredictJump(pc, target)
}

// PredictReturn predicts an indirect jump via the RAS.
func (u *Unit) PredictReturn(pc, target int64) bool {
	u.stats.Lookups++
	t, ok := u.RAS.Pop()
	correct := ok && t == target
	if !correct {
		u.stats.TargetMisses++
	}
	return correct
}
