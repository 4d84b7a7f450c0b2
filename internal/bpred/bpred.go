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

// DirPredictor predicts conditional-branch direction.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc int64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc int64, taken bool)
	// Name identifies the predictor.
	Name() string
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  int64
}

// NewBimodal creates a bimodal predictor with entries counters
// (rounded up to a power of two). Counters initialize weakly taken,
// matching SimpleScalar.
func NewBimodal(entries int) *Bimodal {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: int64(n - 1)}
}

// Name implements DirPredictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc int64) bool { return b.table[pc&b.mask].taken() }

// Update implements DirPredictor.
func (b *Bimodal) Update(pc int64, taken bool) {
	i := pc & b.mask
	b.table[i] = b.table[i].update(taken)
}

// GShare is a global-history predictor XOR-indexing a counter table.
type GShare struct {
	table   []counter
	mask    int64
	history int64
	bits    uint
}

// NewGShare creates a gshare predictor with entries counters and
// historyBits of global history.
func NewGShare(entries int, historyBits uint) *GShare {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: int64(n - 1), bits: historyBits}
}

// Name implements DirPredictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) index(pc int64) int64 {
	return (pc ^ g.history) & g.mask
}

// Predict implements DirPredictor.
func (g *GShare) Predict(pc int64) bool { return g.table[g.index(pc)].taken() }

// Update implements DirPredictor.
func (g *GShare) Update(pc int64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.bits) - 1
}

// Combined is SimpleScalar's "comb" predictor: bimodal and gshare in
// parallel with a bimodal meta-chooser selecting between them per
// branch.
type Combined struct {
	bim  *Bimodal
	gsh  *GShare
	meta []counter // >=2 chooses gshare
	mask int64
}

// NewCombined creates a combined predictor; entries sizes all three
// tables (Table I: 8K BHT entries).
func NewCombined(entries int) *Combined {
	n := 1
	for n < entries {
		n <<= 1
	}
	meta := make([]counter, n)
	for i := range meta {
		meta[i] = 2
	}
	return &Combined{
		bim:  NewBimodal(n),
		gsh:  NewGShare(n, 12),
		meta: meta,
		mask: int64(n - 1),
	}
}

// Name implements DirPredictor.
func (c *Combined) Name() string { return "combined" }

// Predict implements DirPredictor.
func (c *Combined) Predict(pc int64) bool {
	if c.meta[pc&c.mask].taken() {
		return c.gsh.Predict(pc)
	}
	return c.bim.Predict(pc)
}

// Update implements DirPredictor: trains both components and moves the
// chooser toward whichever component was right.
func (c *Combined) Update(pc int64, taken bool) {
	bp := c.bim.Predict(pc)
	gp := c.gsh.Predict(pc)
	if bp != gp {
		i := pc & c.mask
		c.meta[i] = c.meta[i].update(gp == taken)
	}
	c.bim.Update(pc, taken)
	c.gsh.Update(pc, taken)
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
	Dir   DirPredictor
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

// NewUnit builds a branch unit with bhtEntries direction entries, a
// 512-entry BTB and an 8-deep RAS.
func NewUnit(kind Kind, bhtEntries int) (*Unit, error) {
	var dir DirPredictor
	switch kind {
	case KindCombined:
		dir = NewCombined(bhtEntries)
	case KindBimodal:
		dir = NewBimodal(bhtEntries)
	default:
		return nil, fmt.Errorf("bpred: unknown predictor kind %q (want %q or %q)", kind, KindCombined, KindBimodal)
	}
	return &Unit{Dir: dir, BTB: NewBTB(512), RAS: NewRAS(8)}, nil
}

// CopyFrom overwrites u's predictor state with src's — direction
// tables and global history, BTB, RAS and statistics —
// reusing u's storage, so u predicts exactly as src would from here
// on. Both units must come from NewUnit with the same kind and entry
// count.
func (u *Unit) CopyFrom(src *Unit) error {
	if len(u.BTB.tags) != len(src.BTB.tags) || u.RAS.size != src.RAS.size {
		return fmt.Errorf("bpred: copy between units of different shape (%s, %s)", u.Dir.Name(), src.Dir.Name())
	}
	if !copyDir(u.Dir, src.Dir) {
		return fmt.Errorf("bpred: cannot copy a %s predictor into a %s one", src.Dir.Name(), u.Dir.Name())
	}
	copy(u.BTB.tags, src.BTB.tags)
	copy(u.BTB.targets, src.BTB.targets)
	copy(u.RAS.stack, src.RAS.stack)
	u.RAS.top = src.RAS.top
	u.stats = src.stats
	return nil
}

// Reset returns u to the state NewUnit leaves: every direction counter
// weakly taken, no global history, an empty BTB and return-address
// stack, and zero statistics. It fails only for a direction predictor
// NewUnit does not build.
func (u *Unit) Reset() error {
	if !resetDir(u.Dir) {
		return fmt.Errorf("bpred: cannot reset a %s predictor", u.Dir.Name())
	}
	for i := range u.BTB.tags {
		u.BTB.tags[i] = -1
	}
	clear(u.BTB.targets)
	clear(u.RAS.stack)
	u.RAS.top = 0
	u.stats = Stats{}
	return nil
}

// resetDir returns d's counters to weakly taken and its history to
// empty, and reports whether it knows d's type.
func resetDir(d DirPredictor) bool {
	switch d := d.(type) {
	case *Bimodal:
		fillWeaklyTaken(d.table)
	case *GShare:
		fillWeaklyTaken(d.table)
		d.history = 0
	case *Combined:
		resetDir(d.bim)
		resetDir(d.gsh)
		fillWeaklyTaken(d.meta)
	default:
		return false
	}
	return true
}

func fillWeaklyTaken(t []counter) {
	for i := range t {
		t[i] = 2
	}
}

// copyDir copies src's direction-predictor state into dst and reports
// whether it could: dst must be a predictor of the same type and table
// sizes.
func copyDir(dst, src DirPredictor) bool {
	switch d := dst.(type) {
	case *Bimodal:
		s, ok := src.(*Bimodal)
		if !ok || len(d.table) != len(s.table) {
			return false
		}
		copy(d.table, s.table)
	case *GShare:
		s, ok := src.(*GShare)
		if !ok || len(d.table) != len(s.table) || d.bits != s.bits {
			return false
		}
		copy(d.table, s.table)
		d.history = s.history
	case *Combined:
		s, ok := src.(*Combined)
		if !ok || len(d.meta) != len(s.meta) || !copyDir(d.bim, s.bim) || !copyDir(d.gsh, s.gsh) {
			return false
		}
		copy(d.meta, s.meta)
	default:
		return false
	}
	return true
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
	pred := u.Dir.Predict(pc)
	u.Dir.Update(pc, taken)
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
