package bpred

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Bimodal, GShare and Combined are the reference the direction
// predictor must match bit for bit: three separate predictors, with
// Combined training its chooser from both components' predictions
// before it trains the components.

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

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc int64) bool { return b.table[pc&b.mask].taken() }

// Update trains the predictor with the resolved direction.
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

func (g *GShare) index(pc int64) int64 {
	return (pc ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *GShare) Predict(pc int64) bool { return g.table[g.index(pc)].taken() }

// Update trains the predictor with the resolved direction.
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

// Predict returns the predicted direction for the branch at pc.
func (c *Combined) Predict(pc int64) bool {
	if c.meta[pc&c.mask].taken() {
		return c.gsh.Predict(pc)
	}
	return c.bim.Predict(pc)
}

// Update trains both components and moves the chooser toward whichever
// component was right.
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

// refPredictor is the reference's predict-then-train interface.
type refPredictor interface {
	Predict(pc int64) bool
	Update(pc int64, taken bool)
}

func newReference(kind Kind, entries int) refPredictor {
	if kind == KindCombined {
		return NewCombined(entries)
	}
	return NewBimodal(entries)
}

// sameDirState reports how d's tables or history differ from ref's, or
// "" when they are identical.
func sameDirState(d *dirPredictor, ref refPredictor) string {
	switch r := ref.(type) {
	case *Bimodal:
		if !slices.Equal(d.bim, r.table) {
			return "bimodal table differs"
		}
		if d.gsh != nil || d.meta != nil {
			return "bimodal kind holds gshare or chooser tables"
		}
	case *Combined:
		switch {
		case !slices.Equal(d.bim, r.bim.table):
			return "bimodal component differs"
		case !slices.Equal(d.gsh, r.gsh.table):
			return "gshare table differs"
		case !slices.Equal(d.meta, r.meta):
			return "chooser differs"
		case d.history != r.gsh.history:
			return fmt.Sprintf("history %#x, reference %#x", d.history, r.gsh.history)
		}
	}
	return ""
}

// branchStream draws n conditional branches over 3000 PCs: the stream
// mostly walks from one PC to the next, as loop bodies do, and jumps to
// a random PC one time in eight. A third of the PCs are biased (taken
// or not taken 15 times in 16), a third alternate per visit, and a
// third are taken at random.
func branchStream(seed int64, n int) ([]int64, []bool) {
	const numPCs = 3000
	rng := rand.New(rand.NewSource(seed))
	visits := make([]int, numPCs)
	pcs, taken := make([]int64, n), make([]bool, n)
	k := 0
	for i := range pcs {
		if rng.Intn(8) == 0 {
			k = rng.Intn(numPCs)
		} else {
			k = (k + 1) % numPCs
		}
		var t bool
		switch k % 3 {
		case 0:
			t = (rng.Intn(16) != 0) == (k%2 == 0)
		case 1:
			t = visits[k]%2 == 0
		default:
			t = rng.Intn(2) == 0
		}
		visits[k]++
		pcs[i], taken[i] = int64(k)*3+17, t
	}
	return pcs, taken
}

// TestDirPredictorMatchesReference: for both kinds, table sizes that
// round (2 and 1000 entries) or not (1024, 8192; 8192 indexes with
// every history bit) and three streams, the direction predictor makes
// the reference's prediction at every branch. Its tables and history
// equal the reference's at each check: after a third of the stream,
// after CopyFrom into a unit trained on another stream (which then
// continues the stream), and after Reset (against a new reference, and
// through the last third).
func TestDirPredictorMatchesReference(t *testing.T) {
	const n = 120_000
	for _, kind := range []Kind{KindCombined, KindBimodal} {
		for _, entries := range []int{2, 1000, 1024, 8192} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/bht%d/seed%d", kind, entries, seed), func(t *testing.T) {
					pcs, taken := branchStream(seed, n)
					newU := func() *Unit {
						u, err := NewUnit(kind, entries)
						if err != nil {
							t.Fatal(err)
						}
						return u
					}
					ref := newReference(kind, entries)
					run := func(u *Unit, from, to int) {
						t.Helper()
						for i := from; i < to; i++ {
							want := ref.Predict(pcs[i])
							ref.Update(pcs[i], taken[i])
							if got := u.dir.predict(pcs[i], taken[i]); got != want {
								t.Fatalf("branch %d (pc %d): predicted %v, reference %v", i, pcs[i], got, want)
							}
						}
						if diff := sameDirState(&u.dir, ref); diff != "" {
							t.Fatalf("after branch %d: %s", to, diff)
						}
					}
					u := newU()
					run(u, 0, n/3)

					dst := newU()
					otherPCs, otherTaken := branchStream(seed+100, 5000)
					for i := range otherPCs {
						dst.dir.predict(otherPCs[i], otherTaken[i])
					}
					if err := dst.CopyFrom(u); err != nil {
						t.Fatal(err)
					}
					if diff := sameDirState(&dst.dir, ref); diff != "" {
						t.Fatalf("after CopyFrom: %s", diff)
					}
					run(dst, n/3, 2*n/3)

					dst.Reset()
					ref = newReference(kind, entries)
					if diff := sameDirState(&dst.dir, ref); diff != "" {
						t.Fatalf("after Reset: %s", diff)
					}
					run(dst, 2*n/3, n)
				})
			}
		}
	}
}
