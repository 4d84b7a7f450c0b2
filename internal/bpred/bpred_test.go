package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter underflow: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter overflow: %d", c)
	}
	if !c.taken() {
		t.Error("saturated counter not taken")
	}
}

// newDir returns the direction predictor of a new unit of kind with
// entries counters per table.
func newDir(t *testing.T, kind Kind, entries int) *dirPredictor {
	t.Helper()
	u, err := NewUnit(kind, entries)
	if err != nil {
		t.Fatal(err)
	}
	return &u.dir
}

func TestBimodalLearnsBias(t *testing.T) {
	b := newDir(t, KindBimodal, 1024)
	pc := int64(0x40)
	for i := 0; i < 8; i++ {
		b.predict(pc, true)
	}
	if !b.predict(pc, true) {
		t.Error("bimodal did not learn taken bias")
	}
	for i := 0; i < 8; i++ {
		b.predict(pc, false)
	}
	if b.predict(pc, false) {
		t.Error("bimodal did not learn not-taken bias")
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	// Alternating T/NT pattern: bimodal oscillates but gshare should
	// learn it via history. The chooser is held at gshare, so every
	// prediction is the gshare table's.
	g := newDir(t, KindCombined, 4096)
	pc := int64(0x80)
	correct := 0
	total := 2000
	for i := 0; i < total; i++ {
		taken := i%2 == 0
		g.meta[pc&g.mask] = 3
		if g.predict(pc, taken) == taken {
			correct++
		}
	}
	// After warmup, accuracy should approach 100%; require >90% overall.
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("gshare accuracy on alternating pattern = %d/%d", correct, total)
	}
}

func TestCombinedBeatsWorstComponent(t *testing.T) {
	// Branch A: strongly biased (bimodal-friendly).
	// Branch B: alternating (gshare-friendly).
	c := newDir(t, KindCombined, 8192)
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		// A
		if c.predict(0x100, true) == true {
			correct++
		}
		total++
		// B
		taken := i%2 == 0
		if c.predict(0x204, taken) == taken {
			correct++
		}
		total++
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("combined accuracy = %.3f, want > 0.9", acc)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(512)
	if _, ok := b.Lookup(0x40); ok {
		t.Error("empty BTB hit")
	}
	b.Update(0x40, 0x999)
	if tgt, ok := b.Lookup(0x40); !ok || tgt != 0x999 {
		t.Errorf("Lookup = %d, %v", tgt, ok)
	}
	// Aliasing entry with same index but different tag misses.
	alias := int64(0x40 + 512)
	if _, ok := b.Lookup(alias); ok {
		t.Error("aliased PC hit with wrong tag")
	}
	b.Update(alias, 0x111)
	if _, ok := b.Lookup(0x40); ok {
		t.Error("evicted entry still present")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := int64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("Pop = %d, %v; want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("drained RAS popped")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("Pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("Pop = %d, want 2", got)
	}
}

func TestNewUnitKinds(t *testing.T) {
	for _, k := range []Kind{KindCombined, KindBimodal} {
		u, err := NewUnit(k, 8192)
		if err != nil {
			t.Errorf("NewUnit(%q): %v", k, err)
			continue
		}
		if len(u.dir.bim) != 8192 || (len(u.dir.gsh) == 8192) != (k == KindCombined) || u.BTB == nil || u.RAS == nil {
			t.Errorf("NewUnit(%q) missing components", k)
		}
	}
	if _, err := NewUnit("bogus", 8192); err == nil {
		t.Error("NewUnit(bogus) succeeded")
	}
}

func TestUnitCondStats(t *testing.T) {
	u, _ := NewUnit(KindCombined, 8192)
	pc, target := int64(0x10), int64(0x80)
	// First taken: direction predicted taken (init weakly-taken) but
	// BTB is cold -> target miss.
	if u.PredictCond(pc, true, target) {
		t.Error("cold taken branch predicted correctly despite empty BTB")
	}
	// Now BTB warm: repeated taken branches predict correctly.
	for i := 0; i < 4; i++ {
		u.PredictCond(pc, true, target)
	}
	s := u.Stats()
	if s.Lookups != 5 {
		t.Errorf("lookups = %d", s.Lookups)
	}
	if s.Mispredicts() == 0 || s.Mispredicts() > 2 {
		t.Errorf("mispredicts = %d, want 1-2", s.Mispredicts())
	}
	if s.Accuracy() <= 0.5 {
		t.Errorf("accuracy = %v", s.Accuracy())
	}
}

func TestUnitJumpAndCallReturn(t *testing.T) {
	u, _ := NewUnit(KindCombined, 8192)
	if u.PredictJump(0x20, 0x100) {
		t.Error("cold jump predicted")
	}
	if !u.PredictJump(0x20, 0x100) {
		t.Error("warm jump mispredicted")
	}
	// Call pushes return address; matching return predicts correctly.
	u.PredictCall(0x30, 0x200, 0x31)
	if !u.PredictReturn(0x210, 0x31) {
		t.Error("return mispredicted despite RAS")
	}
	// Unbalanced return mispredicts.
	if u.PredictReturn(0x220, 0x99) {
		t.Error("return predicted with empty RAS")
	}
}

func TestResetStats(t *testing.T) {
	u, _ := NewUnit(KindBimodal, 64)
	u.PredictCond(0, true, 8)
	u.ResetStats()
	if s := u.Stats(); s.Lookups != 0 || s.Mispredicts() != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestAccuracyEmptyStats(t *testing.T) {
	var s Stats
	if s.Accuracy() != 1 {
		t.Errorf("empty accuracy = %v", s.Accuracy())
	}
}

// Random-pattern sanity: predictors never crash and accuracy stays in
// [0,1] under arbitrary branch streams.
func TestUnitRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	u, _ := NewUnit(KindCombined, 8192)
	for i := 0; i < 10000; i++ {
		pc := int64(rng.Intn(64)) * 4
		taken := rng.Intn(3) > 0
		u.PredictCond(pc, taken, pc+int64(rng.Intn(100)))
	}
	acc := u.Stats().Accuracy()
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy out of range: %v", acc)
	}
}

// driveUnit replays n pseudo-random conditional branches, jumps, calls
// and returns over a few dozen PCs (seeded by seed) and returns the
// correctness of every prediction.
func driveUnit(u *Unit, seed uint64, n int) []bool {
	out := make([]bool, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := int64(x%48) * 4
		target := int64(x>>8) % 200
		switch x >> 61 {
		case 0:
			out = append(out, u.PredictJump(pc, target))
		case 1:
			out = append(out, u.PredictCall(pc, target, pc+1))
		case 2:
			out = append(out, u.PredictReturn(pc, target))
		default:
			out = append(out, u.PredictCond(pc, x&(1<<20) != 0 || pc%12 == 0, target))
		}
	}
	return out
}

// TestUnitCopyFrom: for every predictor kind, a copy of a trained unit
// equals the original — direction tables, global history,
// BTB, RAS and statistics — and then predicts a continued stream
// exactly as the original does, while training the copy leaves the
// original untouched.
func TestUnitCopyFrom(t *testing.T) {
	for _, k := range []Kind{KindCombined, KindBimodal} {
		t.Run(string(k), func(t *testing.T) {
			newU := func() *Unit {
				u, err := NewUnit(k, 1024)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			src, ref, dst := newU(), newU(), newU()
			driveUnit(src, 1, 4000)
			driveUnit(ref, 1, 4000)
			driveUnit(dst, 99, 300) // stale state to overwrite
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dst, src) {
				t.Fatal("copy differs from its source")
			}
			got := driveUnit(dst, 7, 4000)
			want := driveUnit(ref, 7, 4000)
			if !reflect.DeepEqual(got, want) {
				t.Error("copy predicts a continued stream differently from the original")
			}
			if !reflect.DeepEqual(dst, ref) {
				t.Error("copy's state after the stream differs from the original's")
			}
			orig := newU()
			driveUnit(orig, 1, 4000)
			if !reflect.DeepEqual(src, orig) {
				t.Error("training the copy changed the source")
			}
		})
	}
}

// TestUnitCopyFromRejectsOtherShape: copying between units of different
// kinds or table sizes fails.
func TestUnitCopyFromRejectsOtherShape(t *testing.T) {
	mk := func(k Kind, n int) *Unit {
		u, err := NewUnit(k, n)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	for i, c := range []struct{ dst, src *Unit }{
		{mk(KindCombined, 1024), mk(KindBimodal, 1024)},
		{mk(KindBimodal, 1024), mk(KindCombined, 1024)},
		{mk(KindCombined, 1024), mk(KindCombined, 2048)},
		{mk(KindBimodal, 1024), mk(KindBimodal, 512)},
	} {
		if err := c.dst.CopyFrom(c.src); err == nil {
			t.Errorf("case %d: copy accepted", i)
		}
	}
}
