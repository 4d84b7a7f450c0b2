package bbv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewProjectorErrors(t *testing.T) {
	if _, err := NewProjector(0, 15, 1); err == nil {
		t.Error("numBlocks=0 accepted")
	}
	if _, err := NewProjector(10, 0, 1); err == nil {
		t.Error("dims=0 accepted")
	}
}

func TestProjectorDeterministic(t *testing.T) {
	p1 := MustNewProjector(20, 15, 99)
	p2 := MustNewProjector(20, 15, 99)
	counts := make([]uint64, 20)
	counts[3] = 7
	counts[11] = 2
	v1, err := p1.Project(counts)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := p2.Project(counts)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed produced different projections")
		}
	}
	p3 := MustNewProjector(20, 15, 100)
	v3, _ := p3.Project(counts)
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical projections")
	}
}

func TestProjectDimensions(t *testing.T) {
	p := MustNewProjector(8, 5, 1)
	if p.Dims() != 5 || p.NumBlocks() != 8 {
		t.Errorf("Dims/NumBlocks = %d/%d", p.Dims(), p.NumBlocks())
	}
	v, err := p.Project(make([]uint64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 5 {
		t.Errorf("projected length = %d", len(v))
	}
	if _, err := p.Project(make([]uint64, 7)); err == nil {
		t.Error("wrong-length vector accepted")
	}
}

func TestProjectLinearity(t *testing.T) {
	// Projection is linear: P(2a) = 2 P(a).
	p := MustNewProjector(6, 4, 5)
	a := []uint64{1, 0, 3, 0, 2, 1}
	b := []uint64{2, 0, 6, 0, 4, 2}
	va, _ := p.Project(a)
	vb, _ := p.Project(b)
	for i := range va {
		if math.Abs(vb[i]-2*va[i]) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, vb[i], 2*va[i])
		}
	}
}

func TestSignatureNormalized(t *testing.T) {
	p := MustNewProjector(10, 15, 7)
	counts := make([]uint64, 10)
	counts[0] = 1000
	counts[9] = 500
	sig, err := p.Signature(counts)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range sig {
		sum += math.Abs(x)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("signature L1 norm = %v", sum)
	}
}

// Property: signatures are scale-invariant — an interval twice as long
// with the same block mix yields the same signature.
func TestSignatureScaleInvariance(t *testing.T) {
	p := MustNewProjector(12, 15, 3)
	f := func(raw [12]uint16, mult uint8) bool {
		m := uint64(mult%7) + 2
		a := make([]uint64, 12)
		b := make([]uint64, 12)
		nonzero := false
		for i, x := range raw {
			a[i] = uint64(x)
			b[i] = uint64(x) * m
			if x != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		sa, err1 := p.Signature(a)
		sb, err2 := p.Signature(b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct block mixes produce distinct signatures (random
// projection separates them almost surely).
func TestSignatureSeparation(t *testing.T) {
	p := MustNewProjector(10, 15, 11)
	a := make([]uint64, 10)
	b := make([]uint64, 10)
	a[2] = 100
	b[7] = 100
	sa, _ := p.Signature(a)
	sb, _ := p.Signature(b)
	var dist float64
	for i := range sa {
		d := sa[i] - sb[i]
		dist += d * d
	}
	if dist < 1e-6 {
		t.Errorf("distinct mixes projected to same signature (dist %v)", dist)
	}
}
