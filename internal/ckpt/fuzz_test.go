package ckpt_test

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"mlpa/internal/ckpt"
	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// stateFromSeed deterministically builds a scrub-consistent State from
// fuzz bytes: masks and register values are drawn from the input, dead
// registers stay zero, pages get ascending indices and seeded words.
func stateFromSeed(seed []byte) *ckpt.State {
	next := func() uint64 {
		if len(seed) == 0 {
			return 0
		}
		n := 8
		if len(seed) < n {
			n = len(seed)
		}
		var buf [8]byte
		copy(buf[:], seed[:n])
		seed = seed[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	s := &ckpt.State{
		Index:  int(next() % 10_000),
		Insts:  next(),
		PC:     int64(next() % (1 << 30)),
		Halted: next()&1 != 0,
	}
	s.LiveIn = sampling.LiveIn{
		PC:  s.PC,
		Int: uint32(next()),
		FP:  uint32(next()),
		Mem: next()&1 != 0,
	}
	for i := 1; i < 32; i++ {
		if s.LiveIn.Int&(1<<uint(i)) != 0 {
			s.IntRegs[i] = int64(next())
		}
	}
	for i := 0; i < 32; i++ {
		if s.LiveIn.FP&(1<<uint(i)) != 0 {
			// Any bit pattern must round-trip, including NaNs and ±0;
			// travel through the same bits the wire uses.
			s.FPRegs[i] = math.Float64frombits(next())
		}
	}
	npages := int(next() % 4)
	idx := int64(next() % 64)
	for pi := 0; pi < npages; pi++ {
		pg := ckpt.Page{Index: idx, Words: make([]uint64, emu.PageWords)}
		// Guarantee at least one non-zero word so the page is canonical.
		pg.Words[next()%emu.PageWords] = next() | 1
		for k := 0; k < 8; k++ {
			pg.Words[next()%emu.PageWords] = next()
		}
		s.Pages = append(s.Pages, pg)
		idx += 1 + int64(next()%32)
	}
	return s
}

// statesEqual is bit-accurate state equality: FP registers compare by
// bit pattern, because the wire format round-trips any pattern —
// including NaNs, which compare unequal to themselves under == (and
// so under reflect.DeepEqual).
func statesEqual(a, b *ckpt.State) bool {
	if a.Index != b.Index || a.Insts != b.Insts || a.PC != b.PC ||
		a.Halted != b.Halted || a.LiveIn != b.LiveIn || a.IntRegs != b.IntRegs {
		return false
	}
	for i := range a.FPRegs {
		if math.Float64bits(a.FPRegs[i]) != math.Float64bits(b.FPRegs[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.Pages, b.Pages)
}

// FuzzCkptRoundTrip proves two properties on arbitrary input bytes:
// decode∘encode is the identity on every generated valid state, and
// Decode never panics (and never silently accepts) adversarial bytes —
// any successful decode must itself re-encode and re-decode to an
// equal state.
func FuzzCkptRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MLPACKS1 not really a checkpoint"))
	for _, p := range prog.Examples()[:2] {
		m := emu.New(p, 0)
		if _, err := m.Run(5_000); err != nil {
			f.Fatal(err)
		}
		st, err := ckpt.Capture(m, 0, sampling.LiveIn{PC: m.PC, Int: ^uint32(0), FP: ^uint32(0), Mem: true})
		if err != nil {
			f.Fatal(err)
		}
		if data, err := st.Encode(); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: adversarial bytes never panic; accepted bytes
		// describe a state that survives a fresh round trip.
		if s, err := ckpt.Decode(data); err == nil {
			enc, err := s.Encode()
			if err != nil {
				t.Fatalf("decoded state does not re-encode: %v", err)
			}
			back, err := ckpt.Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			if !statesEqual(s, back) {
				t.Fatal("re-encoded state decodes differently")
			}
		}
		// Property 2: decode∘encode identity on a generated state.
		s := stateFromSeed(data)
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("generated state does not encode: %v", err)
		}
		back, err := ckpt.Decode(enc)
		if err != nil {
			t.Fatalf("generated state does not decode: %v", err)
		}
		if !statesEqual(s, back) {
			t.Fatal("decode(encode(s)) != s")
		}
	})
}
