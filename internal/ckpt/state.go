package ckpt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"

	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// stateMagic identifies one serialized machine state: the portable
// region checkpoint, and the repository's only machine-state format
// (plan execution's in-memory rewinds capture the same State).
var stateMagic = [8]byte{'M', 'L', 'P', 'A', 'C', 'K', 'S', '1'}

// Version is the checkpoint wire-format version. Decoders reject
// anything else with ErrFormat.
const Version = 1

// maxPageIndex bounds page indices at decode time (2^40 pages of 4 KiB
// is far beyond any machine this emulator models); the restore path
// additionally checks the target machine's real memory size.
const maxPageIndex = int64(1) << 40

// Page is one touched 4 KiB data page: PageWords words at word offset
// Index*PageWords. Pages in a State are sorted by Index and each holds
// at least one non-zero word.
type Page struct {
	Index int64
	Words []uint64 // len == emu.PageWords
}

// State is the portable restore image of one simulation point: the
// architectural machine state at the point's warm start, scrubbed to
// the static live-in masks (registers outside LiveIn are stored as
// zero — liveness soundness makes them unreadable) and carrying only
// the touched-memory footprint (no pages at all when LiveIn.Mem says
// memory cannot be read from here on).
type State struct {
	Index  int    // plan point index
	Insts  uint64 // instruction position of the snapshot (the warm start)
	PC     int64
	Halted bool

	// LiveIn is the static live-in summary at PC: the storage schema.
	// Only state inside its masks is meaningful; Capture scrubs the
	// rest and Encode/Decode enforce the scrub.
	LiveIn sampling.LiveIn

	IntRegs [32]int64
	FPRegs  [32]float64

	Pages []Page
}

// Capture snapshots m as a portable point state, reading only the
// machine's written pages (emu.Machine.DirtyPages); li must be the
// static live-in summary at the machine's current PC.
func Capture(m *emu.Machine, index int, li sampling.LiveIn) (*State, error) {
	if li.PC != m.PC {
		return nil, fmt.Errorf("%w: live-in recorded at pc %d, machine at pc %d", ErrMismatch, li.PC, m.PC)
	}
	s := &State{
		Index:   index,
		Insts:   m.Insts,
		PC:      m.PC,
		Halted:  m.Halted,
		LiveIn:  li,
		IntRegs: m.IntRegs,
		FPRegs:  m.FPRegs,
	}
	scrubState(s)
	if li.Mem {
		for _, pg := range m.DirtyPages() {
			words := make([]uint64, emu.PageWords)
			base := pg * emu.PageWords
			nonZero := false
			// A machine smaller than a page owns only a prefix of it;
			// the rest of the page stays zero rather than wrapping.
			for k := range words[:min(emu.PageWords, m.MemWords()-base)] {
				w := m.LoadWord((base + int64(k)) << 3)
				words[k] = w
				nonZero = nonZero || w != 0
			}
			// Dirty is a superset of non-zero; all-zero pages restore
			// for free from the cleared memory image.
			if nonZero {
				s.Pages = append(s.Pages, Page{Index: pg, Words: words})
			}
		}
	}
	return s, nil
}

// scrubState zeroes every register cell outside the live-in masks —
// the same rule as the pipeline's boundary scrub: integer registers
// from 1 (R0 is architecturally zero), all FP registers.
func scrubState(s *State) {
	for i := 1; i < len(s.IntRegs); i++ {
		if s.LiveIn.Int&(1<<uint(i)) == 0 {
			s.IntRegs[i] = 0
		}
	}
	for i := range s.FPRegs {
		if s.LiveIn.FP&(1<<uint(i)) == 0 {
			s.FPRegs[i] = 0
		}
	}
}

// checkScrubbed verifies the stored register files honour the format's
// scrub invariant.
func checkScrubbed(s *State) error {
	if s.IntRegs[0] != 0 {
		return fmt.Errorf("%w: R0 holds %d, must be zero", ErrFormat, s.IntRegs[0])
	}
	for i := 1; i < len(s.IntRegs); i++ {
		if s.LiveIn.Int&(1<<uint(i)) == 0 && s.IntRegs[i] != 0 {
			return fmt.Errorf("%w: dead integer register %d not scrubbed", ErrFormat, i)
		}
	}
	for i := range s.FPRegs {
		if s.LiveIn.FP&(1<<uint(i)) == 0 && s.FPRegs[i] != 0 {
			return fmt.Errorf("%w: dead FP register %d not scrubbed", ErrFormat, i)
		}
	}
	return nil
}

// Encode serializes the state: magic, version, varint-encoded payload,
// and a SHA-256 trailer over everything preceding it.
func (s *State) Encode() ([]byte, error) {
	if err := checkScrubbed(s); err != nil {
		return nil, err
	}
	w := &wbuf{b: make([]byte, 0, 256+len(s.Pages)*(emu.PageWords+8))}
	w.b = append(w.b, stateMagic[:]...)
	w.u(Version)
	w.u(uint64(s.Index))
	w.u(s.Insts)
	w.i(s.PC)
	w.u(b2u(s.Halted))
	w.i(s.LiveIn.PC)
	w.u(uint64(s.LiveIn.Int))
	w.u(uint64(s.LiveIn.FP))
	w.u(b2u(s.LiveIn.Mem))
	for _, r := range s.IntRegs {
		w.i(r)
	}
	for _, f := range s.FPRegs {
		w.u(math.Float64bits(f))
	}
	w.u(uint64(len(s.Pages)))
	prev := int64(-1)
	for _, pg := range s.Pages {
		if pg.Index <= prev || pg.Index >= maxPageIndex {
			return nil, fmt.Errorf("%w: page index %d not ascending (previous %d)", ErrFormat, pg.Index, prev)
		}
		if len(pg.Words) != emu.PageWords {
			return nil, fmt.Errorf("%w: page %d holds %d words, want %d", ErrFormat, pg.Index, len(pg.Words), emu.PageWords)
		}
		// Delta-encoded ascending indices: first absolute, then gaps.
		if prev < 0 {
			w.u(uint64(pg.Index))
		} else {
			w.u(uint64(pg.Index - prev - 1))
		}
		prev = pg.Index
		encodePageWords(w, pg.Words)
	}
	sum := sha256.Sum256(w.b)
	return append(w.b, sum[:]...), nil
}

// encodePageWords writes one page as alternating (zero-run, literal-
// run, literal values) groups covering exactly PageWords words.
func encodePageWords(w *wbuf, words []uint64) {
	pos := 0
	for pos < len(words) {
		z := pos
		for z < len(words) && words[z] == 0 {
			z++
		}
		l := z
		for l < len(words) && words[l] != 0 {
			l++
		}
		w.u(uint64(z - pos))
		w.u(uint64(l - z))
		for _, v := range words[z:l] {
			w.u(v)
		}
		pos = l
	}
}

// Decode parses and verifies one serialized state. It never panics on
// adversarial input: structural damage returns ErrFormat, a failed
// hash returns ErrIntegrity (FuzzCkptRoundTrip enforces both).
func Decode(data []byte) (*State, error) {
	if len(data) < len(stateMagic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than magic plus hash trailer", ErrFormat, len(data))
	}
	if !bytes.Equal(data[:len(stateMagic)], stateMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:len(stateMagic)])
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: SHA-256 trailer does not match content", ErrIntegrity)
	}
	r := &rbuf{b: payload, off: len(stateMagic)}
	if v := r.u(); r.err == nil && v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (decoder speaks %d)", ErrFormat, v, Version)
	}
	s := &State{}
	idx := r.u()
	if r.err == nil && idx > math.MaxInt32 {
		return nil, fmt.Errorf("%w: point index %d out of range", ErrFormat, idx)
	}
	s.Index = int(idx)
	s.Insts = r.u()
	s.PC = r.i()
	s.Halted = r.u() != 0
	s.LiveIn.PC = r.i()
	for _, dst := range []*uint32{&s.LiveIn.Int, &s.LiveIn.FP} {
		v := r.u()
		if r.err == nil && v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: register mask %#x wider than 32 bits", ErrFormat, v)
		}
		*dst = uint32(v)
	}
	s.LiveIn.Mem = r.u() != 0
	for i := range s.IntRegs {
		s.IntRegs[i] = r.i()
	}
	for i := range s.FPRegs {
		s.FPRegs[i] = math.Float64frombits(r.u())
	}
	npages := r.u()
	if r.err != nil {
		return nil, r.err
	}
	// Each page costs at least 3 bytes (index + one run group), so an
	// adversarial count cannot force a large allocation.
	if npages > uint64(r.rest())/3 {
		return nil, fmt.Errorf("%w: page count %d exceeds remaining payload", ErrFormat, npages)
	}
	if npages > 0 {
		s.Pages = make([]Page, 0, npages)
	}
	prev := int64(-1)
	for pi := uint64(0); pi < npages; pi++ {
		delta := r.u()
		var idx int64
		if prev < 0 {
			idx = int64(delta)
		} else {
			idx = prev + 1 + int64(delta)
		}
		if r.err == nil && (idx < 0 || idx >= maxPageIndex) {
			return nil, fmt.Errorf("%w: page index %d out of range", ErrFormat, idx)
		}
		words, err := decodePageWords(r)
		if err != nil {
			return nil, err
		}
		s.Pages = append(s.Pages, Page{Index: idx, Words: words})
		prev = idx
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrFormat, r.rest())
	}
	if err := checkScrubbed(s); err != nil {
		return nil, err
	}
	return s, nil
}

func decodePageWords(r *rbuf) ([]uint64, error) {
	words := make([]uint64, emu.PageWords)
	pos := 0
	for pos < len(words) {
		z := r.u()
		l := r.u()
		if r.err != nil {
			return nil, r.err
		}
		if z+l == 0 || z+l > uint64(len(words)-pos) {
			return nil, fmt.Errorf("%w: page run %d+%d overflows page at word %d", ErrFormat, z, l, pos)
		}
		pos += int(z)
		for k := uint64(0); k < l; k++ {
			words[pos] = r.u()
			pos++
		}
	}
	return words, r.err
}

// NewMachine materializes a fresh machine for p positioned at this
// state — the zero-fast-forward entry into the point's warm window.
// Building it and every later RestoreInto of another state cost
// O(touched pages), not O(memory).
func (s *State) NewMachine(p *prog.Program) (*emu.Machine, error) {
	m := emu.New(p, 0)
	if err := s.RestoreInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreInto rewinds m and applies the state. The machine must belong
// to a program the state fits (PC in range, pages within memory);
// violations return ErrMismatch.
func (s *State) RestoreInto(m *emu.Machine) error {
	if s.PC < 0 || s.PC > int64(len(m.Prog.Code)) {
		return fmt.Errorf("%w: checkpoint PC %d out of range for %s (%d instructions)",
			ErrMismatch, s.PC, m.Prog.Name, len(m.Prog.Code))
	}
	words := m.MemWords()
	maxPage := (words + emu.PageWords - 1) / emu.PageWords
	for _, pg := range s.Pages {
		if pg.Index < 0 || pg.Index >= maxPage {
			return fmt.Errorf("%w: page %d exceeds machine memory (%d pages)", ErrMismatch, pg.Index, maxPage)
		}
		// A machine smaller than a page owns only a prefix of it; data
		// past that prefix has no word to go to.
		if own := words - pg.Index*emu.PageWords; own < int64(len(pg.Words)) {
			for _, w := range pg.Words[own:] {
				if w != 0 {
					return fmt.Errorf("%w: page %d holds data past machine memory (%d words)", ErrMismatch, pg.Index, words)
				}
			}
		}
	}
	m.Reset()
	m.IntRegs = s.IntRegs
	m.FPRegs = s.FPRegs
	m.PC = s.PC
	m.Insts = s.Insts
	m.Halted = s.Halted
	for _, pg := range s.Pages {
		base := pg.Index * emu.PageWords
		for k, w := range pg.Words {
			if w != 0 {
				m.StoreWord((base+int64(k))<<3, w)
			}
		}
	}
	return nil
}

// EncodedBytes reports the approximate encoded size (for cache
// accounting without re-encoding).
func (s *State) EncodedBytes() int {
	n := 256
	for _, pg := range s.Pages {
		nz := 0
		for _, w := range pg.Words {
			if w != 0 {
				nz++
			}
		}
		n += 8*nz + 16
	}
	return n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
