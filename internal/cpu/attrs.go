package cpu

import (
	"mlpa/internal/isa"
	"mlpa/internal/prog"
)

// instAttr is what the timing model reads of one static instruction:
// its opcode, functional-unit class and latency, its register sources
// (R0 excluded, as isa.Inst.Sources does) and its destination (as
// isa.Inst.Dests reports it).
type instAttr struct {
	op      isa.Op
	class   isa.Class
	latency uint8
	nsrc    uint8
	src     [2]isa.Reg
	dst     isa.Reg
	hasDst  bool
}

func (a *instAttr) isMem() bool { return a.class == isa.ClassLoad || a.class == isa.ClassStore }

type attrKey struct{}

// attrTable returns p's attribute table, indexed by PC. It is built
// once per program and cached on it (prog.Program.Aux), as the
// emulator's predecoded form is, so the fetch stage and functional
// warming read a table entry per instruction instead of decoding the
// opcode's class, latency, sources and destination again.
func attrTable(p *prog.Program) []instAttr {
	return p.Aux(attrKey{}, func() any { return buildAttrs(p) }).([]instAttr)
}

func buildAttrs(p *prog.Program) []instAttr {
	attrs := make([]instAttr, len(p.Code))
	var buf [2]isa.Reg
	for pc := range p.Code {
		in := &p.Code[pc]
		a := &attrs[pc]
		a.op = in.Op
		a.class = in.Op.Class()
		a.latency = uint8(in.Op.Latency())
		a.nsrc = uint8(copy(a.src[:], in.Sources(buf[:0])))
		a.dst, a.hasDst = in.Dests()
	}
	return attrs
}
