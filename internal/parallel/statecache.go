package parallel

import (
	"context"

	"mlpa/internal/emu"
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// StateCache caches nothing: MachineAt walks a new machine forward.
//
// Deprecated: only perfbench's traced replay still uses it; the change
// that moves perfbench onto the pipeline's own layer counters
// (ROADMAP.md, item 3) deletes it. Use emu.New and Machine.RunTo.
type StateCache struct {
	p        *prog.Program
	memWords int64
}

// NewStateCache returns a StateCache for p; reg is unused.
//
// Deprecated: see StateCache.
func NewStateCache(p *prog.Program, memWords int64, reg *obs.Registry) *StateCache {
	return &StateCache{p: p, memWords: memWords}
}

// MachineAt returns a new machine walked forward to instruction pos.
//
// Deprecated: see StateCache.
func (c *StateCache) MachineAt(ctx context.Context, pos uint64) (*emu.Machine, error) {
	m := emu.New(c.p, c.memWords)
	_, err := m.RunTo(ctx, pos)
	return m, err
}
