package cpu

import (
	"slices"
	"sync"

	"mlpa/internal/obs"
)

// maxIdleConfigs is how many configurations the context store keeps an
// idle context for. perfbench's checkpoint-backed sweep, the widest mix
// one process runs, alternates four (A, B and two variants of A that
// move only the memory system); Table II, mlpa bench and the service
// use two.
const maxIdleConfigs = 4

// store holds cold detailed contexts between runs: at most one idle
// context, with its detail fork, for each of the maxIdleConfigs
// configurations released most recently.
type store struct {
	mu   sync.Mutex
	idle []*Sim // one per configuration, least recently released first
}

// contexts is the process-wide store behind Acquire and Release.
var contexts store

// Acquire returns a cold context of cfg whose Metrics is reg: the
// store's idle context of cfg, reset in place with ResetCold, or else a
// new one from New. A reused context keeps its detail fork, so its
// first Fork copies only the cache sets either side touched since they
// were last paired. ResetCold leaves exactly New's state, so no result
// depends on which of the two a run got. With reg set, the call adds
// one to counter cpu.contexts.reused or cpu.contexts.built. Hand the
// context back with Release.
func Acquire(cfg Config, reg *obs.Registry) (*Sim, error) {
	return contexts.acquire(cfg, reg)
}

// Release hands s back to the store once the caller is done with it and
// with its fork. The store keeps s as its configuration's idle context
// unless it holds one already, dropping the least recently released
// configuration's when it would otherwise hold more than
// maxIdleConfigs.
func Release(s *Sim) { contexts.release(s) }

func (st *store) acquire(cfg Config, reg *obs.Registry) (*Sim, error) {
	s := st.take(cfg)
	if s == nil {
		var err error
		if s, err = New(cfg); err != nil {
			return nil, err
		}
		reg.Counter("cpu.contexts.built").Inc()
	} else {
		// Metrics is nil here, so the run's cpu.reset.* counts only the
		// restarts it makes itself.
		s.ResetCold()
		reg.Counter("cpu.contexts.reused").Inc()
	}
	s.Metrics = reg
	return s, nil
}

// take removes and returns the idle context of cfg, or nil.
func (st *store) take(cfg Config) *Sim {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, s := range st.idle {
		if s.cfg == cfg {
			st.idle = slices.Delete(st.idle, i, i+1)
			return s
		}
	}
	return nil
}

func (st *store) release(s *Sim) {
	// An idle context must not keep a finished run's registry alive.
	s.Metrics = nil
	if s.fork != nil {
		s.fork.Metrics = nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, o := range st.idle {
		if o.cfg == s.cfg {
			return
		}
	}
	if len(st.idle) == maxIdleConfigs {
		st.idle = slices.Delete(st.idle, 0, 1)
	}
	st.idle = append(st.idle, s)
}
