package xentime

import (
	"maps"

	"nilihype/internal/snap"
)

// Snapshot captures the timer subsystem: the registered-timer set, and
// every per-CPU heap in slice order with each timer's schedule.
type Snapshot struct {
	subsystemState
	heaps [][]snap.Obj[Timer, timerState]
}

func timerSt(t *Timer) *timerState { return &t.timerState }

// Snapshot captures the subsystem state.
func (s *Subsystem) Snapshot() *Snapshot {
	out := &Snapshot{subsystemState{maps.Clone(s.all)}, make([][]snap.Obj[Timer, timerState], len(s.heaps))}
	for cpu, h := range s.heaps {
		out.heaps[cpu] = snap.Save(h, timerSt)
	}
	return out
}

// Restore rewinds the subsystem: every per-CPU heap regains its saved
// slice order (the saved layout satisfied the heap property when captured,
// so it still does), every snapshot timer regains its saved schedule, and
// timers added after the snapshot drop out of the registered set.
func (s *Subsystem) Restore(saved *Snapshot) {
	for cpu := range s.heaps {
		s.heaps[cpu] = snap.Revive(s.heaps[cpu], saved.heaps[cpu], timerSt)
	}
	snap.Map(s.all, saved.all)
}
