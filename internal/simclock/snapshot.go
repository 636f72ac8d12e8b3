package simclock

import (
	"slices"

	"nilihype/internal/snap"
)

// Snapshot is a captured clock: its state value and the pending events in
// heap order, each with its schedule. The *Event pointers are part of the
// snapshot: other subsystems hold handles to their pending events (APIC
// one-shots, perf NMIs), so a restore revives the same Event objects in
// place rather than allocating replacements. It stays valid for the life
// of the Clock and can be restored any number of times.
type Snapshot struct {
	clockState
	events []snap.Obj[Event, eventState]
}

func eventSt(e *Event) *eventState { return &e.eventState }

// Snapshot captures the clock's current state for later Restore.
func (c *Clock) Snapshot() *Snapshot {
	return &Snapshot{c.clockState, snap.Save(c.queue, eventSt)}
}

// Restore rewinds the clock to a snapshot taken on this same Clock.
// Events scheduled after the snapshot drop out of the queue (and, never
// recycled, to the GC). Restore does not allocate once the queue's
// backing array has grown to steady-state size.
func (c *Clock) Restore(s *Snapshot) {
	c.clockState = s.clockState
	// The saved order was a valid heap when captured and the revived
	// (when, seq) are identical, so it is a valid heap again. Each saved
	// index marks its event queued, including one that fired since and
	// sits on the free list: compact those out, or alloc would hand out a
	// queued event.
	c.queue = snap.Revive(c.queue, s.events, eventSt)
	c.free = slices.DeleteFunc(c.free, func(e *Event) bool { return e.index >= 0 })
}
