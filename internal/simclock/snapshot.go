package simclock

import "time"

// savedEvent is one pending event's captured schedule. The *Event pointer
// itself is part of the snapshot: other subsystems hold handles to their
// pending events (APIC one-shots, perf NMIs), so a restore must revive the
// same Event objects in place rather than allocate replacements.
type savedEvent struct {
	ev   *Event
	when time.Duration
	seq  uint64
	fn   Func
	tag  string
}

// Snapshot is a captured clock state: the virtual time, sequence counters,
// and the pending-event queue in heap order. It stays valid for the life
// of the Clock and can be restored any number of times.
type Snapshot struct {
	now        time.Duration
	seq        uint64
	dispatched uint64
	halted     bool
	highWater  int
	events     []savedEvent
}

// Snapshot captures the clock's current state for later Restore.
func (c *Clock) Snapshot() *Snapshot {
	s := &Snapshot{
		now:        c.now,
		seq:        c.seq,
		dispatched: c.dispatched,
		halted:     c.halted,
		highWater:  c.highWater,
		events:     make([]savedEvent, len(c.queue)),
	}
	for i, e := range c.queue {
		s.events[i] = savedEvent{ev: e, when: e.when, seq: e.seq, fn: e.fn, tag: e.tag}
	}
	return s
}

// Restore rewinds the clock to a snapshot taken on this same Clock. The
// snapshot's events are revived in place (same *Event objects, so handles
// captured elsewhere in a machine snapshot stay valid), events scheduled
// after the snapshot are dropped, and the free list is compacted so a
// revived event cannot also be handed out by alloc. Restore does not
// allocate once the queue and free-list backing arrays have grown to
// steady-state size.
func (c *Clock) Restore(s *Snapshot) {
	c.now = s.now
	c.seq = s.seq
	c.dispatched = s.dispatched
	c.halted = s.halted
	c.highWater = s.highWater

	// Revive the snapshot's events in place. Setting index to the saved
	// heap position marks them queued, including any that sat on the free
	// list.
	for i := range s.events {
		se := &s.events[i]
		e := se.ev
		e.when = se.when
		e.seq = se.seq
		e.fn = se.fn
		e.tag = se.tag
		e.index = i
	}

	// Compact the free list down to the events that are genuinely free: a
	// snapshot event that fired since the snapshot sits on the list, and
	// keeping it would let alloc hand out a queued event.
	kept := c.free[:0]
	for _, e := range c.free {
		if e.index < 0 {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(c.free); i++ {
		c.free[i] = nil
	}
	c.free = kept

	// Rebuild the queue in the saved slice order. The saved order was a
	// valid heap when captured, and (when, seq) of the saved events are
	// byte-identical now, so it is a valid heap again — no re-heapify.
	// Events scheduled after the snapshot simply drop out of the queue
	// (and, never recycled, out of the free list) to the GC.
	if cap(c.queue) < len(s.events) {
		c.queue = make(eventQueue, 0, len(s.events))
	}
	prev := len(c.queue)
	c.queue = c.queue[:len(s.events)]
	for i := range s.events {
		c.queue[i] = s.events[i].ev
	}
	for i := len(s.events); i < prev; i++ {
		c.queue[:prev][i] = nil
	}
}
