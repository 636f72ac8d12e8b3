// Package simclock provides the discrete-event simulation kernel used by
// every other subsystem: a virtual clock, a deterministic event queue, and
// cancellable timers.
//
// All simulated components schedule work on a single Clock. Virtual time
// only advances when the next event is dispatched, so a simulated second
// costs only as many event dispatches as there are events in it. Events
// scheduled for the same instant fire in scheduling order (FIFO), which
// makes runs bit-for-bit reproducible for a fixed seed.
//
// The kernel is the hottest loop of a fault-injection campaign (hundreds
// of dispatches per virtual millisecond per run), so it is built to be
// allocation-free in steady state: the queue is an intrusive 4-ary
// min-heap specialized to *Event (no interface boxing, shallower
// sift-down paths than a binary heap), and fired or cancelled events are
// recycled through a per-Clock free list instead of being handed to the
// garbage collector.
package simclock

import (
	"fmt"
	"time"
)

// Func is the callback invoked when an event fires.
type Func func()

// Event is a scheduled callback. It is returned by At and After so that the
// caller can cancel it. The zero value is not usable; events are created
// only by Clock.
//
// Handle lifetime: a handle is unconditionally valid while its event is
// pending. Once the event fires or is cancelled, the Clock recycles the
// Event through a free list, so the handle remains valid only until the
// next At/After call reuses the storage. Cancelling a fired event before
// then is a harmless no-op; holding a handle across unrelated scheduling
// activity and then cancelling it is not — drop handles when their events
// fire (as the event's own callback is the natural place to do).
type Event struct{ eventState }

// eventState is all of an event: its schedule and its heap position.
type eventState struct {
	when time.Duration
	seq  uint64
	fn   Func
	tag  string
	// index is the position in the clock's heap; -1 when not queued (so
	// also on the free list).
	index int
}

// Clock is a discrete-event virtual clock. It is not safe for concurrent
// use; the whole simulation is single-threaded by design (determinism).
type Clock struct {
	clockState
	queue eventQueue
	free  []*Event
}

// clockState is the clock's mutable state apart from its queue, which a
// snapshot saves event by event.
type clockState struct {
	now        time.Duration
	seq        uint64
	halted     bool
	dispatched uint64
	// highWater is the peak pending-event queue depth — a passive
	// telemetry gauge sampled by the campaign layer.
	highWater int
}

// New returns a Clock positioned at virtual time zero.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Dispatched returns the number of events dispatched so far.
func (c *Clock) Dispatched() uint64 { return c.dispatched }

// QueueHighWater returns the peak pending-event queue depth observed so
// far (since construction or the last Restore).
func (c *Clock) QueueHighWater() int { return c.highWater }

// alloc takes an Event from the free list, or allocates a fresh one.
func (c *Clock) alloc() *Event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &Event{eventState{index: -1}}
}

// recycle returns a fired or cancelled event to the free list; its fields
// are overwritten on reuse.
func (c *Clock) recycle(e *Event) { c.free = append(c.free, e) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics: allowing it would silently reorder
// time and break determinism.
func (c *Clock) At(t time.Duration, tag string, fn Func) *Event {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling %q at %v before now %v", tag, t, c.now))
	}
	e := c.alloc()
	e.when = t
	e.seq = c.seq
	e.fn = fn
	e.tag = tag
	c.seq++
	c.queue.push(e)
	if len(c.queue) > c.highWater {
		c.highWater = len(c.queue)
	}
	return e
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, tag string, fn Func) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v for %q", d, tag))
	}
	return c.At(c.now+d, tag, fn)
}

// Cancel removes a pending event. Cancelling an event that already fired or
// was already cancelled is a no-op, so callers need not track event state.
func (c *Clock) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	c.queue.remove(e.index)
	c.recycle(e)
}

// Step dispatches the single next event and returns true, or returns false
// if the queue is empty or the clock has been halted.
func (c *Clock) Step() bool {
	if c.halted || len(c.queue) == 0 {
		return false
	}
	e := c.queue.pop()
	c.now = e.when
	c.dispatched++
	e.fn()
	// A Restore inside the callback may have revived e; recycle it only if
	// it is still unqueued.
	if e.index < 0 {
		c.recycle(e)
	}
	return true
}

// RunUntil dispatches events until virtual time would pass t, the queue
// empties, or the clock halts. On return Now() == t unless halted earlier.
func (c *Clock) RunUntil(t time.Duration) {
	for !c.halted && len(c.queue) > 0 && c.queue[0].when <= t {
		c.Step()
	}
	if !c.halted && c.now < t {
		c.now = t
	}
}

// Halt stops dispatching. Pending events are preserved; Resume re-enables
// dispatching. Halt is how a simulation terminates early (e.g. on an
// unrecoverable hypervisor failure).
func (c *Clock) Halt() { c.halted = true }

// Resume re-enables dispatching after Halt.
func (c *Clock) Resume() { c.halted = false }

// eventQueue is an intrusive 4-ary min-heap of *Event ordered by
// (when, seq). Compared to container/heap it avoids the heap.Interface
// `any` boxing and its indirect calls, and the 4-ary layout halves the
// tree depth: sift-down touches fewer cache lines because the four
// children of a node are adjacent in the backing slice.
//
// Tie-break on seq makes the order total (seq is unique per scheduling),
// so equal-timestamp events fire strictly FIFO regardless of heap shape.
type eventQueue []*Event

// less orders events by (when, seq).
func (eventQueue) less(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push appends e and restores the heap property upward.
func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.siftUp(len(*q) - 1)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	h := *q
	e := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	e.index = -1
	if n > 0 {
		h[0] = last
		last.index = 0
		h.siftDown(0)
	}
	return e
}

// remove deletes the event at heap index i.
func (q *eventQueue) remove(i int) {
	h := *q
	e := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	e.index = -1
	if i == n {
		return
	}
	h[i] = last
	last.index = i
	if i > 0 && h.less(last, h[(i-1)/4]) {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
}

// siftUp moves the event at index i toward the root. The hole-shifting
// form (move parents down, place once) does one store per level instead
// of a three-store swap.
func (q eventQueue) siftUp(i int) {
	e := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// siftDown moves the event at index i toward the leaves.
func (q eventQueue) siftDown(i int) {
	n := len(q)
	e := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if q.less(q[j], q[m]) {
				m = j
			}
		}
		if !q.less(q[m], e) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = e
	e.index = i
}
