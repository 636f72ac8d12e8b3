package simclock

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// propEvent mirrors one live event in the model: the time it should fire
// at and a stamp that tracks the clock's internal seq. Every At (a
// reschedule is Cancel then At) bumps both the clock's seq and the model's
// stamp in lockstep, so sorting the model by (when, stamp) predicts the
// exact dispatch order the FIFO-at-equal-timestamp guarantee promises.
type propEvent struct {
	when  time.Duration
	stamp uint64
	ev    *Event
	fn    Func
}

type propModel struct {
	c       *Clock
	stamp   uint64
	pending []*propEvent
	fired   []struct {
		when  time.Duration
		stamp uint64
	}
}

func newPropModel() *propModel { return &propModel{c: New()} }

func (m *propModel) schedule(when time.Duration) {
	p := &propEvent{when: when, stamp: m.stamp}
	m.stamp++
	p.fn = func() {
		m.fired = append(m.fired, struct {
			when  time.Duration
			stamp uint64
		}{p.when, p.stamp})
	}
	p.ev = m.c.At(when, "prop", p.fn)
	m.pending = append(m.pending, p)
}

func (m *propModel) cancel(i int) {
	m.c.Cancel(m.pending[i].ev)
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
}

func (m *propModel) reschedule(i int, when time.Duration) {
	p := m.pending[i]
	p.when = when
	p.stamp = m.stamp
	m.stamp++
	m.c.Cancel(p.ev)
	p.ev = m.c.At(when, "prop", p.fn)
}

// verify drains the clock and checks the dispatch order against the model:
// nondecreasing timestamps, and FIFO (scheduling order) among events that
// share a timestamp.
func (m *propModel) verify(t *testing.T) {
	t.Helper()
	if got, want := len(m.c.queue), len(m.pending); got != want {
		t.Fatalf("clock holds %d events, model says %d", got, want)
	}
	expected := append([]*propEvent(nil), m.pending...)
	sort.SliceStable(expected, func(i, j int) bool {
		if expected[i].when != expected[j].when {
			return expected[i].when < expected[j].when
		}
		return expected[i].stamp < expected[j].stamp
	})
	drain(m.c)
	if len(m.fired) != len(expected) {
		t.Fatalf("fired %d events, want %d", len(m.fired), len(expected))
	}
	for i, f := range m.fired {
		if f.when != expected[i].when || f.stamp != expected[i].stamp {
			t.Fatalf("dispatch %d fired (when=%v stamp=%d), want (when=%v stamp=%d)",
				i, f.when, f.stamp, expected[i].when, expected[i].stamp)
		}
		if i > 0 && f.when < m.fired[i-1].when {
			t.Fatalf("time ran backwards: dispatch %d at %v after %v", i, f.when, m.fired[i-1].when)
		}
	}
	if len(m.c.queue) != 0 {
		t.Fatalf("%d events left after Run", len(m.c.queue))
	}
}

// TestRandomScheduleCancelRescheduleOrdering is the kernel's ordering
// property test: any random interleaving of schedule, cancel, and
// reschedule must dispatch in (timestamp, scheduling-order) order. The
// timestamp universe is deliberately tiny (40 distinct values for ~400
// events) so equal-timestamp collisions — the FIFO tie-break — dominate.
func TestRandomScheduleCancelRescheduleOrdering(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x51dc))
		m := newPropModel()
		randWhen := func() time.Duration {
			return time.Duration(rng.IntN(40)) * time.Millisecond
		}
		for i := 0; i < 400; i++ {
			switch op := rng.IntN(10); {
			case op < 6 || len(m.pending) == 0:
				m.schedule(randWhen())
			case op < 8:
				m.cancel(rng.IntN(len(m.pending)))
			default:
				m.reschedule(rng.IntN(len(m.pending)), randWhen())
			}
		}
		m.verify(t)
	}
}

// FuzzScheduleOrdering drives the same property from a fuzzer-controlled
// op stream. Each byte is one operation: the low two bits pick the op
// (schedule is twice as likely), the high six bits pick the timestamp.
func FuzzScheduleOrdering(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 7, 0, 0, 128, 64})
	f.Add([]byte{9, 9, 9, 9, 9, 9})
	f.Add([]byte{255, 254, 253, 2, 2, 2, 3, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newPropModel()
		for i, b := range ops {
			when := time.Duration(b>>2) * time.Millisecond
			switch {
			case b&3 <= 1 || len(m.pending) == 0:
				m.schedule(when)
			case b&3 == 2:
				m.cancel(i % len(m.pending))
			default:
				m.reschedule(i%len(m.pending), when)
			}
		}
		m.verify(t)
	})
}
