package simclock

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

// drain dispatches events until the queue empties or the clock halts.
func drain(c *Clock) {
	for c.Step() {
	}
}

func TestNewClockStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
	if len(c.queue) != 0 {
		t.Fatalf("queue holds %d events, want 0", len(c.queue))
	}
}

func TestAfterFiresAtRightTime(t *testing.T) {
	c := New()
	var firedAt time.Duration = -1
	c.After(5*time.Millisecond, "t", func() { firedAt = c.Now() })
	drain(c)
	if firedAt != 5*time.Millisecond {
		t.Fatalf("fired at %v, want 5ms", firedAt)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := New()
	var order []int
	c.After(30*time.Microsecond, "c", func() { order = append(order, 3) })
	c.After(10*time.Microsecond, "a", func() { order = append(order, 1) })
	c.After(20*time.Microsecond, "b", func() { order = append(order, 2) })
	drain(c)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Millisecond, "same", func() { order = append(order, i) })
	}
	drain(c)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO 0..9", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	e := c.After(time.Millisecond, "x", func() { fired = true })
	c.Cancel(e)
	drain(c)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.index >= 0 {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	c := New()
	e := c.After(time.Millisecond, "x", func() {})
	c.Cancel(e)
	c.Cancel(e) // must not panic
	c.Cancel(nil)
	drain(c)
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	c := New()
	e := c.After(time.Millisecond, "x", func() {})
	drain(c)
	c.Cancel(e) // must not panic
}

// TestRescheduleMovesEvent: moving a pending event is Cancel then At (the
// APIC one-shot re-arm idiom); it fires at the new time only.
func TestRescheduleMovesEvent(t *testing.T) {
	c := New()
	var fired []time.Duration
	fn := func() { fired = append(fired, c.Now()) }
	e := c.After(time.Millisecond, "x", fn)
	c.Cancel(e)
	c.At(7*time.Millisecond, "x", fn)
	drain(c)
	if len(fired) != 1 || fired[0] != 7*time.Millisecond {
		t.Fatalf("fired at %v, want once at 7ms", fired)
	}
}

// TestRescheduleAfterFireRequeues: a fired event's storage goes back to
// the free list, and scheduling again reuses it and fires again.
func TestRescheduleAfterFireRequeues(t *testing.T) {
	c := New()
	count := 0
	fn := func() { count++ }
	e := c.After(time.Millisecond, "x", fn)
	drain(c)
	if again := c.At(2*time.Millisecond, "x", fn); again != e {
		t.Fatal("fired event's storage was not reused")
	}
	drain(c)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := New()
	fired := false
	c.After(10*time.Millisecond, "late", func() { fired = true })
	c.RunUntil(5 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", c.Now())
	}
	c.RunUntil(20 * time.Millisecond)
	if !fired {
		t.Fatal("event within horizon did not fire")
	}
}

func TestRunUntilFiresEventExactlyAtHorizon(t *testing.T) {
	c := New()
	fired := false
	c.After(5*time.Millisecond, "edge", func() { fired = true })
	c.RunUntil(5 * time.Millisecond)
	if !fired {
		t.Fatal("event at exact horizon did not fire")
	}
}

func TestHaltStopsDispatch(t *testing.T) {
	c := New()
	count := 0
	for i := 1; i <= 5; i++ {
		c.After(time.Duration(i)*time.Millisecond, "n", func() {
			count++
			if count == 2 {
				c.Halt()
			}
		})
	}
	drain(c)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (halt should stop dispatch)", count)
	}
	if !c.halted {
		t.Fatal("not halted after Halt")
	}
	c.Resume()
	drain(c)
	if count != 5 {
		t.Fatalf("count = %d after resume, want 5", count)
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	c := New()
	var times []time.Duration
	c.After(time.Millisecond, "outer", func() {
		c.After(time.Millisecond, "inner", func() {
			times = append(times, c.Now())
		})
	})
	drain(c)
	if len(times) != 1 || times[0] != 2*time.Millisecond {
		t.Fatalf("inner fired at %v, want [2ms]", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.After(time.Millisecond, "x", func() {})
	drain(c)
	defer func() {
		if recover() == nil {
			t.Fatal("At() in the past did not panic")
		}
	}()
	c.At(0, "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("After() with negative delay did not panic")
		}
	}()
	c.After(-time.Millisecond, "neg", func() {})
}

func TestDispatchedCounter(t *testing.T) {
	c := New()
	for i := 0; i < 7; i++ {
		c.After(time.Duration(i)*time.Microsecond, "n", func() {})
	}
	drain(c)
	if c.Dispatched() != 7 {
		t.Fatalf("Dispatched() = %d, want 7", c.Dispatched())
	}
}

func TestEventAccessors(t *testing.T) {
	c := New()
	e := c.After(3*time.Millisecond, "tagged", func() {})
	if e.when != 3*time.Millisecond {
		t.Fatalf("when = %v, want 3ms", e.when)
	}
	if e.tag != "tagged" {
		t.Fatalf("tag = %q, want %q", e.tag, "tagged")
	}
	if e.index < 0 {
		t.Fatal("event not queued before fire")
	}
	drain(c)
	if e.index >= 0 {
		t.Fatal("event still queued after fire")
	}
}

// TestPropertyDispatchOrderMonotone is a property test: for any set of
// delays, dispatch times are non-decreasing and every event fires exactly
// once.
func TestPropertyDispatchOrderMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		c := New()
		var fired []time.Duration
		for _, d := range delays {
			c.After(time.Duration(d)*time.Microsecond, "p", func() {
				fired = append(fired, c.Now())
			})
		}
		drain(c)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelSubset: cancelling an arbitrary subset fires exactly
// the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, cancelMask uint64) bool {
		count := int(n%32) + 1
		c := New()
		events := make([]*Event, count)
		firedCount := 0
		for i := 0; i < count; i++ {
			events[i] = c.After(time.Duration(i)*time.Microsecond, "p", func() { firedCount++ })
		}
		cancelled := 0
		for i := 0; i < count; i++ {
			if cancelMask&(1<<uint(i)) != 0 {
				c.Cancel(events[i])
				cancelled++
			}
		}
		drain(c)
		return firedCount == count-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelThenRescheduleRecycledEvent: a cancelled event sits on the
// free list; rescheduling reuses its storage exactly once, so the next At
// must NOT hand out the same storage while it is queued.
func TestCancelThenRescheduleRecycledEvent(t *testing.T) {
	c := New()
	count := 0
	e := c.After(time.Millisecond, "x", func() { count++ })
	c.Cancel(e)
	if e.index >= 0 {
		t.Fatal("cancelled event still pending")
	}
	if again := c.At(2*time.Millisecond, "x", func() { count++ }); again != e || e.index < 0 {
		t.Fatal("rescheduling did not reuse the cancelled storage")
	}
	other := c.After(3*time.Millisecond, "y", func() {})
	if other == e {
		t.Fatal("free list reused a queued event")
	}
	drain(c)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

// TestCancelledEventIsRecycled: storage of a cancelled event is reused by
// the next scheduling (the free list works), and the reused event carries
// the new callback/tag, not the old ones.
func TestCancelledEventIsRecycled(t *testing.T) {
	c := New()
	oldFired, newFired := false, false
	e := c.After(time.Millisecond, "old", func() { oldFired = true })
	c.Cancel(e)
	e2 := c.After(2*time.Millisecond, "new", func() { newFired = true })
	if e2 != e {
		t.Fatal("cancelled event was not recycled")
	}
	if e2.tag != "new" {
		t.Fatalf("recycled tag = %q", e2.tag)
	}
	drain(c)
	if oldFired || !newFired {
		t.Fatalf("oldFired=%v newFired=%v", oldFired, newFired)
	}
}

// TestPeriodicRescheduleFromOwnCallback: the periodic-timer idiom — an
// event scheduling its successor from its own callback — must never be
// handed its own in-flight storage.
func TestPeriodicRescheduleFromOwnCallback(t *testing.T) {
	c := New()
	count := 0
	var tick func()
	var cur *Event
	tick = func() {
		count++
		if count < 5 {
			next := c.After(time.Millisecond, "tick", tick)
			if next == cur {
				t.Fatal("in-flight event handed out from its own callback")
			}
			cur = next
		}
	}
	cur = c.After(time.Millisecond, "tick", tick)
	drain(c)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", c.Now())
	}
}

// TestHaltMidRunUntilPreservesQueue: halting from inside a callback stops
// RunUntil immediately; the remaining events stay queued and fire after
// Resume, in order.
func TestHaltMidRunUntilPreservesQueue(t *testing.T) {
	c := New()
	var order []int
	for i := 1; i <= 6; i++ {
		i := i
		c.After(time.Duration(i)*time.Millisecond, "n", func() {
			order = append(order, i)
			if i == 3 {
				c.Halt()
			}
		})
	}
	c.RunUntil(10 * time.Millisecond)
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 events before halt", order)
	}
	if len(c.queue) != 3 {
		t.Fatalf("queue holds %d events, want 3 preserved", len(c.queue))
	}
	if c.Now() != 3*time.Millisecond {
		t.Fatalf("Now() = %v (RunUntil must not advance past the halt)", c.Now())
	}
	c.Resume()
	c.RunUntil(10 * time.Millisecond)
	want := []int{1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestManySameTimestampEventsFIFO: >4k events at one instant must fire in
// scheduling order — the (when, seq) tie-break must hold across the 4-ary
// heap's sift paths at real depths.
func TestManySameTimestampEventsFIFO(t *testing.T) {
	const n = 5000
	c := New()
	var order []int
	for i := 0; i < n; i++ {
		i := i
		c.At(time.Millisecond, "same", func() { order = append(order, i) })
	}
	drain(c)
	if len(order) != n {
		t.Fatalf("fired %d, want %d", len(order), n)
	}
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want FIFO", i, order[i])
		}
	}
}

// TestInterleavedCancelRemoveHeapIntegrity: removals from the middle of a
// populated heap (Cancel of arbitrary events) must preserve dispatch
// order for the survivors.
func TestInterleavedCancelRemoveHeapIntegrity(t *testing.T) {
	c := New()
	const n = 1000
	events := make([]*Event, n)
	var fired []time.Duration
	for i := 0; i < n; i++ {
		d := time.Duration((i*7919)%997+1) * time.Microsecond
		events[i] = c.At(d, "p", func() { fired = append(fired, c.Now()) })
	}
	cancelled := 0
	for i := 0; i < n; i += 3 {
		c.Cancel(events[i])
		cancelled++
	}
	drain(c)
	if len(fired) != n-cancelled {
		t.Fatalf("fired %d, want %d", len(fired), n-cancelled)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("dispatch order regressed at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

// TestSteadyStateScheduleIsAllocationFree: once the pool is primed, the
// schedule+dispatch cycle must not allocate (the campaign hot loop).
func TestSteadyStateScheduleIsAllocationFree(t *testing.T) {
	c := New()
	fn := func() {}
	// Prime the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Microsecond, "prime", fn)
	}
	drain(c)
	allocs := testing.AllocsPerRun(1000, func() {
		c.After(time.Microsecond, "steady", fn)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		e := c.After(time.Millisecond, "cancelled", fn)
		c.Cancel(e)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPropertyDeterminism: two clocks fed the same randomized schedule
// dispatch identical sequences.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed uint64) []string {
		rng := rand.New(rand.NewPCG(seed, 0))
		c := New()
		var log []string
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth > 3 {
				return
			}
			n := rng.IntN(4) + 1
			for i := 0; i < n; i++ {
				d := time.Duration(rng.IntN(1000)) * time.Microsecond
				tag := string(rune('a' + rng.IntN(26)))
				c.After(d, tag, func() {
					log = append(log, tag)
					if rng.IntN(3) == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		drain(c)
		return log
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: dispatch %d differs: %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
}
