package xentime

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// fakeAPIC records programming operations.
type fakeAPIC struct {
	armed    map[int]bool
	deadline map[int]time.Duration
}

func newFakeAPIC() *fakeAPIC {
	return &fakeAPIC{armed: make(map[int]bool), deadline: make(map[int]time.Duration)}
}

func (f *fakeAPIC) ArmTimer(cpu int, d time.Duration) {
	f.armed[cpu] = true
	f.deadline[cpu] = d
}

func (f *fakeAPIC) DisarmTimer(cpu int) { f.armed[cpu] = false }

func TestAddTimerAndProgramAPIC(t *testing.T) {
	apic := newFakeAPIC()
	s := NewSubsystem(2, apic)
	s.AddTimer(0, "a", 10*time.Millisecond, 0, nil)
	s.AddTimer(0, "b", 5*time.Millisecond, 0, nil)
	s.ProgramAPIC(0)
	if !apic.armed[0] || apic.deadline[0] != 5*time.Millisecond {
		t.Fatalf("APIC: armed=%v deadline=%v, want armed at 5ms", apic.armed[0], apic.deadline[0])
	}
	if d, ok := s.NextDeadline(0); !ok || d != 5*time.Millisecond {
		t.Fatalf("NextDeadline = %v,%v", d, ok)
	}
	if s.PendingCount(0) != 2 {
		t.Fatalf("PendingCount = %d, want 2", s.PendingCount(0))
	}
}

func TestProgramAPICDisarmsWhenEmpty(t *testing.T) {
	apic := newFakeAPIC()
	apic.armed[1] = true
	s := NewSubsystem(2, apic)
	s.ProgramAPIC(1)
	if apic.armed[1] {
		t.Fatal("APIC still armed with empty heap")
	}
}

func TestAddTimerBadCPUPanics(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	defer func() {
		if recover() == nil {
			t.Fatal("bad CPU did not panic")
		}
	}()
	s.AddTimer(3, "x", 0, 0, nil)
}

func TestPopDueReturnsOnlyDueInOrder(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	s.AddTimer(0, "late", 20*time.Millisecond, 0, nil)
	s.AddTimer(0, "first", 5*time.Millisecond, 0, nil)
	s.AddTimer(0, "second", 10*time.Millisecond, 0, nil)
	due := s.PopDue(0, 10*time.Millisecond)
	if len(due) != 2 || due[0].Name != "first" || due[1].Name != "second" {
		t.Fatalf("due = %v", due)
	}
	for _, d := range due {
		if d.Active() {
			t.Fatalf("popped timer %q still active", d.Name)
		}
	}
	if s.PendingCount(0) != 1 {
		t.Fatalf("PendingCount = %d, want 1", s.PendingCount(0))
	}
}

func TestFinishTimerOneShotForgotten(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	tm := s.AddTimer(0, "once", time.Millisecond, 0, nil)
	due := s.PopDue(0, time.Millisecond)
	s.FinishTimer(due[0], time.Millisecond)
	if tm.Fires != 1 {
		t.Fatalf("Fires = %d, want 1", tm.Fires)
	}
	if tm.Active() {
		t.Fatal("one-shot re-armed")
	}
	if len(s.InactiveRecurring()) != 0 {
		t.Fatal("one-shot appears in InactiveRecurring")
	}
}

func TestFinishTimerRecurringRearms(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	tm := s.AddTimer(0, "tick", 100*time.Millisecond, 100*time.Millisecond, nil)
	due := s.PopDue(0, 100*time.Millisecond)
	s.FinishTimer(due[0], 100*time.Millisecond)
	if !tm.Active() {
		t.Fatal("recurring timer not re-armed")
	}
	if tm.Deadline != 200*time.Millisecond {
		t.Fatalf("Deadline = %v, want 200ms", tm.Deadline)
	}
}

func TestInactiveRecurringDetectsDiscardedHandler(t *testing.T) {
	// Models the §V-A hazard: the handler popped the recurring timer and
	// was then discarded before FinishTimer.
	s := NewSubsystem(1, newFakeAPIC())
	s.AddTimer(0, "timesync", 50*time.Millisecond, time.Second, nil)
	s.PopDue(0, 50*time.Millisecond)
	// ... execution thread discarded here ...
	inact := s.InactiveRecurring()
	if len(inact) != 1 || inact[0].Name != "timesync" {
		t.Fatalf("InactiveRecurring = %v", inact)
	}
	if n := s.ReactivateRecurring(60 * time.Millisecond); n != 1 {
		t.Fatalf("reactivated %d, want 1", n)
	}
	if inact[0].Deadline != 60*time.Millisecond+time.Second {
		t.Fatalf("reactivated deadline = %v", inact[0].Deadline)
	}
	if len(s.InactiveRecurring()) != 0 {
		t.Fatal("still inactive after reactivation")
	}
}

func TestReactivateRecurringIgnoresActive(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	s.AddTimer(0, "tick", 10*time.Millisecond, 10*time.Millisecond, nil)
	if n := s.ReactivateRecurring(0); n != 0 {
		t.Fatalf("reactivated %d active timers", n)
	}
}

func TestStopTimer(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	tm := s.AddTimer(0, "x", 10*time.Millisecond, time.Second, nil)
	s.StopTimer(tm)
	if s.PendingCount(0) != 0 {
		t.Fatal("stopped timer still queued")
	}
	if len(s.InactiveRecurring()) != 0 {
		t.Fatal("stopped timer still tracked")
	}
	s.StopTimer(tm) // idempotent
}

func TestStopInactiveTimerForgotten(t *testing.T) {
	s := NewSubsystem(1, newFakeAPIC())
	tm := s.AddTimer(0, "x", time.Millisecond, time.Second, nil)
	s.PopDue(0, time.Millisecond)
	s.StopTimer(tm)
	if len(s.InactiveRecurring()) != 0 {
		t.Fatal("stopped inactive timer still tracked")
	}
}

func TestPerCPUIsolation(t *testing.T) {
	s := NewSubsystem(4, newFakeAPIC())
	s.AddTimer(2, "only-cpu2", time.Millisecond, 0, nil)
	if s.PendingCount(0) != 0 || s.PendingCount(2) != 1 {
		t.Fatal("timer leaked across CPUs")
	}
	if due := s.PopDue(0, time.Second); len(due) != 0 {
		t.Fatal("PopDue on wrong CPU returned timers")
	}
}

func TestNumCPUs(t *testing.T) {
	if got := NewSubsystem(7, newFakeAPIC()).NumCPUs(); got != 7 {
		t.Fatalf("NumCPUs = %d, want 7", got)
	}
}

// TestPropertyPopDueMonotone: popped deadlines are sorted and all <= now;
// remaining heap deadlines are > now.
func TestPropertyPopDueMonotone(t *testing.T) {
	f := func(deadlinesMS []uint16, nowMS uint16) bool {
		s := NewSubsystem(1, newFakeAPIC())
		for _, d := range deadlinesMS {
			s.AddTimer(0, "p", time.Duration(d)*time.Millisecond, 0, nil)
		}
		now := time.Duration(nowMS) * time.Millisecond
		due := s.PopDue(0, now)
		for i, d := range due {
			if d.Deadline > now {
				return false
			}
			if i > 0 && due[i-1].Deadline > d.Deadline {
				return false
			}
		}
		if d, ok := s.NextDeadline(0); ok && d <= now {
			return false
		}
		return len(due)+s.PendingCount(0) == len(deadlinesMS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRecurringNeverLostWithReactivation: regardless of where the
// pop/finish sequence is abandoned, ReactivateRecurring restores every
// recurring timer to the heap.
func TestPropertyRecurringNeverLostWithReactivation(t *testing.T) {
	f := func(nTimers uint8, finishMask uint16) bool {
		s := NewSubsystem(1, newFakeAPIC())
		count := int(nTimers%8) + 1
		for i := 0; i < count; i++ {
			s.AddTimer(0, "r", time.Millisecond, 50*time.Millisecond, nil)
		}
		due := s.PopDue(0, time.Millisecond)
		for i, tm := range due {
			if finishMask&(1<<uint(i)) != 0 {
				s.FinishTimer(tm, time.Millisecond)
			}
			// else: abandoned mid-handler
		}
		s.ReactivateRecurring(2 * time.Millisecond)
		return s.PendingCount(0) == count && len(s.InactiveRecurring()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReactivateSingleTimer(t *testing.T) {
	apic := newFakeAPIC()
	s := NewSubsystem(2, apic)
	tick := s.AddTimer(1, "watchdog-tick", 10*time.Millisecond, 10*time.Millisecond, nil)
	bystander := s.AddTimer(1, "sched-tick", 10*time.Millisecond, 10*time.Millisecond, nil)

	// Pop both into the hazard state (inactive but still registered), as
	// a discarded interrupt-handler thread leaves them.
	if due := s.PopDue(1, 10*time.Millisecond); len(due) != 2 {
		t.Fatalf("popped %d timers, want 2", len(due))
	}
	if tick.Active() || bystander.Active() {
		t.Fatal("popped timers still active")
	}

	// Reactivate revives exactly the given timer, one period from now.
	if !s.Reactivate(tick, 25*time.Millisecond) {
		t.Fatal("Reactivate refused an inactive recurring timer")
	}
	if !tick.Active() || tick.Deadline != 35*time.Millisecond {
		t.Fatalf("tick: active=%v deadline=%v, want active at 35ms", tick.Active(), tick.Deadline)
	}
	if bystander.Active() {
		t.Fatal("Reactivate revived a timer it was not given")
	}
	if !apic.armed[1] || apic.deadline[1] != 35*time.Millisecond {
		t.Fatalf("APIC not reprogrammed: armed=%v deadline=%v", apic.armed[1], apic.deadline[1])
	}

	// Already-active, one-shot and stopped timers are all refused.
	if s.Reactivate(tick, 40*time.Millisecond) {
		t.Fatal("Reactivate accepted an active timer")
	}
	oneShot := s.AddTimer(0, "once", 5*time.Millisecond, 0, nil)
	s.PopDue(0, 5*time.Millisecond)
	if s.Reactivate(oneShot, 10*time.Millisecond) {
		t.Fatal("Reactivate accepted a one-shot timer")
	}
	s.StopTimer(bystander)
	if s.Reactivate(bystander, 40*time.Millisecond) {
		t.Fatal("Reactivate accepted a stopped (unregistered) timer")
	}
}

// TestReaddStaleActiveFlagGuard is the regression test for the Readd
// registration guard: a reusable timer can carry a stale active flag and
// heap index from a subsystem a snapshot restore has since discarded.
// Readd into the restored subsystem must key its "still queued" check on
// registration in s.all, not the record's flag alone — otherwise it
// heap.Removes whatever innocent timer sits at the stale index (or panics
// on a shorter heap).
func TestReaddStaleActiveFlagGuard(t *testing.T) {
	// Arm the timer in a pre-restore subsystem so it carries a live flag
	// and index.
	old := NewSubsystem(2, newFakeAPIC())
	stale := NewTimer(0, "wakeup", nil)
	old.Readd(stale, 0, 10*time.Millisecond, 0)
	if !stale.Active() {
		t.Fatal("setup: timer not armed in the old subsystem")
	}

	// The restored subsystem never heard of it, but has its own timer at
	// the same heap position.
	s := NewSubsystem(2, newFakeAPIC())
	innocent := s.AddTimer(0, "victim", 20*time.Millisecond, 0, nil)

	s.Readd(stale, 0, 15*time.Millisecond, 0)

	if !innocent.Active() {
		t.Fatal("Readd of a stale-active unregistered timer evicted a registered one")
	}
	if d, ok := s.NextDeadline(0); !ok || d != 15*time.Millisecond {
		t.Fatalf("NextDeadline = %v,%v, want 15ms from the re-added timer", d, ok)
	}
	due := s.PopDue(0, 20*time.Millisecond)
	if len(due) != 2 || due[0] != stale || due[1] != innocent {
		t.Fatalf("PopDue returned %d timer(s), want stale then innocent", len(due))
	}

	// Same guard on the empty-heap shape: must not panic reaching for a
	// stale index past the heap's end.
	empty := NewSubsystem(1, newFakeAPIC())
	orphan := NewTimer(0, "orphan", nil)
	old.Readd(orphan, 0, 5*time.Millisecond, 0)
	empty.Readd(orphan, 0, 5*time.Millisecond, 0)
	if n := empty.heaps[0].Len(); n != 1 {
		t.Fatalf("empty-subsystem Readd queued %d timers, want 1", n)
	}
}

// TestPerCPUAuditWalksAllocateOnlyFindings: the audit's per-CPU timer walk
// sorts into the CPU's own scratch, so checking and repairing a healthy
// heap, and looking for dead recurring timers where there are none,
// allocate nothing.
func TestPerCPUAuditWalksAllocateOnlyFindings(t *testing.T) {
	s := NewSubsystem(2, newFakeAPIC())
	for _, name := range []string{"sched-tick", "watchdog-tick", "time-sync", "credit-acct"} {
		s.AddTimer(1, name, 10*time.Millisecond, 10*time.Millisecond, nil)
	}
	now := 5 * time.Millisecond
	if n := testing.AllocsPerRun(20, func() {
		if len(s.CheckHealthOn(1, now)) != 0 || s.RepairHeapOn(1, now) != 0 || len(s.InactiveRecurringOn(1)) != 0 {
			t.Fatal("healthy heap reported damage")
		}
	}); n != 0 {
		t.Fatalf("auditing a healthy CPU allocates %.0f objects, want 0", n)
	}
	q := s.queuedRecurringOn(1)
	if !slices.IsSortedFunc(q, byName) || len(q) != 4 {
		t.Fatalf("queued recurring timers not sorted by name: %d timers", len(q))
	}
}
