// Package xentime models Xen's software timer subsystem: a per-CPU heap of
// software timers driven by the one-shot local APIC timer.
//
// The protocol is the one the paper's "Reprogram hardware timer"
// enhancement exists for (§V-A): the APIC timer fires, the handler pops and
// runs due software timers, and only then reprograms the APIC for the next
// deadline. A fault landing between the fire and the reprogram leaves the
// APIC silent forever. Similarly, a recurring timer that was popped but not
// yet re-armed when all execution threads are discarded never fires again
// ("Reactivate recurring timer events").
//
// The package is pure state: the current virtual time is always passed in
// explicitly and APIC programming goes through the Programmer interface, so
// the subsystem is trivially testable in isolation.
package xentime

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"
)

// Programmer abstracts the per-CPU one-shot APIC timer.
type Programmer interface {
	// ArmTimer programs cpu's APIC timer to fire at deadline.
	ArmTimer(cpu int, deadline time.Duration)
	// DisarmTimer cancels cpu's pending APIC shot.
	DisarmTimer(cpu int)
}

// Func is a software timer callback.
type Func func()

// Timer is one software timer. Recurring timers (Period > 0) re-arm
// themselves when finished by the interrupt handler.
type Timer struct {
	Name string
	Fn   Func
	timerState
	// runLabel/rearmLabel are the per-timer step names the interrupt
	// handler uses every expiration; precomputed so the handler builder
	// does not concatenate strings per tick.
	runLabel   string
	rearmLabel string
}

// timerState is a timer's schedule; Readd moves a timer between CPUs.
type timerState struct {
	CPU      int
	Deadline time.Duration
	Period   time.Duration // 0 for one-shot

	// Fires counts completed expirations.
	Fires uint64

	active bool
	index  int
}

// RunLabel returns the precomputed "run_timer:<name>" step label.
func (t *Timer) RunLabel() string { return t.runLabel }

// RearmLabel returns the precomputed "rearm:<name>" step label.
func (t *Timer) RearmLabel() string { return t.rearmLabel }

// Active reports whether the timer is queued in its CPU's heap. A
// recurring timer that was popped but not yet re-armed is inactive — the
// hazard state.
func (t *Timer) Active() bool { return t.active }

// Recurring reports whether the timer re-arms after firing.
func (t *Timer) Recurring() bool { return t.Period > 0 }

// Subsystem is the software timer subsystem across all CPUs.
type Subsystem struct {
	apic  Programmer
	heaps []timerHeap
	subsystemState
	// dueScratch backs PopDue's result between calls.
	dueScratch []*Timer
	// recurScratch[cpu] backs queuedRecurringOn(cpu)'s result; one buffer
	// per CPU, because the audit's per-CPU units call it concurrently.
	recurScratch [][]*Timer
}

// subsystemState is the registered-timer set. The heaps are saved timer
// by timer.
type subsystemState struct {
	// all tracks every timer ever added and not stopped, including
	// currently inactive ones; recovery's reactivation scan walks it.
	all map[*Timer]struct{}
}

// NewSubsystem creates the subsystem for the given CPU count.
func NewSubsystem(cpus int, apic Programmer) *Subsystem {
	return &Subsystem{
		apic:           apic,
		heaps:          make([]timerHeap, cpus),
		subsystemState: subsystemState{make(map[*Timer]struct{})},
		recurScratch:   make([][]*Timer, cpus),
	}
}

// AddTimer registers and arms a timer on a CPU's heap. The caller must
// follow with ProgramAPIC(cpu) — that separation mirrors the hypervisor
// code structure and is what creates the injectable window.
func (s *Subsystem) AddTimer(cpu int, name string, deadline, period time.Duration, fn Func) *Timer {
	if cpu < 0 || cpu >= len(s.heaps) {
		panic(fmt.Sprintf("xentime: bad cpu %d", cpu))
	}
	t := &Timer{Name: name, Fn: fn, timerState: timerState{CPU: cpu, Deadline: deadline, Period: period, active: true},
		runLabel: "run_timer:" + name, rearmLabel: "rearm:" + name}
	heap.Push(&s.heaps[cpu], t)
	s.all[t] = struct{}{}
	return t
}

// NewTimer builds an unregistered timer for later Readd. Callers that set
// the same logical timer over and over (a domain's set_timer_op wakeup
// timer) keep one record — and its precomputed step labels — instead of
// allocating a fresh Timer per set.
func NewTimer(cpu int, name string, fn Func) *Timer {
	return &Timer{Name: name, Fn: fn, timerState: timerState{CPU: cpu},
		runLabel: "run_timer:" + name, rearmLabel: "rearm:" + name}
}

// Readd registers and arms a reusable timer with a new schedule,
// equivalent to AddTimer with the record recycled. A still-queued timer is
// removed first; the registration check guards against a stale active flag
// on a record that a snapshot restore dropped from the subsystem.
func (s *Subsystem) Readd(t *Timer, cpu int, deadline, period time.Duration) {
	if cpu < 0 || cpu >= len(s.heaps) {
		panic(fmt.Sprintf("xentime: bad cpu %d", cpu))
	}
	if _, registered := s.all[t]; registered && t.active {
		heap.Remove(&s.heaps[t.CPU], t.index)
	}
	t.CPU = cpu
	t.Deadline = deadline
	t.Period = period
	t.active = true
	heap.Push(&s.heaps[cpu], t)
	s.all[t] = struct{}{}
}

// StopTimer deactivates and forgets a timer.
func (s *Subsystem) StopTimer(t *Timer) {
	if t.active {
		heap.Remove(&s.heaps[t.CPU], t.index)
		t.active = false
	}
	delete(s.all, t)
}

// NextDeadline returns the earliest pending deadline on cpu's heap.
func (s *Subsystem) NextDeadline(cpu int) (time.Duration, bool) {
	if s.heaps[cpu].Len() == 0 {
		return 0, false
	}
	return s.heaps[cpu][0].Deadline, true
}

// ProgramAPIC programs cpu's APIC one-shot to the heap's earliest
// deadline, or disarms it if the heap is empty. Recovery's "Reprogram
// hardware timer" enhancement calls this for every CPU.
func (s *Subsystem) ProgramAPIC(cpu int) {
	if d, ok := s.NextDeadline(cpu); ok {
		s.apic.ArmTimer(cpu, d)
	} else {
		s.apic.DisarmTimer(cpu)
	}
}

// PopDue removes and returns the timers on cpu's heap whose deadlines are
// <= now, marking them inactive. The interrupt handler runs each and then
// calls FinishTimer.
// The returned slice is a scratch buffer owned by the Subsystem: it is
// valid until the next PopDue call (the interrupt handler consumes it
// immediately while building its program, so this never escapes).
func (s *Subsystem) PopDue(cpu int, now time.Duration) []*Timer {
	due := s.dueScratch[:0]
	h := &s.heaps[cpu]
	for h.Len() > 0 && (*h)[0].Deadline <= now {
		t := heap.Pop(h).(*Timer)
		t.active = false
		due = append(due, t)
	}
	s.dueScratch = due
	return due
}

// FinishTimer completes one expiration: it counts the fire and re-arms the
// timer if it is recurring. One-shot timers are forgotten.
func (s *Subsystem) FinishTimer(t *Timer, now time.Duration) {
	t.Fires++
	if t.Period > 0 {
		t.Deadline = now + t.Period
		t.active = true
		heap.Push(&s.heaps[t.CPU], t)
		return
	}
	delete(s.all, t)
}

// InactiveRecurring returns recurring timers that are currently not queued
// — popped by an interrupt handler whose execution thread was then
// discarded. Without reactivation these never fire again.
func (s *Subsystem) InactiveRecurring() []*Timer {
	var out []*Timer
	for t := range s.all {
		if t.Recurring() && !t.active {
			out = append(out, t)
		}
	}
	return out
}

// ReactivateRecurring re-arms every inactive recurring timer one period
// from now and returns how many were revived, reprogramming the APIC of
// each affected CPU (re-adding a timer programs the APIC, as on the
// normal add path). This is the "Reactivate recurring timer events"
// enhancement (§V-A).
func (s *Subsystem) ReactivateRecurring(now time.Duration) int {
	n := 0
	touched := make(map[int]bool)
	for t := range s.all {
		if t.Recurring() && !t.active {
			t.Deadline = now + t.Period
			t.active = true
			heap.Push(&s.heaps[t.CPU], t)
			touched[t.CPU] = true
			n++
		}
	}
	for cpu := range touched {
		s.ProgramAPIC(cpu)
	}
	return n
}

// Reactivate re-arms one inactive recurring timer one period from now and
// reprograms its CPU's APIC. Unlike ReactivateRecurring it touches only the
// given timer: the watchdog re-arms its own soft tick between recovery
// attempts without implying the "Reactivate recurring timer events"
// enhancement for the rest of the system. Returns false if the timer is
// one-shot, already active, or no longer registered.
func (s *Subsystem) Reactivate(t *Timer, now time.Duration) bool {
	if !t.Recurring() || t.active {
		return false
	}
	if _, ok := s.all[t]; !ok {
		return false
	}
	t.Deadline = now + t.Period
	t.active = true
	heap.Push(&s.heaps[t.CPU], t)
	s.ProgramAPIC(t.CPU)
	return true
}

// PendingCount returns the number of queued timers on cpu.
func (s *Subsystem) PendingCount(cpu int) int { return s.heaps[cpu].Len() }

// stallDelta is how far into the future CorruptRandom pushes a stalled
// deadline — far beyond any real period, so the timer is effectively dead
// until repaired.
const stallDelta = time.Hour

// queuedRecurringOn returns one CPU's queued recurring timers sorted by
// name. Heap-slice layout is not deterministic across identical runs
// (reactivation pushes in map order), so corruption and audit walks must
// never use it for ordering. It reads only cpu's heap and writes only
// cpu's scratch, so concurrent calls for distinct CPUs are safe. The
// result is that scratch: valid until the next call for the same CPU.
func (s *Subsystem) queuedRecurringOn(cpu int) []*Timer {
	out := s.recurScratch[cpu][:0]
	for _, t := range s.heaps[cpu] {
		if t.Recurring() {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, byName)
	s.recurScratch[cpu] = out
	return out
}

func byName(a, b *Timer) int { return strings.Compare(a.Name, b.Name) }

// CheckHealthOn audits one CPU's queued recurring timers against their
// liveness bounds: a healthy queued recurring timer's deadline lies in
// (now-Period, now+Period]. Deadlines beyond now+Period are stalled (the
// timer will not fire when it should); deadlines more than a full period
// in the past are buried (popped order is violated — the timer was due
// long ago). One-shot timers carry guest-chosen deadlines the hypervisor
// cannot bound, so they are not checked. Results are sorted by timer name;
// both the count and the contents are deterministic regardless of
// heap-slice layout. Read-only over cpu's heap; safe to run concurrently
// for distinct CPUs.
func (s *Subsystem) CheckHealthOn(cpu int, now time.Duration) []string {
	var out []string
	for _, t := range s.queuedRecurringOn(cpu) {
		if t.Deadline > now+t.Period {
			out = append(out, fmt.Sprintf("cpu%d %s stalled (deadline %v, now %v, period %v)", t.CPU, t.Name, t.Deadline, now, t.Period))
		} else if t.Deadline+t.Period < now {
			out = append(out, fmt.Sprintf("cpu%d %s overdue by more than a period (deadline %v, now %v)", t.CPU, t.Name, t.Deadline, now))
		}
	}
	return out
}

// RepairHeapOn clamps cpu's out-of-bounds recurring deadlines to one
// period from now and restores cpu's heap property, returning the number
// of deadlines fixed; the timers fire again within one period of the
// repair. It does NOT reprogram the APIC: APIC programming goes through
// the shared virtual clock, so the audit reprograms the touched CPUs in a
// serialized apply step after the concurrent per-CPU repairs join. Writes
// only cpu's heap and timers homed on cpu; safe concurrently for distinct
// CPUs.
func (s *Subsystem) RepairHeapOn(cpu int, now time.Duration) int {
	fixed := 0
	for _, t := range s.queuedRecurringOn(cpu) {
		if t.Deadline > now+t.Period || t.Deadline+t.Period < now {
			t.Deadline = now + t.Period
			fixed++
		}
	}
	heap.Init(&s.heaps[cpu])
	return fixed
}

// InactiveRecurringOn returns cpu's inactive recurring timers sorted by
// name (InactiveRecurring returns all CPUs' in map order). It reads the
// registration map, which concurrent per-CPU repair units never write.
func (s *Subsystem) InactiveRecurringOn(cpu int) []*Timer {
	var out []*Timer
	for t := range s.all {
		if t.CPU == cpu && t.Recurring() && !t.active {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, byName)
	return out
}

// ReactivateRecurringOn re-arms cpu's inactive recurring timers one period
// from now and returns how many were revived. Like RepairHeapOn it leaves
// APIC programming to the caller's serialized apply step. Writes only
// timers homed on cpu and cpu's heap; safe concurrently for distinct CPUs.
func (s *Subsystem) ReactivateRecurringOn(cpu int, now time.Duration) int {
	n := 0
	for _, t := range s.InactiveRecurringOn(cpu) {
		t.Deadline = now + t.Period
		t.active = true
		heap.Push(&s.heaps[cpu], t)
		n++
	}
	return n
}

// CorruptRandom structurally damages a random queued recurring timer's
// deadline: either stalling it far into the future (the soft tick goes
// silent — liveness violation) or burying it in the past without
// re-heapifying (ordering violation). Returns a short description.
func (s *Subsystem) CorruptRandom(rng *rand.Rand) string {
	// Candidates in (CPU, name) order.
	var cands []*Timer
	for cpu := range s.heaps {
		cands = append(cands, s.queuedRecurringOn(cpu)...)
	}
	if len(cands) == 0 {
		return "no queued recurring timers"
	}
	t := cands[rng.IntN(len(cands))]
	if t.index > 0 && rng.IntN(2) == 0 {
		t.Deadline = 0
		return fmt.Sprintf("cpu%d %s buried in the past", t.CPU, t.Name)
	}
	t.Deadline += stallDelta + time.Duration(rng.Int64N(int64(time.Hour)))
	return fmt.Sprintf("cpu%d %s stalled", t.CPU, t.Name)
}

// NumCPUs returns the CPU count the subsystem was built for.
func (s *Subsystem) NumCPUs() int { return len(s.heaps) }

// timerHeap orders timers by deadline.
type timerHeap []*Timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].Deadline < h[j].Deadline }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
