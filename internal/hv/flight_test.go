package hv

import (
	"testing"

	"nilihype/internal/hypercall"
	"nilihype/internal/telemetry"
)

// flight returns the flight ring's retained events with one of the given
// codes, oldest first.
func flight(h *Hypervisor, keep ...telemetry.EventCode) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range h.Tel.Flight.Events() {
		for _, k := range keep {
			if e.Code == k {
				out = append(out, e)
			}
		}
	}
	return out
}

// TestTraceRecordsFullRecoveryTimeline: the always-on flight ring is the
// only hypervisor-level recorder, so it must carry the whole recovery
// story by itself — dispatch, panic, the per-CPU discards, the retry and
// the retried call's completion, in order.
func TestTraceRecordsFullRecoveryTimeline(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})

	d, _ := h.Domain(1)
	h.ArmInjection(250, func(InjectionPoint) (InjectAction, string) {
		return ActionPanic, "failstop"
	})
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
	pending := h.DiscardAllThreads()
	h.Locks.UnlockHeapLocks()
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)

	got := flight(h, telemetry.EvDispatch, telemetry.EvPanic, telemetry.EvRetry, telemetry.EvComplete)
	want := []telemetry.EventCode{telemetry.EvDispatch, telemetry.EvPanic, telemetry.EvRetry, telemetry.EvDispatch, telemetry.EvComplete}
	if len(got) < len(want) {
		t.Fatalf("flight ring holds %v, want at least %v", got, want)
	}
	for i, c := range want {
		if e := got[len(got)-len(want)+i]; e.Code != c {
			t.Fatalf("event %d from the end is %v, want %v (ring: %v)", len(want)-i, e.Code, c, got)
		}
	}
	if n := len(flight(h, telemetry.EvDiscard)); n != h.NumCPUs() {
		t.Fatalf("%d discard events, want one per CPU (%d)", n, h.NumCPUs())
	}
	if p := flight(h, telemetry.EvPanic); len(p) != 1 || h.Tel.EventDetail(p[0]) != "failstop" {
		t.Fatalf("panic events = %v, want the injected failstop reason", p)
	}
}

// TestTraceDropAndSpinEvents: the two remaining emit sites — a CPU
// starting to spin on a held lock, and an interrupted call abandoned
// without retry — land in the flight ring with their detail.
func TestTraceDropAndSpinEvents(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})

	h.Statics.Console.TryAcquire(3)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	if sp := flight(h, telemetry.EvSpin); len(sp) != 1 || h.Tel.EventDetail(sp[0]) != "console_lock" {
		t.Fatalf("spin events = %v, want one on console_lock", sp)
	}

	h.DropPendingCalls(h.DiscardAllThreads())
	if n := len(flight(h, telemetry.EvDrop)); n != 1 {
		t.Fatalf("%d drop events, want 1", n)
	}
}

// TestIRQEnterNamesSurviveTelemetryRestore: the interrupt path keeps the
// interned ids of its activity names instead of looking them up per
// interrupt. A restore truncates the intern table back to the snapshot, so
// a kept id may afterwards be unassigned — or assigned to another string.
// Every EvIRQEnter must still decode to the activity that ran.
func TestIRQEnterNamesSurviveTelemetryRestore(t *testing.T) {
	h, clk := newBooted(t)
	snap := h.Snapshot()
	irqNames := func() map[string]int {
		got := make(map[string]int)
		for _, e := range flight(h, telemetry.EvIRQEnter) {
			got[h.Tel.Str(e.Arg)]++
		}
		return got
	}

	clk.RunUntil(clk.Now() + 3*schedTickPeriod)
	first := irqNames()
	if len(first) != 1 || first["timer"] == 0 {
		t.Fatalf("first run's IRQ activities = %v, want only timer", first)
	}
	timerID := h.Tel.Intern("timer")

	h.Restore(snap)
	if got := h.Tel.Str(timerID); got != "" {
		t.Fatalf("restore kept %q at the truncated id; the test needs it gone", got)
	}
	// Another string takes the id the first run gave "timer".
	if id := h.Tel.Intern("squatter"); id != timerID {
		t.Fatalf("squatter interned at %d, want the freed id %d", id, timerID)
	}
	clk.RunUntil(clk.Now() + 3*schedTickPeriod)
	second := irqNames()
	if len(second) != 1 || second["timer"] != first["timer"] {
		t.Fatalf("after restore IRQ activities = %v, want %v", second, first)
	}
}
