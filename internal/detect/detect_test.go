package detect

import (
	"strings"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/simclock"
)

func newDetected(t *testing.T) (*hv.Hypervisor, *simclock.Clock, *[]Event, *Detector) {
	t.Helper()
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 4, MemoryMB: 512, BlockSvc: 100 * time.Microsecond, NICLat: 10 * time.Microsecond},
		HeapFrames:     4096,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	events := &[]Event{}
	det := New(h, func(e Event) { *events = append(*events, e) })
	det.Start()
	return h, clk, events, det
}

func TestNoFalseDetectionsDuringNormalOperation(t *testing.T) {
	h, clk, events, _ := newDetected(t)
	if err := h.CreateDomain(1, "app", 2048, 1, false); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(2 * time.Second)
	if len(*events) != 0 {
		t.Fatalf("false detections: %v", *events)
	}
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
}

func TestPanicDetectedImmediately(t *testing.T) {
	h, clk, events, _ := newDetected(t)
	clk.RunUntil(50 * time.Millisecond)
	h.Panic(2, hv.CauseAssertion, "test fatal exception")
	if len(*events) != 1 {
		t.Fatalf("events = %v", *events)
	}
	e := (*events)[0]
	if e.Kind != Panic || e.CPU != 2 || e.At != clk.Now() || e.Cause != hv.CauseAssertion {
		t.Fatalf("event = %+v", e)
	}
	if !strings.Contains(e.String(), "panic on cpu2") {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestHangDetectedWithinWatchdogWindow(t *testing.T) {
	h, clk, events, _ := newDetected(t)
	if err := h.CreateDomain(1, "app", 2048, 1, false); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(time.Second)
	// Wedge CPU 1: a held console lock spins the next console hypercall.
	h.Statics.Console.TryAcquire(3)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	if !h.PerCPU(1).Stuck() {
		t.Fatal("CPU 1 not stuck")
	}
	start := clk.Now()
	clk.RunUntil(start + time.Second)
	if len(*events) == 0 {
		t.Fatal("hang not detected")
	}
	e := (*events)[0]
	if e.Kind != Hang || e.CPU != 1 || e.Cause != hv.CauseHang {
		t.Fatalf("event = %+v", e)
	}
	if !strings.Contains(e.Reason, "console_lock") {
		t.Fatalf("reason = %q", e.Reason)
	}
	// Detection latency: between 3 and ~5 watchdog periods.
	lat := e.At - start
	if lat < 2*Period || lat > 6*Period {
		t.Fatalf("detection latency = %v, want a few watchdog periods", lat)
	}
}

func TestWedgedCPUDetected(t *testing.T) {
	h, clk, events, _ := newDetected(t)
	if err := h.CreateDomain(1, "app", 2048, 1, false); err != nil {
		t.Fatal(err)
	}
	h.ArmInjection(100, func(hv.InjectionPoint) (hv.InjectAction, string) {
		return hv.ActionWedge, "wild jump"
	})
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpVCPUOp, Dom: 1})
	clk.RunUntil(time.Second)
	if len(*events) == 0 {
		t.Fatal("wedge not detected")
	}
	if (*events)[0].Kind != Hang || !strings.Contains((*events)[0].Reason, "wedged") {
		t.Fatalf("event = %+v", (*events)[0])
	}
}

func TestDeadAPICTimerDetectedAsHang(t *testing.T) {
	// The §V-A "Reprogram hardware timer" hazard: a CPU whose APIC
	// one-shot is never re-armed stops running its soft tick; the
	// watchdog NMI still fires and detects the silence.
	h, clk, events, _ := newDetected(t)
	clk.RunUntil(time.Second)
	h.Machine.CPU(3).DisarmTimer()
	// Drain the timer heap so nothing re-arms it: simulate the handler
	// dying between APIC fire and reprogram by just never reprogramming.
	start := clk.Now()
	clk.RunUntil(start + 2*time.Second)
	found := false
	for _, e := range *events {
		if e.Kind == Hang && e.CPU == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead APIC not detected: %v", *events)
	}
}

func TestResetProgressClearsStaleness(t *testing.T) {
	h, clk, events, det := newDetected(t)
	clk.RunUntil(time.Second)
	h.Machine.CPU(3).DisarmTimer()
	clk.RunUntil(clk.Now() + 250*time.Millisecond) // two stale checks
	det.ResetProgress()
	h.ReprogramAllAPICs()
	clk.RunUntil(clk.Now() + 2*time.Second)
	if len(*events) != 0 {
		t.Fatalf("detections after reset+revive: %v", *events)
	}
}

func TestKindString(t *testing.T) {
	if Panic.String() != "panic" || Hang.String() != "hang" || Kind(9).String() != "kind(9)" {
		t.Fatal("kind names wrong")
	}
}

func TestDetectionsCounter(t *testing.T) {
	h, _, _, det := newDetected(t)
	h.Panic(0, hv.CauseOther, "a")
	if det.Detections != 1 {
		t.Fatalf("Detections = %d", det.Detections)
	}
}

func TestRearmRevivesWatchdogSources(t *testing.T) {
	h, clk, events, det := newDetected(t)
	clk.RunUntil(time.Second)
	// Strand CPU 3's timers in the popped-not-rearmed hazard state and
	// cancel its watchdog NMI — the shape a failed recovery attempt
	// leaves the detector's inputs in when its execution threads are
	// discarded mid-handler.
	h.Machine.CPU(3).DisarmTimer()
	h.Machine.CPU(3).StopPerfNMI()
	clk.RunUntil(clk.Now() + 250*time.Millisecond)
	h.Timers.PopDue(3, clk.Now())
	if det.ticks[3].Active() {
		t.Fatal("setup: watchdog tick still active after PopDue")
	}
	det.Rearm()
	if !det.ticks[3].Active() {
		t.Fatal("Rearm did not reactivate the watchdog tick")
	}
	if !h.Machine.CPU(3).PerfNMIRunning() {
		t.Fatal("Rearm did not restart the perf NMI")
	}
	// Progress cleared and sources revived: no detections afterwards.
	h.Timers.ReactivateRecurring(clk.Now())
	h.ReprogramAllAPICs()
	clk.RunUntil(clk.Now() + 2*time.Second)
	if len(*events) != 0 {
		t.Fatalf("detections after Rearm: %v", *events)
	}
}

func TestRearmIsIdempotentOnHealthySystem(t *testing.T) {
	h, clk, events, det := newDetected(t)
	clk.RunUntil(time.Second)
	det.Rearm()
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if !det.ticks[cpu].Active() {
			t.Fatalf("cpu %d tick deactivated by Rearm", cpu)
		}
		if !h.Machine.CPU(cpu).PerfNMIRunning() {
			t.Fatalf("cpu %d perf NMI stopped by Rearm", cpu)
		}
	}
	clk.RunUntil(clk.Now() + 2*time.Second)
	if len(*events) != 0 {
		t.Fatalf("false detections after no-op Rearm: %v", *events)
	}
}
