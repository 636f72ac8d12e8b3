package detect

import (
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/telemetry"
)

// TestMgmtWatchdogFiresOnSilence: with the management-call watchdog armed
// and no PrivVM management-call completions, the criterion fires after
// MgmtStaleChecks NMI checks on CPU 0.
func TestMgmtWatchdogFiresOnSilence(t *testing.T) {
	_, clk, events, det := newDetected(t)
	det.SetCriteria(true, false)
	clk.RunUntil(time.Second)
	if len(*events) == 0 {
		t.Fatal("mgmt watchdog never fired on a silent system")
	}
	e := (*events)[0]
	if e.Kind != MgmtWatchdog || e.CPU != 0 || e.Cause != hv.CausePrivVMLost {
		t.Fatalf("event = %+v", e)
	}
	// Silence is declared after MgmtStaleChecks+1 NMI periods at most
	// (the first check baselines, the next MgmtStaleChecks accumulate).
	if e.At > time.Duration(MgmtStaleChecks+2)*Period {
		t.Fatalf("fired late: %v", e.At)
	}
}

// TestMgmtWatchdogQuietWhileCallsAdvance: management-call completions
// between checks keep the watchdog silent — no false positives from a
// healthy PrivVM.
func TestMgmtWatchdogQuietWhileCallsAdvance(t *testing.T) {
	h, clk, events, det := newDetected(t)
	det.SetCriteria(true, false)
	// Stand in for the PrivVM housekeeping tick: a completion every 50ms.
	h.Timers.AddTimer(0, "fake_mgmt_tick", clk.Now()+50*time.Millisecond, 50*time.Millisecond,
		func() { h.Tel.Counters[telemetry.CtrMgmtCompletions]++ })
	h.Timers.ProgramAPIC(0)
	clk.RunUntil(2 * time.Second)
	if len(*events) != 0 {
		t.Fatalf("false detections: %v", *events)
	}
}

// TestIRQDeliveryDetectsRouteDivergence: a redirection-table entry that
// diverges from the boot software copy is caught by the next CPU 0 NMI
// read-back.
func TestIRQDeliveryDetectsRouteDivergence(t *testing.T) {
	h, clk, events, det := newDetected(t)
	det.SetCriteria(false, true)
	clk.RunUntil(time.Second)
	if len(*events) != 0 {
		t.Fatalf("false detections on clean table: %v", *events)
	}
	h.Machine.IOAPIC().CorruptRoute(hw.IRQBlock, hw.CorruptVector)
	at := clk.Now()
	clk.RunUntil(at + 500*time.Millisecond)
	if len(*events) == 0 {
		t.Fatal("route divergence never detected")
	}
	e := (*events)[0]
	if e.Kind != IRQDelivery || e.CPU != 0 || e.Cause != hv.CauseDeviceRoute {
		t.Fatalf("event = %+v", e)
	}
	if e.At > at+2*Period {
		t.Fatalf("detected late: corrupted at %v, event at %v", at, e.At)
	}
}

// TestIRQDeliveryDetectsStuckLine: a line stranded in service is declared
// lost after IRQStuckChecks consecutive NMI observations.
func TestIRQDeliveryDetectsStuckLine(t *testing.T) {
	h, clk, events, det := newDetected(t)
	det.SetCriteria(false, true)
	h.Machine.IOAPIC().StrandLine(hw.IRQNIC)
	at := clk.Now()
	clk.RunUntil(at + time.Second)
	if len(*events) == 0 {
		t.Fatal("stuck line never detected")
	}
	e := (*events)[0]
	if e.Kind != IRQDelivery || e.Cause != hv.CauseDeviceRoute {
		t.Fatalf("event = %+v", e)
	}
	if e.At > at+time.Duration(IRQStuckChecks+2)*Period {
		t.Fatalf("detected late: %v after strand", e.At-at)
	}
}

// TestCriteriaOffIgnoreDamage: with the opt-in criteria disabled (the
// legacy configuration), neither PrivVM silence nor device damage produces
// events — legacy campaigns see the detector they always had.
func TestCriteriaOffIgnoreDamage(t *testing.T) {
	h, clk, events, det := newDetected(t)
	det.SetCriteria(false, false)
	h.Machine.IOAPIC().CorruptRoute(hw.IRQBlock, hw.CorruptCPU)
	h.Machine.IOAPIC().StrandLine(hw.IRQNIC)
	clk.RunUntil(2 * time.Second)
	if len(*events) != 0 {
		t.Fatalf("criteria fired while disabled: %v", *events)
	}
}

// TestRearmResetsCriteriaProgress: Rearm between escalation attempts
// re-baselines the criteria, so a detection right before recovery does not
// instantly re-fire from stale staleness counters — the grace window
// starts from a clean slate.
func TestRearmResetsCriteriaProgress(t *testing.T) {
	h, clk, events, det := newDetected(t)
	det.SetCriteria(true, true)
	h.Machine.IOAPIC().StrandLine(hw.IRQNIC)
	clk.RunUntil(time.Second)
	if len(*events) == 0 {
		t.Fatal("no initial detection")
	}
	// Recovery clears the latch and re-arms; the accumulated stuck count
	// must not survive into the next observation window.
	h.Machine.IOAPIC().AckAll()
	det.Rearm()
	n := len(*events)
	clk.RunUntil(clk.Now() + time.Second)
	for _, e := range (*events)[n:] {
		if e.Kind == IRQDelivery {
			t.Fatalf("stale stuck-count refired after Rearm: %+v", e)
		}
	}
}

// TestCriteriaKindStrings pins the new kind names used in traces.
func TestCriteriaKindStrings(t *testing.T) {
	if MgmtWatchdog.String() != "mgmt-watchdog" || IRQDelivery.String() != "irq-delivery" {
		t.Fatalf("kind names: %v %v", MgmtWatchdog, IRQDelivery)
	}
}

// TestCriteriaCounters: each criterion increments its own telemetry
// counter on fire.
func TestCriteriaCounters(t *testing.T) {
	h, clk, _, det := newDetected(t)
	det.SetCriteria(true, false)
	clk.RunUntil(time.Second)
	if h.Tel.Counters[telemetry.CtrDetectMgmt] == 0 {
		t.Fatal("mgmt watchdog counter did not advance")
	}
	if h.Tel.Counters[telemetry.CtrDetectIRQ] != 0 {
		t.Fatal("irq counter advanced without the criterion enabled")
	}
}
