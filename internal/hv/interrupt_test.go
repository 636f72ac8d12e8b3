package hv

import (
	"strings"
	"testing"
	"time"

	"nilihype/internal/hw"
)

// TestTimerIRQWindowHazard verifies the §V-A structure of the timer
// interrupt handler: from entry until the reprogram step the APIC is
// genuinely unarmed, so a fault there leaves a dead timer; after the
// reprogram step the handler is hazardless.
func TestTimerIRQWindowHazard(t *testing.T) {
	h, clk := newBooted(t)
	type obs struct {
		step  string
		armed bool
	}
	var seen []obs
	h.ArmInjection(1<<40, func(InjectionPoint) (InjectAction, string) { return ActionContinue, "" })
	// Observe the APIC state at every step of the first tick on CPU 3 by
	// wrapping the injector? Simpler: snapshot around RunUntil with a
	// probe: replace injection with a step-level probe via PanicAtNextStep
	// is destructive. Instead drive one IRQ manually.
	h.injectArmed = false
	cpu := 3
	// Let the tick fire naturally and capture states via a custom probe
	// program: build the IRQ program and execute steps by hand.
	clk.RunUntil(9 * time.Millisecond)
	// Force the APIC to fire now.
	h.Machine.CPU(cpu).ArmTimer(clk.Now())
	// Intercept: build the program directly (the tick is due at 10ms,
	// not yet; so the heap has pending timers and reprogram will re-arm).
	prog := h.buildTimerIRQ(cpu)
	pc := h.PerCPU(cpu)
	_ = pc
	h.Machine.CPU(cpu).DisarmTimer() // the fire consumed the one-shot
	for i := range prog {
		seen = append(seen, obs{prog[i].Name, h.Machine.CPU(cpu).TimerArmed()})
		if err := prog[i].Do(pc.Env, &prog[i]); err != nil {
			t.Fatalf("step %q: %v", prog[i].Name, err)
		}
	}
	reprogrammed := false
	for _, o := range seen {
		switch {
		case o.step == "reprogram_apic":
			if o.armed {
				t.Fatal("APIC armed before the reprogram step (no window)")
			}
			reprogrammed = true
		case reprogrammed && strings.HasPrefix(o.step, "softirq"):
			if !o.armed {
				t.Fatalf("APIC unarmed during %q (softirq must be post-window)", o.step)
			}
		}
	}
	if !reprogrammed {
		t.Fatal("no reprogram step in timer IRQ program")
	}
	if h.percpu[cpu].LocalIRQCount != 0 {
		t.Fatal("irq count unbalanced after manual IRQ run")
	}
}

// TestTimerIRQHousekeepingIsHazardless verifies that the softirq
// housekeeping steps carry no locks and no pending call — the class of
// injection points that recovers with only Clear-IRQ-count (the 16% rung
// of Table I).
func TestTimerIRQHousekeepingIsHazardless(t *testing.T) {
	h, clk := newBooted(t)
	var pt InjectionPoint
	captured := false
	var probe InjectFunc
	probe = func(p InjectionPoint) (InjectAction, string) {
		if strings.HasPrefix(p.StepName, "softirq_") {
			pt = p
			captured = true
			return ActionContinue, ""
		}
		h.ArmInjection(0, probe)
		return ActionContinue, ""
	}
	h.ArmInjection(0, probe)
	clk.RunUntil(clk.Now() + 20*time.Millisecond)
	if !captured {
		t.Fatal("no injection point landed in housekeeping")
	}
	if pt.Call != nil {
		t.Fatal("housekeeping step has a pending call")
	}
	if len(pt.HeldLocks) != 0 {
		t.Fatalf("housekeeping step holds locks: %v", pt.HeldLocks)
	}
	if !pt.InIRQ {
		t.Fatal("housekeeping step not marked in-IRQ")
	}
}

// TestDeviceIRQInServiceWindow verifies that a discard between the device
// read and the EOI leaves the IO-APIC line blocked — the hazard the
// recovery-time AckAll exists for.
func TestDeviceIRQInServiceWindow(t *testing.T) {
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	// A persistent step probe: re-arms itself until it reaches the eoi
	// step of a block-device IRQ, then wedges the CPU there.
	fired := false
	var probe InjectFunc
	probe = func(p InjectionPoint) (InjectAction, string) {
		if p.Activity == "irq:block" && p.StepName == "eoi" {
			fired = true
			return ActionWedge, ""
		}
		h.ArmInjection(0, probe)
		return ActionContinue, ""
	}
	h.ArmInjection(0, probe)
	h.Machine.Block().Submit(hw.BlockRequest{Owner: 1, Sectors: 1})
	clk.RunUntil(clk.Now() + 5*time.Millisecond)
	if !fired {
		t.Fatal("probe never landed on the eoi step")
	}
	if !h.Machine.IOAPIC().InService(hw.IRQBlock) {
		t.Fatal("line not in service after wedge before EOI")
	}
	// The recovery mechanism clears it.
	h.Machine.IOAPIC().AckAll()
	if h.Machine.IOAPIC().InService(hw.IRQBlock) {
		t.Fatal("AckAll did not clear the line")
	}
}
