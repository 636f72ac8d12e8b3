package audit

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"nilihype/internal/hw"
	"nilihype/internal/telemetry"
)

// TestIOAPICRouteDamageRepaired: the audit walk reads the redirection
// table back against the boot copy, reprograms diverged entries, and
// reports one Repaired violation.
func TestIOAPICRouteDamageRepaired(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		io := h.Machine.IOAPIC()
		io.CorruptRoute(hw.IRQBlock, hw.CorruptCPU)
		io.CorruptRoute(hw.IRQNIC, hw.CorruptDisable)
		r := Run(h, opts)
		vs := classes(r)[ClassIOAPIC]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("ioapic verdicts = %v", vs)
		}
		if io.RouteDamage() != 0 {
			t.Fatal("audit left redirection damage")
		}
		if h.Tel.Counters[telemetry.CtrIOAPICRepairs] == 0 {
			t.Fatal("repair counter did not advance")
		}
		// Idempotent: a re-audit finds nothing.
		if r2 := Run(h, opts); len(classes(r2)[ClassIOAPIC]) != 0 {
			t.Fatalf("re-audit found: %v", r2.Violations)
		}
	})
}

// TestIOAPICRepairIdenticalAcrossLanes: the walk repairs the same damage
// with the same findings at any lane and worker count, and the parallel
// execution (GOMAXPROCS 4) is bit-identical to its one-goroutine baseline
// (GOMAXPROCS 1) — the IO-APIC unit runs at the serial linkage level.
func TestIOAPICRepairIdenticalAcrossLanes(t *testing.T) {
	build := func(repairCPUs, procs int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		h, _ := newTarget(t)
		io := h.Machine.IOAPIC()
		io.CorruptRoute(hw.IRQBlock, hw.CorruptVector)
		r := Run(h, Options{RepairCPUs: repairCPUs, FrameScanCost: 700 * time.Microsecond})
		if io.RouteDamage() != 0 {
			t.Fatalf("cpus=%d procs=%d: damage left behind", repairCPUs, procs)
		}
		return r
	}
	ref := build(4, 1)
	if vs := classes(ref)[ClassIOAPIC]; len(vs) != 1 || vs[0] != Repaired {
		t.Fatalf("ioapic verdicts = %v, want one Repaired", vs)
	}
	for _, cpus := range []int{1, 2, 4, 8} {
		for i := 0; i < 3; i++ {
			got := build(cpus, 4)
			got.Timing = ref.Timing // timing varies with lane count by design
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("cpus=%d run %d diverged:\nwant %+v\ngot  %+v", cpus, i, ref, got)
			}
		}
	}
}
