package campaign

import (
	"fmt"

	"nilihype/internal/hv"
)

// Run executes one fault-injection run on a freshly booted system. It is
// the cold-boot reference: the campaign executor instead builds one image
// per configuration shape and forks every run from its snapshot, which
// must be bit-identical to this (the snapshot-equivalence suite).
func Run(rc RunConfig) Result {
	rc = rc.withDefaults()
	img, err := buildImage(rc)
	if err != nil {
		return Result{Seed: rc.Seed, NewVMOK: true, FailReason: err.Error(), FaultClass: rc.FaultClass()}
	}
	return img.run(rc)
}

// auditInvariants checks the quiescent-system invariants every successful
// recovery must restore: no held locks, zero interrupt nesting, no stuck
// CPU, consistent scheduler metadata and page-frame descriptors, and live
// recurring timers.
func auditInvariants(h *hv.Hypervisor) []string {
	var out []string
	if held := h.Locks.HeldLocks(); len(held) != 0 {
		names := make([]string, 0, len(held))
		for _, l := range held {
			names = append(names, l.Name())
		}
		out = append(out, fmt.Sprintf("locks still held: %v", names))
	}
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if n := h.PerCPU(cpu).LocalIRQCount; n != 0 {
			out = append(out, fmt.Sprintf("cpu%d local_irq_count=%d", cpu, n))
		}
		if h.PerCPU(cpu).Stuck() {
			out = append(out, fmt.Sprintf("cpu%d stuck", cpu))
		}
	}
	if incs := h.Sched.CheckConsistency(); len(incs) != 0 {
		out = append(out, fmt.Sprintf("%d scheduler inconsistencies (first: %s)", len(incs), incs[0].Desc))
	}
	if bad := h.Frames.InconsistentFrames(); len(bad) != 0 {
		out = append(out, fmt.Sprintf("%d inconsistent page frame descriptors", len(bad)))
	}
	if inact := h.Timers.InactiveRecurring(); len(inact) != 0 {
		out = append(out, fmt.Sprintf("%d recurring timers inactive", len(inact)))
	}
	return out
}
