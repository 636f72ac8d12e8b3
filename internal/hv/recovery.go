package hv

import (
	"fmt"

	"nilihype/internal/hypercall"
	"nilihype/internal/sched"
	"nilihype/internal/telemetry"
)

// This file is the state-inspection and state-repair surface the recovery
// engines (internal/core) drive. The hypervisor core provides mechanisms;
// the engines decide which to apply (that is exactly the enhancement
// ladder of Table I).

// Pause suspends guest activity and device interrupt delivery: VMs are
// paused during recovery (§V "VMs are suspended and interrupts are
// disabled during recovery").
func (h *Hypervisor) Pause() {
	h.paused = true
	h.Tel.Record(0, telemetry.EvPause, 0)
	if h.pauseHook != nil {
		h.pauseHook()
	}
}

// Paused reports whether the hypervisor is paused for recovery.
func (h *Hypervisor) Paused() bool { return h.paused }

// ResumeRunnable ends the pause: deferred guest work runs and pending
// interrupts are re-delivered.
func (h *Hypervisor) ResumeRunnable() {
	h.paused = false
	h.Tel.Record(0, telemetry.EvResume, 0)
	// Drain deferred work by popping from the front: if a deferred action
	// re-enters recovery (pauses the system again) or fails the
	// hypervisor, the remainder stays queued — a later recovery attempt's
	// resume picks it up instead of silently dropping it.
	for len(h.afterResume) > 0 {
		if h.failed || h.paused {
			return
		}
		fn := h.afterResume[0]
		h.afterResume[0] = nil
		h.afterResume = h.afterResume[1:]
		fn()
	}
	for _, cpu := range h.Machine.CPUs() {
		if h.failed || h.paused {
			return
		}
		if !cpu.IntrDisabled {
			cpu.DrainPending()
		}
	}
}

// WhenRunnable runs fn now, or defers it to the end of the pause.
func (h *Hypervisor) WhenRunnable(fn func()) {
	if !h.paused {
		fn()
		return
	}
	h.afterResume = append(h.afterResume, fn)
}

// PendingCall describes a hypercall that was in flight when its execution
// thread was discarded.
type PendingCall struct {
	CPU  int
	Call *hypercall.Call
	// Step is the program step at which execution stopped.
	Step int
	// Poisoned marks an abandonment inside an unmitigated window (§IV
	// residual): the undo log cannot be trusted for this call.
	Poisoned bool
	// CriticalWrites reports whether the partial execution performed
	// non-idempotent state updates (undo records exist if logging).
	CriticalWrites bool
}

// DiscardThread abandons cpu's execution thread: the hypervisor stack is
// reset, spin/wedge states clear, and the in-flight call (if any) becomes
// pending-retry state. Locks the thread held are NOT released — that is a
// separate mechanism. Returns the pending call, if any.
func (h *Hypervisor) DiscardThread(cpu int) *PendingCall {
	pc := h.percpu[cpu]
	h.recoveryEpoch++
	pc.WasBusyAtDiscard = pc.Busy()

	var pending *PendingCall
	if pc.Current != nil {
		poisoned := pc.abandonedUnmitigated
		if pc.CurrentStep < len(pc.CurrentProg) && pc.CurrentProg[pc.CurrentStep].Unmitigated {
			poisoned = true
		}
		pending = &PendingCall{
			CPU:            cpu,
			Call:           pc.Current,
			Step:           pc.CurrentStep,
			Poisoned:       poisoned,
			CriticalWrites: pc.Env.Undo.Len() > 0 || h.partialHadCriticalWrites(pc),
		}
	}
	// Reset the stack: program position and per-program bookkeeping go
	// away. The undo log survives (it is global state, not stack state).
	pc.Current = nil
	pc.CurrentProg = nil
	pc.CurrentStep = 0
	pc.InIRQProgram = false
	pc.IRQActivity = ""
	pc.PendingPanic = ""
	pc.Spinning = nil
	pc.Wedged = false
	pc.abandonedUnmitigated = false
	pc.Env.ResetProgramState()
	h.Machine.CPU(cpu).IntrDisabled = true // held until resume
	h.Tel.Counters[telemetry.CtrDiscards]++
	h.Tel.Record(cpu, telemetry.EvDiscard, uint64(cpu))
	return pending
}

// partialHadCriticalWrites detects non-idempotent partial effects when
// logging is off (no undo records to witness them): any completed step
// whose name marks a critical write counts.
func (h *Hypervisor) partialHadCriticalWrites(pc *PerCPU) bool {
	for i := 0; i < pc.CurrentStep && i < len(pc.CurrentProg); i++ {
		switch pc.CurrentProg[i].Name {
		case "inc_refcount", "dec_refcount", "clear_validated", "validate",
			"adjust_tot_pages", "write_entry", "clear_entry", "inc_mapcount",
			"dec_mapcount", "alloc_and_insert":
			return true
		}
	}
	return false
}

// DiscardAllThreads abandons every CPU's execution thread (the microreset
// core operation) and returns all pending calls in CPU order.
func (h *Hypervisor) DiscardAllThreads() []*PendingCall {
	var out []*PendingCall
	for cpu := range h.percpu {
		if p := h.DiscardThread(cpu); p != nil {
			out = append(out, p)
		}
	}
	h.applySchedFlux()
	return out
}

// SchedFluxProb is the probability that discarding all execution threads
// leaves the scheduling metadata mid-update (§V-A: "Hypervisor failure
// followed by recovery can easily leave this scheduling metadata in an
// inconsistent state").
//
// The event-atomic execution model hides concurrent activity on other
// CPUs: in the real system, at the instant of failure other CPUs are
// mid-way through runstate updates, wakeups and context switches whose
// partial effects the discard freezes in place. This calibrated draw
// restores that occupancy; the *consequences* (assertion panic vs. wrong
// register context restored vs. starved vCPU) and the *repair* remain
// fully mechanistic (sched.CheckConsistency / RepairFromPerCPU). The
// default is calibrated against the Table I ladder (51.8% → 82.2% for the
// scheduling-metadata rung); engines enable it explicitly.
var DefaultSchedFluxProb = 0.37

// SchedFluxProb, when positive, enables the discard-time metadata-flux
// draw. Zero (the default) disables it, keeping unit tests deterministic.
func (h *Hypervisor) SetSchedFluxProb(p float64) { h.schedFluxProb = p }

// applySchedFlux draws the discard-time scheduling-metadata damage.
func (h *Hypervisor) applySchedFlux() {
	if h.schedFluxProb <= 0 || h.RNG.Float64() >= h.schedFluxProb {
		return
	}
	// Pick a random vCPU that is currently on a CPU and freeze one of
	// its redundant copies mid-update.
	var candidates []int
	for cpu := range h.percpu {
		if h.Sched.Curr(cpu) != nil {
			candidates = append(candidates, cpu)
		}
	}
	if len(candidates) == 0 {
		return
	}
	cpu := candidates[h.RNG.IntN(len(candidates))]
	v := h.Sched.Curr(cpu)
	if h.RNG.IntN(2) == 0 {
		v.State = sched.Runnable // percpu.curr disagrees: assertion fodder
	} else {
		v.RunningOn = sched.NoCPU // wrong-context hazard
	}
}

// ClearIRQCountOn zeroes one CPU's local_irq_count — the "Clear IRQ
// count" enhancement (§V-A) applies it to every CPU, and multi-lane repair
// schedules each CPU's call as an independent unit. It writes only that
// CPU's private area, so concurrent calls for distinct CPUs are safe.
func (h *Hypervisor) ClearIRQCountOn(cpu int) {
	h.percpu[cpu].LocalIRQCount = 0
}

// SaveFSGS captures the guest FS/GS bases on every CPU at detection time
// (§IV "Save FS/GS"). Only microreboot actually clobbers them (the boot
// path reloads segment state); saving makes the post-reboot restore
// possible.
func (h *Hypervisor) SaveFSGS() {
	for _, pc := range h.percpu {
		pc.FSGSSaved = true
	}
}

// ApplyFSGSLoss invalidates the context of vCPUs whose FS/GS were
// clobbered. Every reboot applies it; CPUs whose FS/GS SaveFSGS captured
// keep their context.
func (h *Hypervisor) ApplyFSGSLoss() {
	for cpu, pc := range h.percpu {
		if pc.FSGSSaved || !pc.WasBusyAtDiscard {
			continue
		}
		if v := h.Sched.Curr(cpu); v != nil {
			v.ContextValid = false
			if d, err := h.Domains.ByID(v.Domain); err == nil {
				d.Fail("FS/GS lost across recovery")
			}
		}
	}
}

// RetryPendingCalls re-executes interrupted hypercalls (§III-B "for any
// partially executed hypercall, the VM state ... is set up so that the
// hypercall is retried"). For each call: if the undo log is trusted, roll
// it back first so non-idempotent partial effects are reversed; a poisoned
// call (unmitigated window) retries without rollback and generally trips
// the handler's consistency assertions — the §IV residual.
func (h *Hypervisor) RetryPendingCalls(pending []*PendingCall) {
	for _, p := range pending {
		pc := h.percpu[p.CPU]
		if p.Poisoned {
			pc.Env.Undo.Clear()
		} else {
			pc.Env.Undo.Rollback()
		}
		h.Stats.RetriedCalls++
		call := p.Call
		cpu := p.CPU
		h.Tel.Counters[telemetry.CtrRetries]++
		h.Tel.Record(cpu, telemetry.EvRetry, uint64(call.Op))
		h.WhenRunnable(func() { h.Dispatch(cpu, call) })
	}
}

// DropPendingCalls abandons interrupted hypercalls without retry (the
// configuration without the ReHype retry mechanisms): the issuing guests
// never see their requests complete and fail.
func (h *Hypervisor) DropPendingCalls(pending []*PendingCall) {
	for _, p := range pending {
		h.percpu[p.CPU].Env.Undo.Clear()
		h.Stats.DroppedCalls++
		h.Tel.Counters[telemetry.CtrDrops]++
		h.Tel.Record(p.CPU, telemetry.EvDrop, uint64(p.Call.Op))
		if d, err := h.Domains.ByID(p.Call.Dom); err == nil {
			d.Fail(fmt.Sprintf("hypercall %v lost (no retry)", p.Call.Op))
		}
	}
}

// EnforceIRQInvariant models the first post-resume assertion on each CPU:
// Xen's scheduler and softirq paths ASSERT(!in_irq()). A CPU with a stale
// nonzero local_irq_count panics immediately. Returns false on panic.
func (h *Hypervisor) EnforceIRQInvariant() bool {
	for cpu, pc := range h.percpu {
		if pc.LocalIRQCount != 0 {
			h.Panic(cpu, CauseAssertion, fmt.Sprintf("ASSERT !in_irq(): local_irq_count=%d on resume", pc.LocalIRQCount))
			return false
		}
	}
	return true
}

// EnforceSchedInvariants models the consequences of resuming with
// inconsistent scheduling metadata (§V-A): state-mismatch and
// queued-while-running trip scheduler assertions (hypervisor panic);
// wrong-CPU mismatches restore the wrong register context (most panic,
// some only kill the affected VM); starved vCPUs silently lose their VM.
// Returns false if the hypervisor panicked.
func (h *Hypervisor) EnforceSchedInvariants() bool {
	incs := h.Sched.CheckConsistency()
	for _, inc := range incs {
		switch inc.Kind {
		case sched.KindStateMismatch, sched.KindQueuedRunning:
			h.Panic(inc.CPU, CauseAssertion, "ASSERT scheduler: "+inc.Desc)
			return false
		case sched.KindWrongCPU:
			if h.RNG.Float64() < wrongCPUPanicProb {
				h.Panic(inc.CPU, CauseOther, "scheduler restored wrong context: "+inc.Desc)
				return false
			}
			if d, err := h.Domains.ByID(inc.VCPU.Domain); err == nil {
				d.Fail("wrong register context restored: " + inc.Desc)
			}
		case sched.KindStarved:
			if d, err := h.Domains.ByID(inc.VCPU.Domain); err == nil {
				d.Fail("vCPU starved: " + inc.Desc)
			}
		}
	}
	return true
}

// wrongCPUPanicProb is the fraction of wrong-context restores that crash
// the hypervisor outright (vs. only corrupting the affected VM).
const wrongCPUPanicProb = 0.6

// EnforceCrossCPUWaits models §III-C: any surviving cross-CPU wait leaves
// the requester spinning forever; the watchdog then detects a hang. Used
// by the single-thread-discard ablation.
func (h *Hypervisor) EnforceCrossCPUWaits() bool {
	if len(h.crossCPUWaits) == 0 {
		return true
	}
	w := h.crossCPUWaits[0]
	h.Panic(w.Requester, CauseHang, fmt.Sprintf("hang: cpu%d waiting forever for IPI response from cpu%d (%s)",
		w.Requester, w.Responder, w.Desc))
	return false
}

// ReenableCPUs re-enables interrupt delivery on every CPU. Interrupts the
// hardware held pending during recovery are delivered by the subsequent
// ResumeRunnable.
func (h *Hypervisor) ReenableCPUs() {
	for _, cpu := range h.Machine.CPUs() {
		cpu.IntrDisabled = false
		cpu.Halted = false
	}
}

// ReprogramAllAPICs re-arms every CPU's APIC one-shot from its software
// timer heap — the "Reprogram hardware timer" enhancement (§V-A).
func (h *Hypervisor) ReprogramAllAPICs() {
	for cpu := 0; cpu < h.Machine.NumCPUs(); cpu++ {
		h.Timers.ProgramAPIC(cpu)
	}
}

// RecoveryEpoch returns the number of thread-discard events so far.
func (h *Hypervisor) RecoveryEpoch() uint64 { return h.recoveryEpoch }
