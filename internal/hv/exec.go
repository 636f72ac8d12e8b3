package hv

import (
	"errors"
	"fmt"

	"nilihype/internal/dom"
	"nilihype/internal/hypercall"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/telemetry"
)

// InjectionPoint describes where in hypervisor execution a fault landed.
// It is handed to the armed InjectFunc, which decides the fault's effect.
type InjectionPoint struct {
	CPU       int
	Activity  string // "hypercall:mmu_update", "irq:timer", ...
	Call      *hypercall.Call
	StepName  string
	StepIndex int
	InIRQ     bool
	// Unmitigated marks a §IV residual window at the injection point.
	Unmitigated bool
	HeldLocks   []*locking.Lock
}

// InjectAction is the immediate architectural effect of an injected fault.
type InjectAction int

// Injection actions.
const (
	// ActionContinue resumes execution: the fault was masked or only
	// corrupted state silently (the injector mutates state itself).
	ActionContinue InjectAction = iota + 1
	// ActionPanic raises an immediate fatal exception at the injection
	// point (detection fires now; the in-flight program is abandoned).
	ActionPanic
	// ActionWedge leaves the CPU executing garbage: no progress, IRQs
	// effectively off, until the watchdog detects the hang.
	ActionWedge
)

// Cause names why the hypervisor, or a recovery attempt, failed. The
// failing site passes it with its report text, so reports read the cause
// rather than parse the text.
type Cause uint8

// Failure causes. The zero value, CauseNone, means nothing failed.
// CauseOther stays last: the campaign's failure tables have a row for
// every cause up to it.
const (
	CauseNone              Cause = iota
	CausePathCorrupted           // the recovery routine could not be invoked
	CausePrivVMLost              // Dom0 stopped serving management calls or could not restart
	CauseReusedHeapObject        // a corrupted live heap object, which every mechanism reuses
	CauseRebuiltStateReuse       // static scratch, heap free list or domain list: a reboot rebuilds them
	CausePFDescriptorHang        // the mm path hung on inconsistent page frame descriptors
	CauseDeviceRoute             // IO-APIC routes diverged or a pending route was lost
	CauseAssertion               // a hypervisor assertion tripped
	CauseHang                    // a CPU stopped making progress
	CauseOther                   // a fatal exception no other cause names
)

// stepCause names the cause of a failed program step: a walk into a
// corrupted domain list or heap free list is rebuilt-state reuse, and any
// other step error is a tripped assertion.
func stepCause(err error) Cause {
	if errors.Is(err, dom.ErrListCorrupted) || errors.Is(err, mm.ErrFreeListCorrupted) {
		return CauseRebuiltStateReuse
	}
	return CauseAssertion
}

// InjectFunc decides a fault's effect at an injection point.
type InjectFunc func(pt InjectionPoint) (InjectAction, string)

// ArmInjection arms the instruction-count trigger: after budget further
// hypervisor instructions (across all CPUs — the injector targets the
// hypervisor, not a CPU), fn is invoked at the step where the budget ran
// out. This is Gigan's second-level trigger (§VI-C).
func (h *Hypervisor) ArmInjection(budget int64, fn InjectFunc) {
	h.injectArmed = true
	h.injectBudget = budget
	h.injectFn = fn
}

// RetrySetupCycles is the per-hypercall bookkeeping cost of the retry
// machinery (recording the request so it can be retried after recovery).
const RetrySetupCycles = 12

// Dispatch runs a hypercall (or forwarded syscall) on cpu. Execution is
// synchronous within the current clock event unless a fault injection, a
// panic, or a spin interrupts it. While the hypervisor is paused for
// recovery, dispatches are deferred to resume.
//
// Dispatch reports whether it took the call. It refuses (returns false)
// only when the hypervisor has failed or the CPU is stuck (wedged or
// spinning): those paths never reference the call, so the caller owns the
// record again. An accepted call may be retained — deferred past a pause,
// or left in flight for recovery to retry — until it is marked Done.
func (h *Hypervisor) Dispatch(cpu int, call *hypercall.Call) bool {
	if h.failed {
		return false
	}
	if h.paused {
		h.afterResume = append(h.afterResume, func() { h.Dispatch(cpu, call) })
		return true
	}
	pc := h.percpu[cpu]
	if pc.Stuck() {
		return false // the CPU is gone; the guest makes no progress
	}
	if pc.Busy() {
		// Cannot happen in the event-atomic model; guard for misuse.
		h.Panic(cpu, CauseOther, fmt.Sprintf("re-entrant dispatch of %v", call))
		return true
	}
	call.Seq = h.callSeq
	call.Done = false
	h.callSeq++
	h.Stats.Hypercalls++
	h.Tel.Counters[telemetry.CtrDispatches]++
	h.Tel.Counters[telemetry.CtrOp(int(call.Op))]++
	h.Tel.Record(cpu, telemetry.EvDispatch, uint64(call.Op))

	pc.Env.Call = call
	pc.Env.ResetProgramState()
	prog, err := hypercall.Build(pc.Env, call)
	if err != nil {
		h.Panic(cpu, stepCause(err), err.Error())
		return true
	}
	h.Tel.Hists[telemetry.HistProgramSteps].Observe(uint64(len(prog)))
	if pc.Env.RecoveryPrep {
		h.Machine.CPU(cpu).ChargeHypervisor(RetrySetupCycles, RetrySetupCycles)
	}
	pc.Current = call
	pc.CurrentProg = prog
	pc.CurrentStep = 0
	pc.abandonedUnmitigated = false
	h.runProgram(cpu)
	return true
}

// runProgram executes the in-flight program on cpu from its current step.
// pc.CurrentProg is re-read every step: recovery inside a step resets it.
func (h *Hypervisor) runProgram(cpu int) {
	pc := h.percpu[cpu]
	c := h.Machine.CPU(cpu)
	for pc.CurrentStep < len(pc.CurrentProg) {
		step := &pc.CurrentProg[pc.CurrentStep]

		if pc.PendingPanic != "" {
			reason := pc.PendingPanic
			pc.PendingPanic = ""
			h.abandonAt(pc, step.Unmitigated)
			h.Panic(cpu, pc.PendingCause, reason)
			return
		}

		if h.injectArmed {
			if h.injectBudget < int64(step.Instrs) {
				h.injectArmed = false
				h.Stats.InjectionFired = true
				action, reason := h.injectFn(h.injectionPoint(pc, step))
				h.Tel.Counters[telemetry.CtrInjections]++
				h.Tel.Record(cpu, telemetry.EvInject, h.Tel.Intern(reason))
				switch action {
				case ActionPanic:
					h.abandonAt(pc, step.Unmitigated)
					h.Panic(cpu, CauseOther, reason)
					return
				case ActionWedge:
					h.abandonAt(pc, step.Unmitigated)
					h.wedge(cpu)
					return
				}
				// ActionContinue: fall through and execute the step.
			} else {
				h.injectBudget -= int64(step.Instrs)
			}
		}

		c.ChargeHypervisor(step.Instrs, step.Instrs)
		err := step.Do(pc.Env, step)
		if extra := pc.Env.ExtraCycles; extra > 0 {
			c.ChargeHypervisor(extra, 0)
			pc.Env.ExtraCycles = 0
		}
		if err != nil {
			var spin *hypercall.SpinError
			if errors.As(err, &spin) {
				h.spin(cpu, spin.Lock)
				return
			}
			h.abandonAt(pc, step.Unmitigated)
			h.Panic(cpu, stepCause(err), err.Error())
			return
		}
		pc.CurrentStep++
	}
	if pc.InIRQProgram {
		h.completeIRQ(cpu)
		return
	}
	h.completeCall(cpu)
}

// completeIRQ finishes an interrupt handler program cleanly.
func (h *Hypervisor) completeIRQ(cpu int) {
	pc := h.percpu[cpu]
	pc.Env.ResetProgramState()
	pc.InIRQProgram = false
	pc.IRQActivity = ""
	pc.CurrentProg = nil
	pc.CurrentStep = 0
	h.drainCPU(cpu)
}

// drainCPU re-delivers interrupts that arrived while the CPU was inside a
// handler (the hardware holds them until iret).
func (h *Hypervisor) drainCPU(cpu int) {
	if h.failed || h.paused {
		return
	}
	c := h.Machine.CPU(cpu)
	if c.IntrDisabled || h.percpu[cpu].Stuck() {
		return
	}
	c.DrainPending()
}

// injectionPoint snapshots the current execution context for the injector.
func (h *Hypervisor) injectionPoint(pc *PerCPU, step *hypercall.Step) InjectionPoint {
	activity := "irq"
	if pc.Current != nil {
		activity = "hypercall:" + pc.Current.Op.String()
	} else if pc.IRQActivity != "" {
		activity = "irq:" + pc.IRQActivity
	}
	return InjectionPoint{
		CPU:         pc.ID,
		Activity:    activity,
		Call:        pc.Current,
		StepName:    step.Name,
		StepIndex:   pc.CurrentStep,
		InIRQ:       pc.LocalIRQCount > 0 || pc.InIRQProgram,
		Unmitigated: step.Unmitigated,
		HeldLocks:   pc.Env.HeldLocks(),
	}
}

// abandonAt records that the in-flight program stops at the current step.
func (h *Hypervisor) abandonAt(pc *PerCPU, unmitigated bool) {
	if pc.Current != nil && unmitigated {
		pc.abandonedUnmitigated = true
	}
}

// completeCall finishes the in-flight hypercall cleanly.
func (h *Hypervisor) completeCall(cpu int) {
	pc := h.percpu[cpu]
	call := pc.Current
	pc.Env.Undo.Clear()
	pc.Env.ResetProgramState()
	pc.Current = nil
	pc.CurrentProg = nil
	pc.CurrentStep = 0
	h.clearCrossWaitsRequestedBy(cpu)
	if call != nil {
		call.Done = true
		h.Tel.Counters[telemetry.CtrCompletions]++
		if call.Dom == dom.PrivVMID {
			// Management-call liveness signal: the detect package's
			// management-call watchdog reads this counter from the NMI path.
			h.Tel.Counters[telemetry.CtrMgmtCompletions]++
		}
		h.Tel.Record(cpu, telemetry.EvComplete, uint64(call.Op))
	}
	h.drainCPU(cpu)
}

// spin wedges cpu spinning on a held lock. Spinlocks are taken with
// interrupts disabled (spin_lock_irqsave), so the CPU's software timers
// stall; only the perf-counter NMI still fires, which is how the watchdog
// detects the hang.
func (h *Hypervisor) spin(cpu int, l *locking.Lock) {
	pc := h.percpu[cpu]
	pc.Spinning = l
	h.Machine.CPU(cpu).IntrDisabled = true
	h.Stats.Spins++
	h.Tel.Counters[telemetry.CtrSpins]++
	h.Tel.Record(cpu, telemetry.EvSpin, h.Tel.Intern(l.Name()))
}

// wedge marks cpu as executing garbage (wild jump): no progress, no
// interrupt handling, until the watchdog notices.
func (h *Hypervisor) wedge(cpu int) {
	pc := h.percpu[cpu]
	pc.Wedged = true
	h.Machine.CPU(cpu).IntrDisabled = true
	h.Tel.Counters[telemetry.CtrWedges]++
	h.Tel.Record(cpu, telemetry.EvWedge, 0)
}

// Panic models a hypervisor panic: a fatal exception or failed assertion.
// Exception entry raises the interrupt nesting level — which is why the
// detecting CPU always has a nonzero local_irq_count at recovery time
// (the mechanistic root of the "Clear IRQ count" enhancement, §V-A).
func (h *Hypervisor) Panic(cpu int, cause Cause, reason string) {
	if h.failed {
		return
	}
	h.Stats.Panics++
	h.percpu[cpu].LocalIRQCount++
	h.Tel.Counters[telemetry.CtrPanics]++
	h.Tel.Record(cpu, telemetry.EvPanic, h.Tel.Intern(reason))
	h.Cons.Write(fmt.Sprintf("(XEN) cpu%d panic: %s", cpu, reason))
	if h.panicHook != nil {
		h.panicHook(cpu, cause, reason)
		return
	}
	h.MarkFailed(cause, "panic: "+reason)
}

// PanicAtNextStep arranges for a panic to fire when cpu next executes a
// program step — used by the injector to model detections that land inside
// subsequent hypervisor activity (error propagation with latency).
func (h *Hypervisor) PanicAtNextStep(cpu int, cause Cause, reason string) {
	h.percpu[cpu].PendingCause, h.percpu[cpu].PendingPanic = cause, reason
}

// --- cross-CPU synchronous operations --------------------------------------

// AddCrossCPUWait records an in-flight synchronous cross-CPU operation
// (e.g. a remote TLB-flush IPI the requester is spinning on).
func (h *Hypervisor) AddCrossCPUWait(w CrossCPUWait) {
	h.crossCPUWaits = append(h.crossCPUWaits, w)
}

// ClearCrossCPUWaits drops all waits (all requester threads discarded).
func (h *Hypervisor) ClearCrossCPUWaits() { h.crossCPUWaits = nil }

// clearCrossWaitsRequestedBy drops waits whose requester completed.
func (h *Hypervisor) clearCrossWaitsRequestedBy(cpu int) {
	var keep []CrossCPUWait
	for _, w := range h.crossCPUWaits {
		if w.Requester != cpu {
			keep = append(keep, w)
		}
	}
	h.crossCPUWaits = keep
}
