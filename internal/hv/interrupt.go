package hv

import (
	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/sched"
	"nilihype/internal/telemetry"
)

// DeliverInterrupt implements hw.InterruptSink. NMIs are always taken
// (that is how hangs with interrupts disabled get detected); everything
// else is refused — and therefore held pending by the hardware — while the
// CPU has interrupts disabled, the hypervisor is paused for recovery, or
// the hypervisor has failed.
func (h *Hypervisor) DeliverInterrupt(cpu int, vec hw.Vector) bool {
	if vec == hw.VecNMI {
		h.handleNMI(cpu)
		return true
	}
	if h.failed || h.paused {
		return false
	}
	pc := h.percpu[cpu]
	if h.Machine.CPU(cpu).IntrDisabled || pc.Stuck() {
		return false
	}
	if pc.Busy() {
		// Event-atomicity means a CPU is never observed mid-program at
		// interrupt time; keep the interrupt pending if it happens.
		return false
	}
	h.Machine.CPU(cpu).Halted = false
	h.Stats.Interrupts++
	switch vec {
	case hw.VecTimer:
		h.Stats.TimerIRQs++
		h.Tel.Counters[telemetry.CtrTimerIRQs]++
		h.startIRQProgram(cpu, irqTimer, h.buildTimerIRQ(cpu))
	case hw.VecBlock:
		h.Stats.DeviceIRQs++
		h.Tel.Counters[telemetry.CtrDeviceIRQs]++
		h.startIRQProgram(cpu, irqBlock, h.buildDeviceIRQ(cpu, hw.IRQBlock))
	case hw.VecNIC:
		h.Stats.DeviceIRQs++
		h.Tel.Counters[telemetry.CtrDeviceIRQs]++
		h.startIRQProgram(cpu, irqNIC, h.buildDeviceIRQ(cpu, hw.IRQNIC))
	case hw.VecIPI:
		h.startIRQProgram(cpu, irqIPI, h.buildIPIProgram(cpu))
	default:
		return false
	}
	return true
}

// handleNMI runs the performance-counter NMI path: entry raises the IRQ
// nesting level, the watchdog hook runs, and — unless recovery was
// triggered inside the hook and discarded this context — the level drops
// again on exit.
func (h *Hypervisor) handleNMI(cpu int) {
	if h.failed {
		return
	}
	pc := h.percpu[cpu]
	pc.LocalIRQCount++
	h.Tel.Counters[telemetry.CtrNMIs]++
	h.Machine.CPU(cpu).ChargeHypervisor(nmiHandlerInstrs, nmiHandlerInstrs)
	epoch := h.recoveryEpoch
	if h.nmiHook != nil {
		h.nmiHook(cpu)
	}
	if h.recoveryEpoch == epoch && !h.failed {
		pc.LocalIRQCount--
	}
}

const nmiHandlerInstrs = 120

// irqKind indexes the interrupt handler programs. A kind's name is both
// PerCPU.IRQActivity and the EvIRQEnter flight event's interned argument.
type irqKind int

const (
	irqTimer irqKind = iota
	irqBlock
	irqNIC
	irqIPI
	numIRQKinds
)

var irqKindNames = [numIRQKinds]string{"timer", "block", "nic", "ipi"}

// irqActivityID returns the telemetry string id of k's name. Interning is
// a string-map lookup and this runs on every interrupt, so the id is kept
// and only checked against the table: a telemetry restore truncates the
// strings interned since its snapshot, and the next run must then intern
// the name again, in its own first-use order.
func (h *Hypervisor) irqActivityID(k irqKind) uint64 {
	name := irqKindNames[k]
	if id := h.irqActivityIDs[k]; id != 0 && h.Tel.Str(id) == name {
		return id
	}
	id := h.Tel.Intern(name)
	h.irqActivityIDs[k] = id
	return id
}

// startIRQProgram begins executing an interrupt handler program on cpu.
func (h *Hypervisor) startIRQProgram(cpu int, kind irqKind, prog hypercall.Program) {
	pc := h.percpu[cpu]
	pc.Env.Call = nil
	pc.Env.ResetProgramState()
	pc.InIRQProgram = true
	pc.IRQActivity = irqKindNames[kind]
	h.Tel.Record(cpu, telemetry.EvIRQEnter, h.irqActivityID(kind))
	pc.CurrentProg = prog
	pc.CurrentStep = 0
	h.runProgram(cpu)
}

// Timer-IRQ step bodies. These are package-level functions, not closures:
// the handler is rebuilt on every tick, and per-build closures were the
// campaign's single largest allocation source. Per-invocation state rides
// on the step itself (Step.T carries the due timer) or in the per-CPU Env
// (the pending context switch). The clock does not advance inside a
// handler program (event-atomic execution), so e.Now() in the rearm step
// equals the time the handler was built at — the same value the old
// closures captured.

func doIRQNop(*hypercall.Env, *hypercall.Step) error { return nil }

func doIRQRunTimer(_ *hypercall.Env, st *hypercall.Step) error {
	if st.T.Fn != nil {
		st.T.Fn()
	}
	return nil
}

func doIRQRearmTimer(e *hypercall.Env, st *hypercall.Step) error {
	e.Timers.FinishTimer(st.T, e.Now())
	return nil
}

func doSoftirqPickNext(e *hypercall.Env, _ *hypercall.Step) error {
	e.SetSwitchOp(e.Sched.BeginSwitch(e.CPU))
	return nil
}

func doSoftirqDequeueNext(e *hypercall.Env, _ *hypercall.Step) error {
	if op := e.SwitchOp(); op != nil {
		op.StepDequeueNext()
	}
	return nil
}

func doSoftirqRequeuePrev(e *hypercall.Env, _ *hypercall.Step) error {
	if op := e.SwitchOp(); op != nil {
		op.StepRequeuePrev()
	}
	return nil
}

func doSoftirqSetCurr(e *hypercall.Env, _ *hypercall.Step) error {
	if op := e.SwitchOp(); op != nil {
		op.StepSetCurr()
	}
	return nil
}

func doSoftirqSetVCPU(e *hypercall.Env, _ *hypercall.Step) error {
	if op := e.SwitchOp(); op != nil {
		op.StepSetVCPU()
	}
	return nil
}

func doSoftirqContextSwitch(e *hypercall.Env, _ *hypercall.Step) error {
	if op := e.SwitchOp(); op != nil && e.SwitchContext != nil {
		e.SwitchContext(e.CPU, op.Prev(), op.Next())
	}
	return nil
}

// Fixed timer-IRQ steps that carry no state at all.
var (
	// Walking the software timer heap and reading the hardware clock
	// dominate the handler body; the APIC stays unarmed throughout (the
	// §V-A window).
	stepScanTimerHeap = hypercall.Step{Name: "scan_timer_heap", Instrs: 1500, Do: doIRQNop}
	stepAckLAPIC      = hypercall.Step{Name: "ack_lapic", Instrs: 260, Do: doIRQNop}
	// RCU, time calibration, accounting audits: substantial hypervisor
	// work that holds no locks and leaves no partial state — faults
	// landing here are the recoverable-with-few-enhancements cases of the
	// Table I ladder.
	stepSoftirqTimerAccounting = hypercall.Step{Name: "softirq_timer_accounting", Instrs: 1850, Do: doIRQNop}
	stepSoftirqRCU             = hypercall.Step{Name: "softirq_rcu", Instrs: 1850, Do: doIRQNop}
	stepSoftirqTimeCalibration = hypercall.Step{Name: "softirq_time_calibration", Instrs: 1750, Do: doIRQNop}

	stepPickNext      = hypercall.Step{Name: "pick_next", Instrs: 90, Do: doSoftirqPickNext}
	stepDequeueNext   = hypercall.Step{Name: "dequeue_next", Instrs: 50, Do: doSoftirqDequeueNext}
	stepRequeuePrev   = hypercall.Step{Name: "requeue_prev", Instrs: 50, Do: doSoftirqRequeuePrev}
	stepSetCurr       = hypercall.Step{Name: "set_curr", Instrs: 40, Do: doSoftirqSetCurr}
	stepSetVCPUState  = hypercall.Step{Name: "set_vcpu_state", Instrs: 70, Do: doSoftirqSetVCPU}
	stepContextSwitch = hypercall.Step{Name: "context_switch", Instrs: 90, Do: doSoftirqContextSwitch}
)

// buildTimerIRQ constructs the timer interrupt handler for cpu, following
// Xen's structure: the interrupt handler itself pops due software timers,
// re-arms the recurring ones, and reprograms the APIC one-shot; the bulk
// of the follow-on work (the credit scheduler, RCU and time-calibration
// housekeeping) runs afterwards in softirq context. The window between
// entry and the reprogram step is the §V-A "Reprogram hardware timer"
// hazard; the windows between a timer's run and re-arm steps are the
// "Reactivate recurring timer events" hazard.
//
// The program is stamped into the CPU's reusable step buffer (see
// PerCPU.irqProg for why that is safe).
func (h *Hypervisor) buildTimerIRQ(cpu int) hypercall.Program {
	pc := h.percpu[cpu]
	fx := h.irqFixed(cpu)
	due := h.Timers.PopDue(cpu, h.Clock.Now())
	prog := append(pc.irqProg[:0], fx.enterIRQ, stepScanTimerHeap)
	runSched := false
	for _, t := range due {
		if t == pc.schedTick {
			runSched = true
			prog = append(prog, hypercall.Step{Name: t.RearmLabel(), Instrs: 30, T: t, Do: doIRQRearmTimer})
			continue
		}
		prog = append(prog,
			hypercall.Step{Name: t.RunLabel(), Instrs: 30, T: t, Do: doIRQRunTimer},
			hypercall.Step{Name: t.RearmLabel(), Instrs: 18, T: t, Do: doIRQRearmTimer},
		)
	}
	prog = append(prog, stepAckLAPIC, fx.reprogramAPIC)
	// Softirq context: the APIC is re-armed from here on.
	if runSched {
		prog = h.appendSchedSoftirq(cpu, prog)
	}
	prog = append(prog,
		stepSoftirqTimerAccounting,
		stepSoftirqRCU,
		stepSoftirqTimeCalibration,
		fx.exitIRQ,
	)
	pc.irqProg = prog
	return prog
}

// irqFixed returns cpu's cached fixed IRQ steps, building their closures
// on first use. Only steps whose behavior depends on nothing but the CPU
// identity live here; see the PerCPU field comment.
func (h *Hypervisor) irqFixed(cpu int) *irqFixedSteps {
	pc := h.percpu[cpu]
	fx := &pc.irqFixedSteps
	if fx.enterIRQ.Do == nil {
		fx.enterIRQ = hypercall.Step{Name: "enter_irq", Instrs: 100, Do: func(*hypercall.Env, *hypercall.Step) error {
			pc.LocalIRQCount++
			return nil
		}}
		fx.reprogramAPIC = hypercall.Step{Name: "reprogram_apic", Instrs: 160, Do: func(*hypercall.Env, *hypercall.Step) error {
			h.Timers.ProgramAPIC(cpu)
			return nil
		}}
		fx.exitIRQ = hypercall.Step{Name: "exit_irq", Instrs: 30, Do: func(*hypercall.Env, *hypercall.Step) error {
			pc.LocalIRQCount--
			return nil
		}}
		fx.lockRunq = hypercall.Step{Name: "lock_runq", Instrs: 30, Do: func(*hypercall.Env, *hypercall.Step) error {
			return pc.Env.Acquire(h.Sched.RunqueueLock(cpu))
		}}
		fx.creditTick = hypercall.Step{Name: "credit_tick", Instrs: 40, Do: func(*hypercall.Env, *hypercall.Step) error {
			if v := h.Sched.Curr(cpu); v != nil {
				v.Credit -= 10
			}
			return nil
		}}
		fx.unlockRunq = hypercall.Step{Name: "unlock_runq", Instrs: 30, Do: func(*hypercall.Env, *hypercall.Step) error {
			pc.Env.Release(h.Sched.RunqueueLock(cpu))
			return nil
		}}
		fx.devEnterIRQ = hypercall.Step{Name: "enter_irq", Instrs: 40, Do: fx.enterIRQ.Do}
		fx.postBlkEvent = hypercall.Step{Name: "post_blk_event", Instrs: 60, Do: func(_ *hypercall.Env, st *hypercall.Step) error {
			d, err := h.Domains.ByID(st.Arg)
			if err != nil {
				return err
			}
			return h.RaiseVIRQ(d, evtchn.VIRQBlock)
		}}
		fx.postNICEvent = hypercall.Step{Name: "post_nic_event", Instrs: 60, Do: func(_ *hypercall.Env, st *hypercall.Step) error {
			if h.nicRxHook != nil {
				h.nicRxHook(pc.irqPkts[st.Arg])
			}
			return nil
		}}
		fx.eoiBlock = h.eoiStep(hw.IRQBlock)
		fx.eoiNIC = h.eoiStep(hw.IRQNIC)
	}
	return fx
}

// eoiStep builds the device handler's IO-APIC acknowledge step for line.
func (h *Hypervisor) eoiStep(line hw.IRQLine) hypercall.Step {
	return hypercall.Step{Name: "eoi", Instrs: 30, Do: func(*hypercall.Env, *hypercall.Step) error {
		h.Machine.IOAPIC().EOI(line)
		return nil
	}}
}

// appendSchedSoftirq appends the scheduler softirq to a timer-IRQ program:
// credit accounting and, when another vCPU is waiting, a context switch
// decomposed into the metadata steps of §V-A. The runqueue lock is held
// throughout. The switch steps share the in-flight SwitchOp through the
// CPU's Env scratch (pick_next assigns it), mirroring the hypercall
// sched_op program.
func (h *Hypervisor) appendSchedSoftirq(cpu int, prog hypercall.Program) hypercall.Program {
	fx := h.irqFixed(cpu)
	prog = append(prog, fx.lockRunq, fx.creditTick)
	if h.Sched.RunqueueLen(cpu) > 0 {
		prog = append(prog,
			stepPickNext,
			stepDequeueNext,
			stepRequeuePrev,
			stepSetCurr,
			stepSetVCPUState,
			stepContextSwitch,
		)
	}
	return append(prog, fx.unlockRunq)
}

// switchRegisterContext saves the outgoing vCPU's architectural registers
// from the physical CPU and loads the incoming vCPU's saved context. When
// scheduling metadata is inconsistent, this is the step that literally
// "restore[s] the register context of one vCPU when another is scheduled"
// (§V-A).
func (h *Hypervisor) switchRegisterContext(cpu int, prev, next *sched.VCPU) {
	c := h.Machine.CPU(cpu)
	if prev != nil {
		prev.Context = c.Regs
	}
	if next != nil {
		c.Regs = next.Context
	}
}

// buildDeviceIRQ constructs the device interrupt handler: read the device,
// post event channels to the owning domains, and acknowledge the IO-APIC.
// A fault between reading and the EOI leaves the line in service — the
// reason recovery must acknowledge all pending and in-service interrupts
// (§III-B).
//
// Like buildTimerIRQ it allocates nothing: the program is stamped into the
// CPU's reusable step buffer from cached steps, and each completion or
// packet rides on its step as data (Step.Arg).
func (h *Hypervisor) buildDeviceIRQ(cpu int, line hw.IRQLine) hypercall.Program {
	pc := h.percpu[cpu]
	fx := h.irqFixed(cpu)
	prog := append(pc.irqProg[:0], fx.devEnterIRQ)
	switch line {
	case hw.IRQBlock:
		for _, c := range h.Machine.Block().DrainCompletions() {
			st := fx.postBlkEvent
			st.Arg = c.Req.Owner
			prog = append(prog, st)
		}
		prog = append(prog, fx.eoiBlock)
	case hw.IRQNIC:
		pc.irqPkts = h.Machine.NIC().DrainRx()
		for i := range pc.irqPkts {
			st := fx.postNICEvent
			st.Arg = i
			prog = append(prog, st)
		}
		prog = append(prog, fx.eoiNIC)
	}
	prog = append(prog, fx.exitIRQ)
	pc.irqProg = prog
	return prog
}

// buildIPIProgram acknowledges an inter-processor interrupt.
func (h *Hypervisor) buildIPIProgram(cpu int) hypercall.Program {
	pc := h.percpu[cpu]
	return hypercall.Program{
		{Name: "enter_irq", Instrs: 40, Do: func(*hypercall.Env, *hypercall.Step) error {
			pc.LocalIRQCount++
			return nil
		}},
		{Name: "ack_ipi", Instrs: 50, Do: func(*hypercall.Env, *hypercall.Step) error { return nil }},
		{Name: "exit_irq", Instrs: 30, Do: func(*hypercall.Env, *hypercall.Step) error {
			pc.LocalIRQCount--
			return nil
		}},
	}
}

// RaiseVIRQ posts a virtual-IRQ event to the domain's bound port, wakes
// its upcall vCPU, and informs the guest layer.
func (h *Hypervisor) RaiseVIRQ(d *dom.Domain, virq int) error {
	port, err := h.Broker.RaiseVIRQ(d.ID, virq)
	if err != nil {
		return err
	}
	h.NotifyEvent(d.ID, port)
	return nil
}

// NotifyEvent wakes the target domain's upcall vCPU and informs the guest
// layer that port went pending on domID.
func (h *Hypervisor) NotifyEvent(domID, port int) {
	if d, err := h.Domains.ByID(domID); err == nil {
		if v := d.UpcallVCPU(); v != nil {
			h.WakeVCPU(v)
		}
	}
	if h.eventHook != nil {
		h.eventHook(domID, port)
	}
}

// SetEventHook installs the guest-layer event notification callback.
func (h *Hypervisor) SetEventHook(fn func(domID, port int)) { h.eventHook = fn }

// SetNICRxHook installs the guest-layer packet receive callback.
func (h *Hypervisor) SetNICRxHook(fn func(hw.Packet)) { h.nicRxHook = fn }
