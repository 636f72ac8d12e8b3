package hv

import (
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/locking"
	"nilihype/internal/xentime"
)

// PerCPU is the hypervisor's per-CPU private area — the analogue of Xen's
// per-CPU data, including the local_irq_count variable the "Clear IRQ
// count" enhancement exists for (§V-A).
type PerCPU struct {
	ID int

	// Env is this CPU's handler execution environment.
	Env *hypercall.Env

	percpuState

	// schedTick is this CPU's standing scheduler-tick timer (boot-time
	// wiring), whose expiry expands into preemption steps inside the
	// timer IRQ program.
	schedTick *xentime.Timer

	// irqFixedSteps caches the timer- and device-IRQ program steps whose
	// closures capture only per-CPU state. The handlers are rebuilt on
	// every interrupt; without the cache each rebuild re-allocates these
	// closures.
	irqFixedSteps irqFixedSteps

	// irqProg is the reusable step buffer the timer and device interrupt
	// handlers are built into on every interrupt (the hypercall analogue
	// is Env's program buffer). Safe to recycle because at most one
	// program is in flight per CPU — a busy or stuck CPU refuses further
	// interrupts — and an interrupted IRQ program is discarded by
	// recovery, never resumed.
	irqProg hypercall.Program

	// irqPkts is the RX batch the NIC handler in irqProg is delivering;
	// its post_nic_event steps index it through Step.Arg.
	irqPkts []hw.Packet
}

// percpuState is a CPU's hypervisor-private run state. The program
// fields are zero whenever the CPU is not Busy, which is the only time a
// snapshot is taken.
type percpuState struct {
	// LocalIRQCount is the interrupt nesting level. Incremented on every
	// interrupt/exception entry, decremented on exit. Because error
	// detection always happens in an exception or NMI context, the
	// detecting CPU's count is nonzero at recovery time; if recovery
	// does not clear it, post-recovery assertions (!in_irq()) fail.
	LocalIRQCount int

	// Current is the in-flight call, nil between requests. A call still
	// present at recovery time was interrupted and needs retry.
	Current *hypercall.Call
	// CurrentProg/CurrentStep locate execution within the program.
	CurrentProg hypercall.Program
	CurrentStep int

	// InIRQProgram marks execution inside an interrupt handler program
	// (as opposed to a hypercall); IRQActivity names it ("timer", ...).
	InIRQProgram bool
	IRQActivity  string

	// PendingPanic, when non-empty, fires a panic of PendingCause at the
	// next program step (injector-scheduled delayed detection).
	PendingPanic string
	PendingCause Cause

	// Wedged marks a CPU stuck making no progress (wild jump / infinite
	// loop after a fault). Interrupts are implicitly disabled.
	Wedged bool

	// Spinning, when non-nil, is the held lock this CPU is spinning on.
	// A spinning CPU has interrupts disabled (spin_lock_irqsave), so its
	// software timers stall and the watchdog eventually fires.
	Spinning *locking.Lock

	// FSGSSaved marks that the recovery path captured the guest FS/GS
	// base registers at detection time (§IV "Save FS/GS"). Without it,
	// a vCPU whose CPU was in hypervisor context loses those registers.
	FSGSSaved bool

	// WasBusyAtDiscard records whether the CPU was inside hypervisor
	// execution when its thread was discarded (recovery bookkeeping).
	WasBusyAtDiscard bool

	// abandonedUnmitigated records that the call abandoned on this CPU
	// was interrupted inside an unmitigated window (§IV residual): its
	// retry is poisoned — the undo log cannot be trusted.
	abandonedUnmitigated bool
}

// irqFixedSteps holds a CPU's cached fixed IRQ program steps (see the
// PerCPU field of the same name; built lazily by Hypervisor.irqFixed).
type irqFixedSteps struct {
	enterIRQ      hypercall.Step
	reprogramAPIC hypercall.Step
	exitIRQ       hypercall.Step
	lockRunq      hypercall.Step
	creditTick    hypercall.Step
	unlockRunq    hypercall.Step

	// Device-IRQ steps. The post steps are templates: buildDeviceIRQ
	// stamps Arg per completion or packet.
	devEnterIRQ  hypercall.Step
	postBlkEvent hypercall.Step
	postNICEvent hypercall.Step
	eoiBlock     hypercall.Step
	eoiNIC       hypercall.Step
}

// Busy reports whether the CPU is currently inside hypervisor execution.
func (pc *PerCPU) Busy() bool { return pc.Current != nil || pc.InIRQProgram }

// Stuck reports whether the CPU is making no progress (wedged or spinning).
func (pc *PerCPU) Stuck() bool { return pc.Wedged || pc.Spinning != nil }
