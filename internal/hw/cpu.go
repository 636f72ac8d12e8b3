package hw

import (
	"fmt"
	"time"

	"nilihype/internal/simclock"
)

// Reg identifies a CPU register in the simulated x86-64 register file.
// The fault injector flips bits in these (paper §VI-C: "16 general-purpose
// registers, the stack pointer, the flag register, and the program
// counter").
type Reg int

// Register file layout. RAX..R16 are the 16 general-purpose registers;
// RSP, RFLAGS and RIP complete the injector's 19 targets (paper §VI-C).
// FSBase/GSBase are not injection targets but matter for the "Save FS/GS"
// enhancement (§IV): Xen on x86-64 does not save them on hypervisor entry,
// so recovery loses them unless they are saved at detection time.
const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16 // 16th GPR slot
	RSP // stack pointer
	RFLAGS
	RIP // program counter
	FSBase
	GSBase
)

// Register-file sizing derived from the layout above.
const (
	// NumInjectableRegs is the number of registers the fault injector
	// may target: 16 GPRs + RSP + RFLAGS + RIP.
	NumInjectableRegs = int(RIP) + 1
	// NumRegs is the full register-file size including FS/GS bases.
	NumRegs = int(GSBase) + 1
)

// String returns the conventional register name.
func (r Reg) String() string {
	names := [...]string{
		"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp",
		"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "r16",
		"rsp", "rflags", "rip", "fsbase", "gsbase",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("reg(%d)", int(r))
}

// CycleCounters accumulates simulated unhalted cycles. The
// hypervisor-processing-overhead experiment (Figure 3) is computed from
// Hypervisor counts.
type CycleCounters struct {
	Hypervisor uint64 // cycles spent executing hypervisor code
}

// CPU is one simulated physical processor.
type CPU struct {
	ID int
	cpuState

	machine *Machine
	// apicTag/perfTag and apicFn/perfFn are the timer-event tags and
	// callbacks, precomputed in newCPU.
	apicTag, perfTag string
	apicFn, perfFn   simclock.Func
}

// cpuState is a CPU's architectural state, its pending vectors, and its
// local APIC timer and performance counter. The timers' event handles are
// clock objects, revived in place by the paired clock restore.
type cpuState struct {
	// Regs is the architectural register file. Values are symbolic (the
	// simulation does not interpret machine code) but bit-flips in them
	// drive the fault-manifestation model.
	Regs [NumRegs]uint64

	// IntrDisabled mirrors RFLAGS.IF: when true, maskable interrupts are
	// held pending. NMIs are always delivered.
	IntrDisabled bool

	// Halted is set while the CPU waits in a HLT idle loop.
	Halted bool

	// Cycles is the per-CPU unhalted cycle accounting.
	Cycles CycleCounters

	// HypInstrs counts instructions retired while executing hypervisor
	// code. The fault injector's second-level trigger counts these.
	HypInstrs uint64

	apic    localAPIC
	perf    perfCounter
	pending []Vector
}

func newCPU(m *Machine, id int) *CPU {
	c := &CPU{ID: id, machine: m}
	// Precompute the timer tags and fire callbacks once: arming happens on
	// every timer reprogram (thousands of times per simulated second), and
	// building a fmt.Sprintf tag or a fresh closure there would put the
	// allocator on the simulation's hottest path.
	c.apicTag = fmt.Sprintf("apic-timer cpu%d", id)
	c.apicFn = c.apicFire
	c.perfTag = fmt.Sprintf("perf-nmi cpu%d", id)
	c.perfFn = c.perfFire
	return c
}

// --- local APIC one-shot timer -------------------------------------------

// localAPIC models the one-shot local APIC timer. Xen programs it to fire
// at the deadline of the earliest entry in the CPU's software timer heap;
// the window between the timer firing and being reprogrammed is the hazard
// the "Reprogram hardware timer" enhancement closes (§V-A).
type localAPIC struct {
	armed    bool
	deadline time.Duration
	event    *simclock.Event
}

// ArmTimer programs the local APIC timer to fire at the absolute virtual
// time deadline. Re-arming replaces any previous deadline.
func (c *CPU) ArmTimer(deadline time.Duration) {
	clk := c.machine.Clock
	if c.apic.event != nil {
		clk.Cancel(c.apic.event)
	}
	if deadline < clk.Now() {
		deadline = clk.Now()
	}
	c.apic.armed = true
	c.apic.deadline = deadline
	c.apic.event = clk.At(deadline, c.apicTag, c.apicFn)
}

// apicFire is the APIC timer expiry callback (precomputed in newCPU).
func (c *CPU) apicFire() {
	c.apic.armed = false
	c.apic.event = nil
	c.raise(VecTimer)
}

// DisarmTimer cancels a pending APIC timer shot.
func (c *CPU) DisarmTimer() {
	if c.apic.event != nil {
		c.machine.Clock.Cancel(c.apic.event)
		c.apic.event = nil
	}
	c.apic.armed = false
}

// TimerArmed reports whether the APIC timer currently has a pending shot.
// After the timer fires and before it is reprogrammed, this is false: if
// recovery does not re-arm it, the CPU will never receive another timer
// interrupt (the hazard of §V-A).
func (c *CPU) TimerArmed() bool { return c.apic.armed }

// --- performance-counter NMI (watchdog source) ----------------------------

// perfCounter models the hardware performance counter programmed to raise
// an NMI every 100 ms of unhalted cycles (paper §VI-B). In the simulation,
// unhalted time approximates unhalted cycles.
type perfCounter struct {
	period  time.Duration
	running bool
	event   *simclock.Event
}

// StartPerfNMI arms the recurring performance-counter NMI with the given
// period. Each expiry delivers VecNMI to this CPU regardless of the
// interrupt-disable state.
func (c *CPU) StartPerfNMI(period time.Duration) {
	c.StopPerfNMI()
	c.perf.period = period
	c.perf.running = true
	c.schedulePerfNMI()
}

// StopPerfNMI cancels the recurring NMI.
func (c *CPU) StopPerfNMI() {
	if c.perf.event != nil {
		c.machine.Clock.Cancel(c.perf.event)
		c.perf.event = nil
	}
	c.perf.running = false
}

// PerfNMIRunning reports whether the watchdog NMI source is armed.
func (c *CPU) PerfNMIRunning() bool { return c.perf.running }

func (c *CPU) schedulePerfNMI() {
	c.perf.event = c.machine.Clock.After(c.perf.period, c.perfTag, c.perfFn)
}

// perfFire is the perf-NMI expiry callback (precomputed in newCPU). It
// drops the event handle before doing anything else: the clock recycles
// fired events, so a stale handle must never survive past the callback.
func (c *CPU) perfFire() {
	c.perf.event = nil
	if !c.perf.running {
		return
	}
	// NMI: delivered even with interrupts disabled.
	c.machine.deliver(c.ID, VecNMI)
	if c.perf.running {
		c.schedulePerfNMI()
	}
}

// --- interrupt delivery ----------------------------------------------------

// raise attempts to deliver vec to this CPU, queueing it as pending if the
// sink refuses (interrupts disabled).
func (c *CPU) raise(vec Vector) {
	if c.machine.deliver(c.ID, vec) {
		return
	}
	for _, p := range c.pending {
		if p == vec {
			return // level-style collapse of duplicate pending vectors
		}
	}
	c.pending = append(c.pending, vec)
}

// DrainPending re-attempts delivery of pending interrupts. The hypervisor
// calls this after re-enabling interrupts on the CPU.
func (c *CPU) DrainPending() {
	pend := c.pending
	c.pending = nil
	for _, vec := range pend {
		c.raise(vec)
	}
}

// ClearPending drops all pending interrupts. Recovery uses this when it
// acknowledges "all pending and in-service interrupts" (§III-B).
func (c *CPU) ClearPending() { c.pending = nil }

// --- cycle / instruction accounting ---------------------------------------

// ChargeHypervisor accounts cycles and instructions executed in hypervisor
// context.
func (c *CPU) ChargeHypervisor(cycles, instrs uint64) {
	c.Cycles.Hypervisor += cycles
	c.HypInstrs += instrs
}

// ResetCounters zeroes the cycle and instruction counters (used at the
// synchronized start of an overhead measurement, §VII-C).
func (c *CPU) ResetCounters() {
	c.Cycles = CycleCounters{}
	c.HypInstrs = 0
}
