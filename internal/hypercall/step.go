package hypercall

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// SpinError reports that a step tried to take a spinlock that is already
// held. During normal operation this cannot happen (handlers run to
// completion); after a failed recovery that left a lock held by a
// discarded thread, the acquiring CPU spins forever and the watchdog
// detects a hang.
type SpinError struct {
	Lock *locking.Lock
}

// Error implements error.
func (e *SpinError) Error() string {
	return fmt.Sprintf("hypercall: spinning on held lock %q (owner cpu%d)", e.Lock.Name(), e.Lock.Owner())
}

// Step is one injectable unit of a handler program.
type Step struct {
	// Name identifies the step in traces ("inc_refcount", ...).
	Name string

	// Instrs is the instruction cost; the injector's second-level
	// trigger counts these, so Instrs is also the step's injection
	// occupancy weight.
	Instrs uint64

	// C is the call this step operates on — for a multicall batch, the
	// component call (the completion-log steps bind the outer batch).
	// Build stamps it when instantiating the op's static step template;
	// interrupt-handler steps built by the hypervisor leave it nil. The
	// binding is what lets step bodies be shared package-level functions
	// instead of per-dispatch closures (the campaign-throughput hot path:
	// programs are built at every dispatch and retry).
	C *Call

	// T is the software timer a step operates on — the timer interrupt
	// handler emits a run/rearm step pair per due timer, and binding the
	// timer here (like C above) lets those bodies be shared functions
	// instead of per-tick closures. Nil outside timer-IRQ programs.
	T *xentime.Timer

	// Arg is a small integer operand for device-IRQ steps, bound like C
	// and T so their bodies are shared too: the owning domain of a block
	// completion, or the index of a packet in the CPU's drained RX batch.
	Arg int

	// Do performs the step's state mutation against e, reading call
	// arguments from st.C (st is the step itself). A non-nil error is a
	// failed hypervisor assertion (panic). A *SpinError is a spin on a
	// held lock.
	Do func(e *Env, st *Step) error

	// Unmitigated marks the §IV residual window: a retry after a fault
	// in this step fails even with undo logging (the paper: "there are
	// likely to be several infrequently-used non-idempotent hypercall
	// handlers that we have not properly enhanced... the changes do not
	// resolve 100% of the problem").
	Unmitigated bool
}

// Program is an ordered list of steps implementing one handler.
type Program []Step

// Statics bundles the hypervisor's well-known static locks (declared via
// the lock macro, so they live in the static-lock segment).
type Statics struct {
	Console  *locking.Lock
	DomList  *locking.Lock
	HeapLock *locking.Lock
}

// NewStatics declares the static locks in the registry.
func NewStatics(reg *locking.Registry) *Statics {
	return &Statics{
		Console:  reg.NewStatic("console_lock"),
		DomList:  reg.NewStatic("domlist_lock"),
		HeapLock: reg.NewStatic("heap_lock"),
	}
}

// Env is the per-CPU execution environment handler programs run against.
// The hypervisor core owns one per CPU and rebinds Call/Domain at dispatch.
type Env struct {
	CPU int

	// Subsystems.
	Frames  *mm.FrameTable
	Heap    *mm.Heap
	Sched   *sched.Scheduler
	Timers  *xentime.Subsystem
	Domains *dom.List
	Broker  *evtchn.Broker
	Statics *Statics
	RNG     *rand.Rand

	// Now returns the current virtual time (bound to the clock).
	Now func() time.Duration

	// Wake makes a vCPU runnable (bound to the hypervisor's wake path).
	Wake func(*sched.VCPU)

	// Notify reports an event-channel delivery to the guest layer (may
	// be nil in unit tests).
	Notify func(domID, port int)

	// ConsoleEmit appends domain dom's console_io output for call seq to
	// the hypervisor console ring (may be nil in unit tests).
	ConsoleEmit func(dom int, seq uint64)

	// SwitchContext saves/loads vCPU register contexts on a context
	// switch (bound to the hypervisor's hardware access; may be nil in
	// unit tests).
	SwitchContext func(cpu int, prev, next *sched.VCPU)

	// CreateDomain / DestroyDomain are bound to the hypervisor's domain
	// lifecycle (used by domctl).
	CreateDomain  func(CreateSpec) error
	DestroyDomain func(id int) error

	// Undo is this CPU's undo log.
	Undo *UndoLog

	// LoggingEnabled selects whether critical writes are undo-logged.
	// Disabling it is the NiLiHype* configuration (Figure 3): less
	// overhead, ~12% lower recovery rate (§IV).
	LoggingEnabled bool

	// RecoveryPrep enables the always-on recovery bookkeeping NiLiHype
	// and ReHype share (hypercall-retry setup, multicall completion
	// logging). Disabled only in the stock-Xen baseline used by the
	// overhead experiment (Figure 3).
	RecoveryPrep bool

	// ExtraCycles accumulates logging overhead cycles during a step; the
	// hypervisor core drains it into the CPU's cycle counters after each
	// step. This is the hypervisor-processing overhead Figure 3 measures.
	ExtraCycles uint64

	// Tel, when set, receives lock acquisition/contention counters. Nil
	// (standalone Env construction in tests) disables the counting.
	Tel *telemetry.Telemetry

	// Call is the call currently executing on this CPU.
	Call *Call

	// heldLocks tracks locks the current program acquired, so an
	// abandoned program is known to have leaked them.
	heldLocks []*locking.Lock

	// progBuf is the reusable step buffer Build stamps programs into.
	// At most one program is ever in flight per CPU (interrupts are
	// refused and dispatch is non-reentrant while the CPU is busy), so
	// the buffer is recycled at the next dispatch without copying.
	progBuf Program

	// scr is the per-program scratch state shared between a handler's
	// steps (see progScratch).
	scr progScratch
}

// progScratch holds the per-program mutable state that a handler's steps
// share. Each op's entry step resets the fields it uses, which matches
// the old per-build closure captures exactly: execution (and a rebuild at
// retry time) always starts from the entry step, so the program begins
// with a clean slate.
type progScratch struct {
	// op is the in-flight context switch (sched_op).
	op *sched.SwitchOp
	// notified/notifiedPort carry the event-channel delivery target from
	// set_pending to upcall (-1 = none).
	notified     int
	notifiedPort int
	// bad marks an invalid event-channel port (-EINVAL, not a panic).
	bad bool
	// created marks that domctl_create's insert already ran (its own
	// retry finds the domain present without tripping the assertion).
	created bool
}

// Undo-log write costs in cycles, by record class. Grant-map tracking
// logs full mapping state (page, handle, flags) while page-table refcount
// logging is compact and batched — which is why BlkBench, whose I/O path
// does a grant map/unmap pair per file operation, shows the highest
// hypervisor processing overhead in Figure 3 ("Most of this overhead is
// due to logging").
const (
	LogCostMMU    = 35
	LogCostMemory = 60
	LogCostGrant  = 560
	LogCostDomctl = 300
)

// Acquire takes a lock for the current program, returning a *SpinError if
// it is held.
func (e *Env) Acquire(l *locking.Lock) error {
	if !l.TryAcquire(e.CPU) {
		e.Tel.Inc(telemetry.CtrLockContended)
		return &SpinError{Lock: l}
	}
	e.Tel.Inc(telemetry.CtrLockAcquisitions)
	e.heldLocks = append(e.heldLocks, l)
	return nil
}

// Release drops a lock acquired by the current program.
func (e *Env) Release(l *locking.Lock) {
	l.Release(e.CPU)
	for i, h := range e.heldLocks {
		if h == l {
			e.heldLocks = append(e.heldLocks[:i], e.heldLocks[i+1:]...)
			return
		}
	}
}

// HeldLocks returns the locks the in-flight program currently holds.
func (e *Env) HeldLocks() []*locking.Lock {
	out := make([]*locking.Lock, len(e.heldLocks))
	copy(out, e.heldLocks)
	return out
}

// ResetProgramState clears per-program bookkeeping (held-lock tracking).
// Called by the hypervisor core when a program starts, completes, or is
// discarded by recovery (the locks themselves are NOT released — that is
// precisely the recovery hazard).
func (e *Env) ResetProgramState() {
	// Truncate rather than nil: the Env lives for the whole run and a
	// program's first Acquire should not have to regrow the slice.
	e.heldLocks = e.heldLocks[:0]
	e.ExtraCycles = 0
}

// logWriteRecord records an undo action for a critical-variable write if
// logging is enabled, charging the class-specific logging overhead.
// Handlers call it immediately before performing the write. Records are
// plain data rather than closures: the campaign fast path logs tens of
// thousands of undo records per run, and a closure capture would allocate
// per write.
func (e *Env) logWriteRecord(cycles uint64, r UndoRecord) {
	if !e.LoggingEnabled {
		return
	}
	e.Undo.RecordData(r)
	e.ExtraCycles += cycles
}

// SwitchOp returns the in-flight context switch shared between a scheduler
// program's steps. The hypervisor's scheduler-softirq steps read it; the
// program's pick_next entry step assigns it (acting as the reset — every
// execution and every retry rebuild starts there).
func (e *Env) SwitchOp() *sched.SwitchOp { return e.scr.op }

// SetSwitchOp records the in-flight context switch (see SwitchOp).
func (e *Env) SetSwitchOp(op *sched.SwitchOp) { e.scr.op = op }

// targetDomain resolves a domain by ID.
func (e *Env) targetDomain(id int) (*dom.Domain, error) {
	return e.Domains.ByID(id)
}
