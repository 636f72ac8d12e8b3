package hv

import (
	"fmt"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/hw"
	"nilihype/internal/journal"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// percpuSaved is one CPU's captured hypervisor-private state.
type percpuSaved struct {
	localIRQCount        int
	irqActivity          string
	pendingPanic         string
	pendingCause         Cause
	wedged               bool
	spinning             *locking.Lock
	fsgsSaved            bool
	wasBusyAtDiscard     bool
	abandonedUnmitigated bool

	undoWrites    uint64
	undoRollbacks uint64
}

// consSaved is the captured console ring.
type consSaved struct {
	ring    []consLine
	start   int
	written uint64
	dropped uint64
}

// Snapshot is a captured whole-hypervisor state: every subsystem snapshot
// plus the core's own mutable fields. It is designed for the boot-once /
// fork-many campaign pattern: capture once at a quiescent point (no
// in-flight handler program, no pending recovery), then Restore before
// each run.
//
// The snapshot deliberately does NOT capture h.RNG's position — forked
// runs reseed it via ReseedRun, and a freshly booted hypervisor is already
// at the same position, so both paths draw identical sequences.
type Snapshot struct {
	clock   *simclock.Snapshot
	machine *hw.Snapshot
	locks   *locking.Snapshot
	frames  *mm.FrameTableSnapshot
	heap    *mm.HeapSnapshot
	sched   *sched.Snapshot
	timers  *xentime.Snapshot
	domains *dom.Snapshot
	broker  *evtchn.BrokerSnapshot

	percpu []percpuSaved
	cons   consSaved

	nextGuestFrame int
	crossCPUWaits  []CrossCPUWait

	injectArmed  bool
	injectBudget int64
	injectFn     InjectFunc

	failed     bool
	failCause  Cause
	failReason string

	panicHook func(cpu int, cause Cause, reason string)
	nmiHook   func(cpu int)
	eventHook func(domID, port int)
	nicRxHook func(hw.Packet)
	pauseHook func()

	recoveryEpoch  uint64
	schedFluxProb  float64
	paused         bool
	callSeq        uint64
	staticScratch  []uint64
	recoveryVector uint64
	stats          Stats
	tel            *telemetry.Snapshot
	jrn            *journal.Snapshot
}

// Snapshot captures the hypervisor and everything below it (machine,
// clock, all subsystems). The caller must ensure the simulation is
// quiescent: between clock events, with no in-flight handler program and
// no deferred post-resume work. The campaign layer snapshots at
// boot-complete, which satisfies this by construction.
//
// It panics, naming the CPU, if any CPU is Busy: an in-flight program
// lives in a per-CPU step buffer (Env's program buffer, irqProg) that the
// next dispatch overwrites, so it cannot be saved, and the snapshot keeps
// no program state at all.
func (h *Hypervisor) Snapshot() *Snapshot {
	for _, pc := range h.percpu {
		if pc.Busy() {
			panic(fmt.Sprintf("hv: Snapshot while CPU %d is inside a program", pc.ID))
		}
	}
	s := &Snapshot{
		clock:   h.Clock.Snapshot(),
		machine: h.Machine.Snapshot(),
		locks:   h.Locks.Snapshot(),
		frames:  h.Frames.Snapshot(),
		heap:    h.Heap.Snapshot(),
		sched:   h.Sched.Snapshot(),
		timers:  h.Timers.Snapshot(),
		domains: h.Domains.Snapshot(),
		broker:  h.Broker.Snapshot(),

		percpu: make([]percpuSaved, len(h.percpu)),
		cons: consSaved{
			ring:    append([]consLine(nil), h.Cons.ring...),
			start:   h.Cons.start,
			written: h.Cons.Written,
			dropped: h.Cons.Dropped,
		},

		nextGuestFrame: h.nextGuestFrame,
		crossCPUWaits:  append([]CrossCPUWait(nil), h.crossCPUWaits...),

		injectArmed:  h.injectArmed,
		injectBudget: h.injectBudget,
		injectFn:     h.injectFn,

		failed:     h.failed,
		failCause:  h.failCause,
		failReason: h.failReason,

		panicHook: h.panicHook,
		nmiHook:   h.nmiHook,
		eventHook: h.eventHook,
		nicRxHook: h.nicRxHook,
		pauseHook: h.pauseHook,

		recoveryEpoch:  h.recoveryEpoch,
		schedFluxProb:  h.schedFluxProb,
		paused:         h.paused,
		callSeq:        h.callSeq,
		staticScratch:  append([]uint64(nil), h.staticScratch...),
		recoveryVector: h.recoveryVector,
		stats:          h.Stats,
		tel:            h.Tel.Snapshot(),
		jrn:            h.Jrn.Snapshot(),
	}
	for i, pc := range h.percpu {
		s.percpu[i] = percpuSaved{
			localIRQCount:        pc.LocalIRQCount,
			irqActivity:          pc.IRQActivity,
			pendingPanic:         pc.PendingPanic,
			pendingCause:         pc.PendingCause,
			wedged:               pc.Wedged,
			spinning:             pc.Spinning,
			fsgsSaved:            pc.FSGSSaved,
			wasBusyAtDiscard:     pc.WasBusyAtDiscard,
			abandonedUnmitigated: pc.abandonedUnmitigated,
			undoWrites:           pc.Env.Undo.Writes,
			undoRollbacks:        pc.Env.Undo.Rollbacks,
		}
	}
	return s
}

// Restore rewinds the hypervisor to the snapshot. Object identity is
// preserved throughout — every Domain, VCPU, Timer, Lock, heap Object and
// clock Event the snapshot saw is revived in place, so cross-references
// (including closures wired during boot) stay valid. State created after
// the snapshot (domains, timers, heap objects, clock events) is dropped.
//
// h.RNG is NOT rewound — callers fork a run by calling ReseedRun next,
// which puts the stream exactly where a fresh boot would.
func (h *Hypervisor) Restore(s *Snapshot) {
	h.Clock.Restore(s.clock)
	h.Machine.Restore(s.machine)
	h.Locks.Restore(s.locks)
	h.Frames.Restore(s.frames)
	h.Heap.Restore(s.heap)
	h.Sched.Restore(s.sched)
	h.Timers.Restore(s.timers)
	h.Domains.Restore(s.domains)
	h.Broker.Restore(s.broker)

	h.Cons.ring = append(h.Cons.ring[:0], s.cons.ring...)
	h.Cons.start = s.cons.start
	h.Cons.Written = s.cons.written
	h.Cons.Dropped = s.cons.dropped

	h.nextGuestFrame = s.nextGuestFrame
	h.crossCPUWaits = append(h.crossCPUWaits[:0], s.crossCPUWaits...)

	h.injectArmed = s.injectArmed
	h.injectBudget = s.injectBudget
	h.injectFn = s.injectFn

	h.failed = s.failed
	h.failCause, h.failReason = s.failCause, s.failReason

	h.panicHook = s.panicHook
	h.nmiHook = s.nmiHook
	h.eventHook = s.eventHook
	h.nicRxHook = s.nicRxHook
	h.pauseHook = s.pauseHook

	h.recoveryEpoch = s.recoveryEpoch
	h.schedFluxProb = s.schedFluxProb
	h.paused = s.paused
	h.afterResume = h.afterResume[:0]
	h.callSeq = s.callSeq
	copy(h.staticScratch, s.staticScratch)
	h.recoveryVector = s.recoveryVector
	h.Stats = s.stats
	h.Tel.Restore(s.tel)
	h.Jrn.Restore(s.jrn)

	for i, pc := range h.percpu {
		st := &s.percpu[i]
		pc.LocalIRQCount = st.localIRQCount
		// Snapshot refuses a busy CPU, so no program was in flight.
		pc.Current = nil
		pc.CurrentProg = nil
		pc.CurrentStep = 0
		pc.InIRQProgram = false
		pc.IRQActivity = st.irqActivity
		pc.PendingPanic, pc.PendingCause = st.pendingPanic, st.pendingCause
		pc.Wedged = st.wedged
		pc.Spinning = st.spinning
		pc.FSGSSaved = st.fsgsSaved
		pc.WasBusyAtDiscard = st.wasBusyAtDiscard
		pc.abandonedUnmitigated = st.abandonedUnmitigated
		// The snapshot point is quiescent, so program-transient Env state
		// resets to its between-calls values.
		pc.Env.ResetProgramState()
		pc.Env.Call = nil
		pc.Env.Undo.Clear()
		pc.Env.Undo.Writes = st.undoWrites
		pc.Env.Undo.Rollbacks = st.undoRollbacks
	}
}

// ReseedRun rewinds the hypervisor's RNG stream to the position a fresh
// boot with this seed would have. On a freshly constructed hypervisor it
// is a no-op (New already seeds the stream identically), which is what
// makes cold-boot and snapshot-fork runs draw bit-identical sequences.
func (h *Hypervisor) ReseedRun(seed uint64) {
	h.rngStream.Reseed(seed, 0xce11)
}
