package hv

import (
	"fmt"
	"slices"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/hw"
	"nilihype/internal/journal"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/snap"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// percpuSaved is one CPU's captured state value plus its undo-log
// counters.
type percpuSaved struct {
	percpuState
	undoWrites, undoRollbacks uint64
}

// Snapshot is a captured whole-hypervisor state: the core's state value,
// every subsystem snapshot, and each CPU's and the console's state. It is
// designed for the boot-once / fork-many campaign pattern: capture once
// at a quiescent point (no in-flight handler program, no pending
// recovery), then Restore before each run.
//
// The snapshot deliberately does NOT capture h.RNG's position — forked
// runs reseed it via ReseedRun, and a freshly booted hypervisor is already
// at the same position, so both paths draw identical sequences.
type Snapshot struct {
	hvState
	clock   *simclock.Snapshot
	machine *hw.Snapshot
	locks   *locking.Snapshot
	frames  *mm.FrameTableSnapshot
	heap    *mm.HeapSnapshot
	sched   *sched.Snapshot
	timers  *xentime.Snapshot
	domains *dom.Snapshot
	broker  *evtchn.BrokerSnapshot
	tel     *telemetry.Snapshot
	jrn     *journal.Snapshot

	percpu []percpuSaved
	cons   consoleState
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
		hvState: h.hvState,
		clock:   h.Clock.Snapshot(),
		machine: h.Machine.Snapshot(),
		locks:   h.Locks.Snapshot(),
		frames:  h.Frames.Snapshot(),
		heap:    h.Heap.Snapshot(),
		sched:   h.Sched.Snapshot(),
		timers:  h.Timers.Snapshot(),
		domains: h.Domains.Snapshot(),
		broker:  h.Broker.Snapshot(),
		tel:     h.Tel.Snapshot(),
		jrn:     h.Jrn.Snapshot(),
		percpu:  make([]percpuSaved, len(h.percpu)),
		cons:    h.Cons.consoleState,
	}
	s.crossCPUWaits, s.afterResume = slices.Clone(s.crossCPUWaits), slices.Clone(s.afterResume)
	s.staticScratch, s.cons.ring = slices.Clone(s.staticScratch), slices.Clone(s.cons.ring)
	for i, pc := range h.percpu {
		s.percpu[i] = percpuSaved{pc.percpuState, pc.Env.Undo.Writes, pc.Env.Undo.Rollbacks}
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
	h.Tel.Restore(s.tel)
	h.Jrn.Restore(s.jrn)

	h.hvState, h.crossCPUWaits, h.afterResume, h.staticScratch = s.hvState,
		snap.Slice(h.crossCPUWaits, s.crossCPUWaits), snap.Slice(h.afterResume, s.afterResume),
		snap.Slice(h.staticScratch, s.staticScratch)
	h.Cons.consoleState, h.Cons.ring = s.cons, snap.Slice(h.Cons.ring, s.cons.ring)
	for i, pc := range h.percpu {
		st := &s.percpu[i]
		pc.percpuState = st.percpuState
		// The snapshot point is quiescent, so program-transient Env state
		// resets to its between-calls values.
		pc.Env.ResetProgramState()
		pc.Env.Call = nil
		pc.Env.Undo.Clear()
		pc.Env.Undo.Writes, pc.Env.Undo.Rollbacks = st.undoWrites, st.undoRollbacks
	}
}

// ReseedRun rewinds the hypervisor's RNG stream to the position a fresh
// boot with this seed would have. On a freshly constructed hypervisor it
// is a no-op (New already seeds the stream identically), which is what
// makes cold-boot and snapshot-fork runs draw bit-identical sequences.
func (h *Hypervisor) ReseedRun(seed uint64) {
	h.rngStream.Reseed(seed, 0xce11)
}
