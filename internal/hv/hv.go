// Package hv is the hypervisor core: it owns every subsystem (memory,
// locks, timers, scheduler, domains), executes handler programs step by
// step with instruction accounting, dispatches interrupts, and exposes the
// state-inspection and state-repair surface the recovery engines
// (internal/core) operate on.
//
// Execution model: the simulation is event-driven; a handler program runs
// to completion within one clock event unless a fault injection or a
// spinlock spin interrupts it. Because programs are decomposed into steps
// with instruction costs, the fault injector's instruction-count trigger
// lands between two specific steps — leaving exactly the partial state
// (held locks, half-updated refcounts, un-reprogrammed APIC, inconsistent
// scheduler metadata) that drives the paper's recovery-rate results.
package hv

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/journal"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/prng"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// Config parameterizes the hypervisor.
type Config struct {
	Machine hw.Config

	// HeapFrames is the number of page frames reserved for the
	// hypervisor heap (Xen's xenheap/domheap).
	HeapFrames int

	// LoggingEnabled selects the §IV retry-mitigation logging. Disabling
	// it is the NiLiHype* configuration of Figure 3.
	LoggingEnabled bool

	// RecoveryPrep enables the always-on recovery bookkeeping shared by
	// NiLiHype and ReHype (retry setup, multicall completion logging).
	// Disabled only for the stock-Xen overhead baseline.
	RecoveryPrep bool

	// Seed drives all randomness in the run.
	Seed uint64

	// FlightRecorderCapacity sizes the always-on telemetry flight ring
	// (rounded up to a power of two). Zero selects
	// DefaultFlightRecorderCapacity. The capacity shapes the boot image,
	// so campaign image caching keys on it.
	FlightRecorderCapacity int
}

// DefaultFlightRecorderCapacity is the always-on flight-ring size: big
// enough to hold a full detection→recovery→resume sequence plus the
// activity leading into it, small enough that the per-image footprint
// (24 bytes/event) stays negligible.
const DefaultFlightRecorderCapacity = 256

// DefaultConfig returns the paper's testbed configuration.
func DefaultConfig() Config {
	return Config{
		Machine:        hw.DefaultConfig(),
		HeapFrames:     32768, // 128 MB hypervisor heap
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           1,
	}
}

// Hypervisor is the simulated Xen-like hypervisor.
type Hypervisor struct {
	Clock   *simclock.Clock
	Machine *hw.Machine
	Locks   *locking.Registry
	Frames  *mm.FrameTable
	Heap    *mm.Heap
	Sched   *sched.Scheduler
	Timers  *xentime.Subsystem
	Domains *dom.List
	Statics *hypercall.Statics
	RNG     *rand.Rand

	// Tel is the always-on telemetry instance: metrics registry plus
	// flight recorder. Never nil on a constructed hypervisor.
	Tel *telemetry.Telemetry

	// Jrn is the causal recovery journal: the structured fault → detect →
	// attempt → disposition event stream. Never nil on a constructed
	// hypervisor.
	Jrn *journal.Journal

	// rngStream is RNG's underlying reseedable stream (see ReseedRun).
	rngStream *prng.Stream

	percpu []*PerCPU

	// Broker routes event-channel notifications between domains.
	Broker *evtchn.Broker

	// Cons is the hypervisor console ring (guarded by the console static
	// lock on the hypercall path).
	Cons *Console

	// irqActivityIDs caches the interned telemetry ids of the interrupt
	// kinds' names (see irqActivityID).
	irqActivityIDs [numIRQKinds]uint64

	// injectFn is the armed injection's callback. It is read only while
	// injectArmed is set, and every image is captured before injection is
	// armed, so a restore clears injectArmed and need not touch injectFn.
	injectFn InjectFunc

	// Boot-time hooks: the detectors' and the guest world's entry points.
	panicHook func(cpu int, cause Cause, reason string)
	nmiHook   func(cpu int)
	eventHook func(domID, port int)
	nicRxHook func(hw.Packet)

	// schedFluxProb is the discard-time metadata-flux probability (see
	// SetSchedFluxProb), set before the image is captured.
	schedFluxProb float64

	hvState
}

// hvState is the hypervisor core's own mutable state; the subsystems and
// per-CPU structures keep theirs.
type hvState struct {
	// nextGuestFrame is the bump allocator for guest memory regions.
	nextGuestFrame int

	// crossCPUWaits tracks in-flight synchronous cross-CPU operations
	// (remote TLB-flush IPIs). See §III-C: with single-thread discard, a
	// requester waiting on a discarded responder blocks forever.
	crossCPUWaits []CrossCPUWait

	// injection
	injectArmed  bool
	injectBudget int64

	// failure state
	failed     bool
	failCause  Cause
	failReason string

	// recoveryEpoch increments whenever execution contexts are
	// discarded, letting interrupted entry/exit paths detect that their
	// context is gone.
	recoveryEpoch uint64

	// paused is set while recovery is in progress: guest activity defers
	// and device interrupts stay pending.
	paused      bool
	afterResume []func()
	// pauseHook, when set, is invoked at every Pause — the adversarial
	// injector uses it to arm a fault-during-recovery trigger. It is run
	// state: each run's injection schedule sets it.
	pauseHook func()

	callSeq uint64

	// Structural corruption targets for the paper's remaining
	// recovery-failure causes (§VII-A); the others live in the real
	// subsystem structures (heap free list, domain links, timer heaps…).
	//
	// staticScratch models static-segment working state that microreboot
	// re-initializes during boot but microreset keeps in place — the
	// source of ReHype's small recovery-rate edge on non-failstop
	// faults. It holds a fixed boot-time pattern; flipped bits are
	// detectable damage (StaticScratchDamage) and ReinitStaticScratch
	// restores the pattern.
	//
	// recoveryVector models the state needed to even invoke the recovery
	// routine ("the recovery routine fails to be invoked due to the
	// corrupted hypervisor state" — failure cause 1, fatal to both
	// mechanisms). A damaged vector means recovery never starts, so no
	// audit or ladder rung can help.
	staticScratch  []uint64
	recoveryVector uint64

	// Stats accumulates counters for reports and tests.
	Stats Stats
}

// Stats holds run counters.
type Stats struct {
	Hypercalls     uint64
	Interrupts     uint64
	Panics         uint64
	Spins          uint64
	RetriedCalls   uint64
	DroppedCalls   uint64
	TimerIRQs      uint64
	DeviceIRQs     uint64
	InjectionFired bool
}

// CrossCPUWait is one in-flight synchronous cross-CPU operation.
type CrossCPUWait struct {
	Requester int
	Responder int
	Desc      string
}

// New constructs a hypervisor on a fresh machine and boots nothing yet;
// call Boot to bring up the platform and the PrivVM.
func New(clock *simclock.Clock, cfg Config) (*Hypervisor, error) {
	machine, err := hw.NewMachine(clock, cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("hv: %w", err)
	}
	if cfg.HeapFrames <= 0 || cfg.HeapFrames > machine.PageFrames() {
		return nil, fmt.Errorf("hv: invalid heap size %d frames", cfg.HeapFrames)
	}
	rngStream := prng.NewStream(cfg.Seed, 0xce11)
	h := &Hypervisor{
		Clock:     clock,
		Machine:   machine,
		Locks:     locking.NewRegistry(),
		Domains:   dom.NewList(),
		RNG:       rngStream.Rand,
		rngStream: rngStream,
	}
	h.nextGuestFrame = cfg.HeapFrames
	flightCap := cfg.FlightRecorderCapacity
	if flightCap <= 0 {
		flightCap = DefaultFlightRecorderCapacity
	}
	h.Tel = telemetry.New(flightCap, clock.Now)
	h.Jrn = journal.New(journal.DefaultCapacity)
	opNames := make([]string, int(hypercall.OpIOEmulation)+1)
	for op := 1; op < len(opNames); op++ {
		opNames[op] = hypercall.Op(op).String()
	}
	h.Tel.OpNames = opNames
	h.staticScratch = make([]uint64, staticScratchWords)
	for i := range h.staticScratch {
		h.staticScratch[i] = staticScratchPattern(i)
	}
	h.recoveryVector = recoveryVectorMagic
	h.Broker = evtchn.NewBroker()
	h.Cons = NewConsole(256)
	h.Frames = mm.NewFrameTable(machine.PageFrames())
	h.Heap = mm.NewHeap(h.Frames, h.Locks, 0, cfg.HeapFrames)
	h.Sched = sched.NewScheduler(machine.NumCPUs(), h.Locks)
	h.Sched.SetTelemetry(h.Tel)
	h.Timers = xentime.NewSubsystem(machine.NumCPUs(), apicAdapter{machine})
	h.Statics = hypercall.NewStatics(h.Locks)

	for i := 0; i < machine.NumCPUs(); i++ {
		pc := &PerCPU{ID: i}
		pc.Env = &hypercall.Env{
			CPU:            i,
			Frames:         h.Frames,
			Heap:           h.Heap,
			Sched:          h.Sched,
			Timers:         h.Timers,
			Domains:        h.Domains,
			Broker:         h.Broker,
			Statics:        h.Statics,
			RNG:            h.RNG,
			Now:            clock.Now,
			Wake:           h.WakeVCPU,
			CreateDomain:   h.createDomainFromSpec,
			DestroyDomain:  h.DestroyDomain,
			Undo:           hypercall.NewUndoLog(),
			LoggingEnabled: cfg.LoggingEnabled,
			RecoveryPrep:   cfg.RecoveryPrep,
			Tel:            h.Tel,
		}
		pc.Env.Notify = func(domID, port int) {
			if h.eventHook != nil {
				h.eventHook(domID, port)
			}
		}
		pc.Env.ConsoleEmit = h.Cons.WriteGuest
		pc.Env.SwitchContext = h.switchRegisterContext
		h.percpu = append(h.percpu, pc)
	}
	machine.SetSink(h)
	return h, nil
}

// apicAdapter adapts hw CPUs to xentime.Programmer.
type apicAdapter struct{ m *hw.Machine }

func (a apicAdapter) ArmTimer(cpu int, d time.Duration) { a.m.CPU(cpu).ArmTimer(d) }
func (a apicAdapter) DisarmTimer(cpu int)               { a.m.CPU(cpu).DisarmTimer() }

// Boot brings up the platform: IO-APIC routing, standing timers (scheduler
// ticks, time sync), and the PrivVM (Dom0).
func (h *Hypervisor) Boot() error {
	h.Machine.IOAPIC().Route(hw.IRQBlock, 0, hw.VecBlock)
	h.Machine.IOAPIC().Route(hw.IRQNIC, 0, hw.VecNIC)
	// Record the software copy of the redirection table (the irq_desc
	// bookkeeping the IRQ-delivery detector reads back against).
	h.Machine.IOAPIC().RecordBootRoutes()

	for cpu := 0; cpu < h.Machine.NumCPUs(); cpu++ {
		h.percpu[cpu].schedTick = h.Timers.AddTimer(cpu, fmt.Sprintf("sched_tick.cpu%d", cpu),
			h.Clock.Now()+schedTickPeriod, schedTickPeriod, nil)
		h.Timers.ProgramAPIC(cpu)
	}
	// Global time-calibration event (Xen's recurring time sync).
	h.Timers.AddTimer(0, "time_sync", h.Clock.Now()+timeSyncPeriod, timeSyncPeriod, func() {})
	h.Timers.ProgramAPIC(0)

	// PrivVM: Dom0 with one vCPU pinned to CPU 0.
	if err := h.CreateDomain(dom.PrivVMID, "Domain-0", privVMPages, 0, true); err != nil {
		return fmt.Errorf("hv: booting PrivVM: %w", err)
	}
	return nil
}

// Timing constants.
const (
	schedTickPeriod = 10 * time.Millisecond
	timeSyncPeriod  = time.Second
	privVMPages     = 16384 // 64 MB
)

// CreateDomain builds a domain: heap-backed struct with embedded locks, a
// guest memory region, and one vCPU pinned to pinCPU.
func (h *Hypervisor) CreateDomain(id int, name string, memPages, pinCPU int, priv bool) error {
	if err := h.Domains.CheckLinks(); err != nil {
		return err
	}
	if _, err := h.Domains.ByID(id); err == nil {
		return fmt.Errorf("hv: domain %d already exists", id)
	}
	if pinCPU < 0 || pinCPU >= h.Machine.NumCPUs() {
		return fmt.Errorf("hv: bad pin CPU %d", pinCPU)
	}
	if h.nextGuestFrame+memPages > h.Frames.Len() {
		return fmt.Errorf("hv: out of guest memory for domain %d", id)
	}
	obj := h.Heap.Alloc(domStructPages, fmt.Sprintf("domain%d", id))
	if obj == nil {
		return fmt.Errorf("hv: heap allocation failed for domain %d", id)
	}
	d := &dom.Domain{
		ID:       id,
		Name:     name,
		IsPriv:   priv,
		MemStart: h.nextGuestFrame,
		MemCount: memPages,
		Obj:      obj,
		Events:   evtchn.NewTable(id, evtchn.DefaultPorts),
		GrantTab: grant.NewTable(id, grant.DefaultRefs),
		Maptrack: grant.NewMaptrack(id),
	}
	d.TotPages = memPages / 2
	h.Broker.Register(d.Events)
	// Every domain binds a port for block-device completions.
	if _, err := d.Events.BindVIRQ(evtchn.VIRQBlock); err != nil {
		h.Broker.Unregister(id)
		h.Heap.Free(obj)
		return fmt.Errorf("hv: domain %d evtchn: %w", id, err)
	}
	// Non-privileged domains get an I/O ring channel to the PrivVM
	// backend (allocated unbound on the PrivVM side, bound here).
	if !priv {
		if priv0 := h.Broker.Table(dom.PrivVMID); priv0 != nil {
			back, err := priv0.AllocUnbound(id)
			if err != nil {
				h.Broker.Unregister(id)
				h.Heap.Free(obj)
				return fmt.Errorf("hv: domain %d ring: %w", id, err)
			}
			front, err := h.Broker.BindInterdomain(id, dom.PrivVMID, back)
			if err != nil {
				h.Broker.Unregister(id)
				h.Heap.Free(obj)
				return fmt.Errorf("hv: domain %d ring: %w", id, err)
			}
			d.RingPort = front
		}
	}
	d.PageAllocLock = h.Heap.AddLock(obj, "page_alloc_lock")
	d.GrantLock = h.Heap.AddLock(obj, "grant_lock")
	if err := h.Frames.AssignRange(d.MemStart, d.MemCount, id, mm.FrameGuest); err != nil {
		h.Heap.Free(obj)
		return fmt.Errorf("hv: domain %d memory: %w", id, err)
	}
	h.nextGuestFrame += memPages
	d.VCPUs = append(d.VCPUs, h.Sched.AddVCPU(id, 0, pinCPU))
	h.Domains.Insert(d)
	// If the pinned CPU is idle, run the new vCPU immediately (the
	// paper's configurations pin one vCPU per physical CPU).
	if h.Sched.Curr(pinCPU) == nil {
		if op := h.Sched.BeginSwitch(pinCPU); op != nil {
			op.Complete()
		}
		h.Machine.CPU(pinCPU).Halted = false
	}
	return nil
}

const domStructPages = 2

// createDomainFromSpec adapts CreateDomain for domctl.
func (h *Hypervisor) createDomainFromSpec(spec hypercall.CreateSpec) error {
	return h.CreateDomain(spec.ID, spec.Name, spec.MemPages, spec.PinCPU, false)
}

// DestroyDomain tears a domain down: vCPU removal, heap free, list unlink.
// Guest frames are left assigned (scrubbing is lazy in Xen too).
func (h *Hypervisor) DestroyDomain(id int) error {
	d, err := h.Domains.ByID(id)
	if err != nil {
		return err
	}
	for _, v := range d.VCPUs {
		h.Sched.RemoveVCPU(v)
	}
	if d.Obj != nil {
		h.Heap.Free(d.Obj)
	}
	h.Broker.Unregister(id)
	h.Domains.Remove(d)
	return nil
}

// Domain returns a domain by ID (hard lookup for internal wiring; does not
// model a hypervisor code path).
func (h *Hypervisor) Domain(id int) (*dom.Domain, error) { return h.Domains.ByID(id) }

// RestartPrivVM reboots the PrivVM from its boot image: the old Dom0 (dead
// or hung) is torn down, a fresh Dom0 is created exactly as Boot creates
// it, and every surviving AppVM's I/O ring channel is re-bound to the new
// backend's event-channel table. Returns the number of AppVM rings
// re-attached. This is the state-manipulation half of the PrivVM-restart
// recovery rung; the engine charges its latency separately.
//
// The old Dom0 is located through the preserved domain pointers rather
// than the linked list (the list may be damaged in the same run), and
// Remove/Insert relink the list as a side effect.
func (h *Hypervisor) RestartPrivVM() (int, error) {
	var d0 *dom.Domain
	for _, d := range h.Domains.Preserved() {
		if d.ID == dom.PrivVMID {
			d0 = d
			break
		}
	}
	reuseStart := -1
	if d0 != nil {
		if d0.MemCount > 0 {
			reuseStart = d0.MemStart
		}
		for _, v := range d0.VCPUs {
			h.Sched.RemoveVCPU(v)
		}
		if d0.Obj != nil {
			h.Heap.Free(d0.Obj)
		}
		h.Broker.Unregister(dom.PrivVMID)
		h.Domains.Remove(d0)
	}
	// Reuse the dead Dom0's guest-frame range: the bump allocator never
	// reclaims, so carving a fresh 64 MB per restart would leak the old
	// range's descriptors and eventually exhaust guest memory.
	if reuseStart >= 0 {
		saved := h.nextGuestFrame
		h.nextGuestFrame = reuseStart
		err := h.CreateDomain(dom.PrivVMID, "Domain-0", privVMPages, 0, true)
		if h.nextGuestFrame < saved {
			h.nextGuestFrame = saved
		}
		if err != nil {
			return 0, fmt.Errorf("hv: PrivVM restart: %w", err)
		}
	} else if err := h.CreateDomain(dom.PrivVMID, "Domain-0", privVMPages, 0, true); err != nil {
		return 0, fmt.Errorf("hv: PrivVM restart: %w", err)
	}
	priv0 := h.Broker.Table(dom.PrivVMID)
	reattached := 0
	for _, d := range h.Domains.Preserved() {
		if d.IsPriv || d.Failed {
			continue
		}
		// Drop the frontend port that pointed into the destroyed backend
		// table, then rebind against the new one — the same wiring
		// CreateDomain performs for a fresh AppVM.
		if d.RingPort > 0 {
			_ = d.Events.Close(d.RingPort)
			d.RingPort = 0
		}
		back, err := priv0.AllocUnbound(d.ID)
		if err != nil {
			continue
		}
		front, err := h.Broker.BindInterdomain(d.ID, dom.PrivVMID, back)
		if err != nil {
			continue
		}
		d.RingPort = front
		reattached++
	}
	h.Tel.Counters[telemetry.CtrPrivVMRestarts]++
	return reattached, nil
}

// WakeVCPU makes a vCPU runnable and un-halts its CPU.
func (h *Hypervisor) WakeVCPU(v *sched.VCPU) {
	h.Sched.Wake(v)
	if v.Processor >= 0 && v.Processor < len(h.percpu) {
		h.Machine.CPU(v.Processor).Halted = false
	}
}

// Failed reports whether the hypervisor has failed terminally (a panic
// with no recovery hook, or a declared unrecoverable state).
func (h *Hypervisor) Failed() (bool, string) { return h.failed, h.failReason }

// MarkFailed records terminal hypervisor failure and halts the simulation.
func (h *Hypervisor) MarkFailed(cause Cause, reason string) {
	if h.failed {
		return
	}
	h.failed = true
	h.failCause, h.failReason = cause, reason
	h.Clock.Halt()
}

// ClearFailed un-marks a failure and resumes event dispatching. MarkFailed
// is no longer unconditionally terminal: a recovery engine whose escalation
// ladder still has a rung clears the failed attempt's mark so the next
// mechanism gets a live simulation to repair. Only engines call this, and
// only when another attempt is about to start.
func (h *Hypervisor) ClearFailed() {
	h.failed = false
	h.failCause, h.failReason = CauseNone, ""
	h.Clock.Resume()
}

// SetPanicHook installs the detection callback invoked on hypervisor
// panic (assertion failure / fatal exception).
func (h *Hypervisor) SetPanicHook(fn func(cpu int, cause Cause, reason string)) { h.panicHook = fn }

// SetNMIHook installs the watchdog NMI callback.
func (h *Hypervisor) SetNMIHook(fn func(cpu int)) { h.nmiHook = fn }

// PerCPU returns CPU i's hypervisor-private state.
func (h *Hypervisor) PerCPU(i int) *PerCPU { return h.percpu[i] }

// NumCPUs returns the physical CPU count.
func (h *Hypervisor) NumCPUs() int { return len(h.percpu) }
