package guest

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
)

// AppVM is one application VM running a benchmark workload.
type AppVM struct {
	W   *World
	Cfg Config
	appvmState

	// Files is BlkBench's file model with its golden-copy comparison.
	// SeedAppVM resets it every run, keeping its map.
	Files *FileStore

	// procs and inFlight are run state kept as pools: resetForRun
	// empties them and keeps their capacity.
	procs    procTable // UnixBench process lifecycle (pins page tables)
	inFlight map[int]int

	// iterFn/runFn are the iterate entry points cached as method values
	// (set in Start): taking vm.iterate fresh at every reschedule would
	// allocate a closure per benchmark iteration.
	iterFn func()
	runFn  func()
	// pinScratch is reused across iterations for the fork batch's frame
	// exclusion list (never retained past the iteration).
	pinScratch []int
	// gotScratch is reused across HVM iterations for the frames that
	// actually mapped (copied into the forked process's record).
	gotScratch []int
}

// appvmState is the workload's run state; resetForRun zeroes it.
type appvmState struct {
	// OpsCompleted counts finished benchmark operations (file ops for
	// BlkBench, iterations for UnixBench, replies for NetBench).
	OpsCompleted int
	// OpsAfterMark counts operations since it was last zeroed (a world
	// restore zeroes it; a caller may zero it to mark a point of interest).
	OpsAfterMark int

	// Started/Finished bracket the benchmark run.
	Started  bool
	Finished bool

	// OutputCorrupted models failed golden-copy comparison (SDC).
	OutputCorrupted bool

	rng      *rand.Rand // drawn per run by SeedAppVM
	finishAt time.Duration
	nextRef  int // grant ref allocator
	reserved int // outstanding memory_op populate pages
}

// Start launches the benchmark: it runs for Cfg.Duration of virtual time.
func (vm *AppVM) Start() {
	if vm.Started {
		return
	}
	vm.Started = true
	if vm.inFlight == nil {
		vm.inFlight = make(map[int]int)
	}
	vm.finishAt = vm.W.H.Clock.Now() + vm.Cfg.Duration
	if vm.iterFn == nil {
		vm.iterFn = vm.iterate
		vm.runFn = vm.runIteration
	}
	if vm.Cfg.Kind != NetBench {
		vm.scheduleNext()
		return
	}
	// NetBench is purely reactive (the external sender drives it); it
	// finishes by the clock.
	vm.W.H.Clock.After(vm.Cfg.Duration+10*time.Millisecond, "netbench-finish", func() {
		vm.W.H.WhenRunnable(func() {
			if d, err := vm.W.H.Domain(vm.Cfg.Dom); err == nil && !d.Failed {
				vm.Finished = true
			}
		})
	})
}

// Verdict evaluates the benchmark against the paper's failure criteria
// (§VI-A): golden-output mismatch, guest-visible failures (domain
// failed), or lack of progress.
func (vm *AppVM) Verdict() (ok bool, reason string) {
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	switch {
	case err != nil:
		return false, "domain destroyed"
	case d.Failed:
		return false, "guest failed: " + d.FailReason
	case vm.OutputCorrupted:
		return false, "output differs from golden copy"
	case vm.Files != nil && len(vm.Files.CompareGolden()) > 0:
		return false, fmt.Sprintf("output differs from golden copy (%d files)", len(vm.Files.CompareGolden()))
	case !vm.Finished:
		return false, "benchmark did not complete"
	case vm.OpsCompleted < vm.minOps():
		return false, "insufficient progress (starved)"
	default:
		return true, ""
	}
}

// minOps is the progress floor: well under the ideal count (pauses and
// scheduling jitter are normal) but high enough that a stalled VM fails.
func (vm *AppVM) minOps() int {
	ideal := int(vm.Cfg.Duration / vm.Cfg.IterPeriod)
	return ideal / 3
}

func (vm *AppVM) scheduleNext() {
	jitter := time.Duration(vm.rng.Int64N(int64(vm.Cfg.IterPeriod) / 4))
	vm.W.H.Clock.After(vm.Cfg.IterPeriod+jitter, vm.Cfg.Kind.String(), vm.iterFn)
}

// iterate runs one benchmark iteration (deferred across recovery pauses).
func (vm *AppVM) iterate() {
	h := vm.W.H
	if failed, _ := h.Failed(); failed {
		return
	}
	h.WhenRunnable(vm.runFn)
}

// runIteration is the body of one iteration, entered once the hypervisor
// is runnable (cached as vm.runFn).
func (vm *AppVM) runIteration() {
	if vm.Finished {
		return
	}
	if vm.W.H.Clock.Now() >= vm.finishAt {
		vm.finish()
		return
	}
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	if err != nil || d.Failed {
		return // guest dead; no more activity
	}
	switch {
	case vm.Cfg.Kind == BlkBench:
		vm.blkIteration()
	case vm.Cfg.HVM:
		vm.hvmUnixIteration()
	default:
		vm.unixIteration()
	}
	vm.scheduleNext()
}

// finish completes the benchmark if all I/O drained; otherwise it waits a
// little longer for in-flight operations.
func (vm *AppVM) finish() {
	if len(vm.inFlight) > 0 {
		vm.W.H.Clock.After(5*time.Millisecond, "drain", vm.iterFn)
		vm.finishAt = vm.W.H.Clock.Now() // don't start new work
		return
	}
	vm.Finished = true
}

// --- BlkBench ---------------------------------------------------------------

// blkIteration models one file operation: grant the I/O buffers to the
// backend, notify it over an event channel, and submit the disk request
// (1 MB => 2048 sectors; caching in the AppVM is off, so the device is
// always touched). Completion arrives as a block-device interrupt.
func (vm *AppVM) blkIteration() {
	cpu, domID := vm.Cfg.CPU, vm.Cfg.Dom
	frame := vm.pickGuestFrame()
	ref := vm.grantBuffer(frame)
	if ref < 0 {
		return
	}
	vm.W.call(cpu, hypercall.OpGrantTableOp, domID,
		[4]uint64{hypercall.GrantMap, uint64(ref), uint64(frame)})
	vm.W.call(cpu, hypercall.OpEventChannelOp, domID,
		[4]uint64{0, 0, uint64(vm.ringPort())})
	if vm.gone() {
		return
	}
	vm.inFlight[ref] = frame
	vm.W.H.Machine.Block().Submit(hw.BlockRequest{
		Owner:   domID,
		Sectors: 2048,
		Write:   vm.rng.IntN(2) == 0,
		Cookie:  uint64(ref),
	})
}

// onBlockComplete finishes one outstanding file operation: unmap the
// grant and count the op.
func (vm *AppVM) onBlockComplete() {
	if len(vm.inFlight) == 0 || vm.gone() {
		return
	}
	// Complete the oldest outstanding ref (FIFO device).
	ref := -1
	for r := range vm.inFlight {
		if ref < 0 || r < ref {
			ref = r
		}
	}
	frame := vm.inFlight[ref]
	delete(vm.inFlight, ref)
	vm.W.call(vm.Cfg.CPU, hypercall.OpGrantTableOp, vm.Cfg.Dom,
		[4]uint64{hypercall.GrantUnmap, uint64(ref), uint64(frame)})
	vm.revokeBuffer(ref)
	if vm.Files != nil {
		id := vm.Files.WriteNext()
		// The remove phase: keep a bounded working set of files.
		if vm.Files.Len() > 24 {
			vm.Files.Remove(id - 24)
		}
	}
	vm.OpsCompleted++
	vm.OpsAfterMark++
}

// grantBuffer publishes frame through a free grant reference (a
// guest-side write to the domain's own grant table) and returns the ref,
// or -1 if the domain is gone or the table is full.
func (vm *AppVM) grantBuffer(frame int) int {
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	if err != nil {
		return -1
	}
	for tries := 0; tries < d.GrantTab.Len(); tries++ {
		ref := vm.nextRef % d.GrantTab.Len()
		vm.nextRef++
		if e, err := d.GrantTab.Entry(ref); err == nil && !e.InUse {
			if d.GrantTab.Grant(ref, frame, false) == nil {
				return ref
			}
		}
	}
	return -1
}

// revokeBuffer withdraws the grant once the backend unmapped it.
func (vm *AppVM) revokeBuffer(ref int) {
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	if err != nil {
		return
	}
	// Busy revokes are left for a later pass (the unmap hypercall may
	// have been interrupted by recovery and not yet retried).
	_ = d.GrantTab.Revoke(ref)
}

// --- UnixBench --------------------------------------------------------------

// unixIteration models one slice of the UnixBench subset: virtual-memory
// management (batched page-table pins/unpins), forwarded syscalls,
// reservation changes, scheduling, and occasional console output — the
// hypercall mix the paper selected the programs for ("stress the
// hypervisor's handling of hypercalls, especially those related to
// virtual memory management").
func (vm *AppVM) unixIteration() {
	cpu, domID := vm.Cfg.CPU, vm.Cfg.Dom
	w := vm.W

	// fork: pin the new process's page tables in one batched hypercall.
	// The frame picks must be distinct within the batch: the counts only
	// change when the batch executes.
	batch := w.getBatch()
	batch.Op, batch.Dom = hypercall.OpMulticall, domID
	n := 2 + vm.rng.IntN(4)
	newPins := vm.pinScratch[:0]
	for i := 0; i < n; i++ {
		frame := vm.pickGuestFrameExcluding(newPins)
		newPins = append(newPins, frame)
		c := w.getCall()
		c.Op, c.Dom = hypercall.OpMMUUpdate, domID
		c.Args = [4]uint64{hypercall.MMUPin, uint64(frame)}
		batch.Batch = append(batch.Batch, c)
	}
	vm.pinScratch = newPins
	w.putBatch(batch, w.H.Dispatch(cpu, batch))
	if vm.gone() {
		return
	}
	// Record the pins that actually took effect by inspecting the
	// guest's own page tables (not recovery bookkeeping, which stock Xen
	// lacks); they become the new process's address space, appended
	// straight into the (pooled) process record.
	p := vm.procs.fork()
	for _, f := range newPins {
		if vm.W.H.Frames.At(f).Validated {
			p.PageTables = append(p.PageTables, f)
		}
	}
	p.doneFill()

	// The running processes issue system calls (x86-64 forwarded path).
	for i := 0; i < 2+vm.rng.IntN(5); i++ {
		w.call(cpu, hypercall.OpSyscallForward, domID, [4]uint64{})
		if vm.gone() {
			return
		}
	}

	// exit: the oldest process dies and its page tables are unpinned.
	// Each frame leaves the process's list before its unpin is issued,
	// so an iteration aborted by recovery never re-unpins.
	for vm.procs.count() > 8 {
		p := vm.procs.oldest()
		for len(p.PageTables) > 0 {
			frame := p.PageTables[0]
			p.PageTables = p.PageTables[1:]
			w.call(cpu, hypercall.OpMMUUpdate, domID,
				[4]uint64{hypercall.MMUUnpin, uint64(frame)})
			if vm.gone() {
				return
			}
		}
		vm.procs.reap()
	}

	// Reservation adjustments (balloon-ish) ~20% of iterations.
	if vm.rng.IntN(5) == 0 {
		if vm.reserved > 0 {
			w.call(cpu, hypercall.OpMemoryOp, domID,
				[4]uint64{hypercall.MemRelease, uint64(vm.reserved)})
			vm.reserved = 0
		} else {
			k := 4 + vm.rng.IntN(8)
			w.call(cpu, hypercall.OpMemoryOp, domID,
				[4]uint64{hypercall.MemPopulate, uint64(k)})
			vm.reserved = k
		}
		if vm.gone() {
			return
		}
	}

	// Scheduling: yield; occasionally a timed block (sleep).
	switch vm.rng.IntN(20) {
	case 0:
		w.call(cpu, hypercall.OpSetTimerOp, domID,
			[4]uint64{0, uint64(2 * time.Millisecond)})
		if vm.gone() {
			return
		}
		w.call(cpu, hypercall.OpSchedOp, domID, [4]uint64{hypercall.SchedBlock})
	case 1, 2:
		w.call(cpu, hypercall.OpSchedOp, domID, [4]uint64{hypercall.SchedYield})
	}
	if vm.gone() {
		return
	}

	// Console output, rare.
	if vm.rng.IntN(50) == 0 {
		w.call(cpu, hypercall.OpConsoleIO, domID, [4]uint64{})
		if vm.gone() {
			return
		}
	}

	vm.OpsCompleted++
	vm.OpsAfterMark++
}

// --- NetBench ---------------------------------------------------------------

// onNetPacket handles one inbound UDP packet: the receiver process wakes,
// the netfront/netback path signals over an event channel, and the reply
// goes back out the NIC.
func (vm *AppVM) onNetPacket(p hw.Packet) {
	if vm.gone() || vm.Finished {
		return
	}
	vm.W.call(vm.Cfg.CPU, hypercall.OpEventChannelOp, vm.Cfg.Dom,
		[4]uint64{0, 0, uint64(vm.ringPort())})
	if vm.gone() {
		return
	}
	// Netfront recycles its RX buffer grants; every few packets a buffer
	// rotates out and the grant is remapped.
	if vm.OpsCompleted%8 == 7 {
		frame := vm.pickGuestFrame()
		ref := vm.grantBuffer(frame)
		if ref < 0 {
			return
		}
		vm.W.call(vm.Cfg.CPU, hypercall.OpGrantTableOp, vm.Cfg.Dom,
			[4]uint64{hypercall.GrantMap, uint64(ref), uint64(frame)})
		if vm.gone() {
			return
		}
		vm.W.call(vm.Cfg.CPU, hypercall.OpGrantTableOp, vm.Cfg.Dom,
			[4]uint64{hypercall.GrantUnmap, uint64(ref), uint64(frame)})
		if vm.gone() {
			return
		}
		vm.revokeBuffer(ref)
	}
	vm.W.H.Machine.NIC().Transmit(hw.Packet{Flow: p.Flow, Seq: p.Seq, SentAt: p.SentAt})
	vm.OpsCompleted++
	vm.OpsAfterMark++
	if vm.W.H.Clock.Now() >= vm.finishAt {
		vm.Finished = true
	}
}

// pickGuestFrame picks a random frame in the domain's memory range that
// is not currently referenced.
func (vm *AppVM) pickGuestFrame() int {
	return vm.pickGuestFrameExcluding(nil)
}

// pickGuestFrameExcluding picks an unreferenced frame not in the
// exclusion list (frames already chosen for the same batch). The list is
// a slice, not a set: batches are a handful of frames, and a linear scan
// beats allocating a map every iteration.
func (vm *AppVM) pickGuestFrameExcluding(exclude []int) int {
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	if err != nil {
		return 0
	}
	for tries := 0; tries < 64; tries++ {
		f := d.MemStart + vm.rng.IntN(d.MemCount)
		if vm.W.H.Frames.At(f).UseCount == 0 && !containsFrame(exclude, f) {
			return f
		}
	}
	return d.MemStart
}

func containsFrame(frames []int, f int) bool {
	for _, x := range frames {
		if x == f {
			return true
		}
	}
	return false
}

// ringPort returns the domain's I/O ring notification port.
func (vm *AppVM) ringPort() int {
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	if err != nil {
		return 0
	}
	return d.RingPort
}

// gone reports whether further guest activity is impossible (domain or
// hypervisor dead, or recovery pause started mid-iteration). It runs
// after every dispatch in an iteration, so it queries the domain
// directly rather than building a snapshot.
func (vm *AppVM) gone() bool {
	if failed, _ := vm.W.H.Failed(); failed {
		return true
	}
	if vm.W.H.Paused() {
		return true
	}
	d, err := vm.W.H.Domain(vm.Cfg.Dom)
	return err != nil || d.Failed
}

// hvmUnixIteration is the UnixBench slice for an HVM guest (§VI-A): the
// same memory-management pressure arrives as EPT-violation VM exits, and
// device accesses as emulated I/O, while scheduling and reservation
// hypercalls remain (PVHVM).
func (vm *AppVM) hvmUnixIteration() {
	cpu, domID := vm.Cfg.CPU, vm.Cfg.Dom
	w := vm.W

	// fork: the new process's working set faults in as EPT violations.
	// The frames that actually mapped accumulate in a scratch slice — the
	// process record is only registered once the fault loop completes, so
	// an iteration aborted by recovery leaves no half-forked process.
	n := 2 + vm.rng.IntN(4)
	chosen := vm.pinScratch[:0]
	got := vm.gotScratch[:0]
	for i := 0; i < n; i++ {
		frame := vm.pickGuestFrameExcluding(chosen)
		chosen = append(chosen, frame)
		vm.pinScratch = chosen
		w.call(cpu, hypercall.OpEPTViolation, domID,
			[4]uint64{hypercall.EPTPopulate, uint64(frame)})
		if vm.gone() {
			vm.gotScratch = got
			return
		}
		if vm.W.H.Frames.At(frame).Validated {
			got = append(got, frame)
		}
	}
	vm.gotScratch = got
	p := vm.procs.fork()
	p.PageTables = append(p.PageTables, got...)
	p.doneFill()

	// Emulated device accesses.
	for i := 0; i < 2+vm.rng.IntN(5); i++ {
		w.call(cpu, hypercall.OpIOEmulation, domID, [4]uint64{})
		if vm.gone() {
			return
		}
	}

	// exit: EPT teardown for the oldest process, trimming the list as
	// each unmap is issued (an aborted exit never re-unmaps).
	for vm.procs.count() > 8 {
		p := vm.procs.oldest()
		for len(p.PageTables) > 0 {
			frame := p.PageTables[0]
			p.PageTables = p.PageTables[1:]
			w.call(cpu, hypercall.OpEPTViolation, domID,
				[4]uint64{hypercall.EPTUnmap, uint64(frame)})
			if vm.gone() {
				return
			}
		}
		vm.procs.reap()
	}

	// Reservation adjustments (PVHVM balloon) ~20% of iterations.
	if vm.rng.IntN(5) == 0 {
		if vm.reserved > 0 {
			w.call(cpu, hypercall.OpMemoryOp, domID,
				[4]uint64{hypercall.MemRelease, uint64(vm.reserved)})
			vm.reserved = 0
		} else {
			k := 4 + vm.rng.IntN(8)
			w.call(cpu, hypercall.OpMemoryOp, domID,
				[4]uint64{hypercall.MemPopulate, uint64(k)})
			vm.reserved = k
		}
		if vm.gone() {
			return
		}
	}

	// HLT exits / yields.
	switch vm.rng.IntN(20) {
	case 0:
		w.call(cpu, hypercall.OpSetTimerOp, domID,
			[4]uint64{0, uint64(2 * time.Millisecond)})
		if vm.gone() {
			return
		}
		w.call(cpu, hypercall.OpSchedOp, domID, [4]uint64{hypercall.SchedBlock})
	case 1, 2:
		w.call(cpu, hypercall.OpSchedOp, domID, [4]uint64{hypercall.SchedYield})
	}
	if vm.gone() {
		return
	}

	vm.OpsCompleted++
	vm.OpsAfterMark++
}
