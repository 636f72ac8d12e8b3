package hypercall

import (
	"fmt"
	"time"

	"nilihype/internal/evtchn"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/xentime"
)

// Build constructs the handler program for a call. Programs are built at
// dispatch time (and again at retry time), so a retried multicall skips
// already-completed components via the completion log.
//
// Each op's step sequence is a static template of shared step functions;
// Build stamps a copy into the Env's reusable buffer, binding each step to
// its call. Dispatch therefore costs one buffer append instead of a fresh
// slice plus a closure per step — the difference is most of the campaign
// executor's allocation profile.
//
// Step instruction weights are calibrated: together with the workload mix
// they determine what fraction of hypervisor execution holds locks, is
// mid-non-idempotent-update, is inside the scheduler, etc. — the occupancy
// fractions that the paper's Table I recovery ladder reflects.
func Build(env *Env, call *Call) (Program, error) {
	buf, err := appendCall(env.progBuf[:0], env, call)
	if err != nil {
		return nil, err
	}
	env.progBuf = buf
	return buf, nil
}

// appendCall appends call's program steps to buf.
func appendCall(buf Program, env *Env, call *Call) (Program, error) {
	if call.Op == OpMulticall {
		return appendMulticall(buf, env, call)
	}
	tmpl, err := templateFor(call)
	if err != nil {
		return nil, err
	}
	return stampSteps(buf, tmpl, call), nil
}

// stampSteps appends the template's steps bound to c.
func stampSteps(buf Program, tmpl []Step, c *Call) Program {
	n := len(buf)
	buf = append(buf, tmpl...)
	for i := n; i < len(buf); i++ {
		buf[i].C = c
	}
	return buf
}

// templateFor selects the static step template for a non-multicall op.
func templateFor(call *Call) ([]Step, error) {
	switch call.Op {
	case OpMMUUpdate:
		if call.Args[SubOpArg] == MMUPin {
			return mmuPinTmpl, nil
		}
		return mmuUnpinTmpl, nil
	case OpMemoryOp:
		return memoryOpTmpl, nil
	case OpGrantTableOp:
		if call.Args[SubOpArg] == GrantMap {
			return grantMapTmpl, nil
		}
		return grantUnmapTmpl, nil
	case OpEventChannelOp:
		return evtchnTmpl, nil
	case OpSchedOp:
		return schedOpTmpl, nil
	case OpSetTimerOp:
		return setTimerTmpl, nil
	case OpConsoleIO:
		return consoleIOTmpl, nil
	case OpVCPUOp:
		return vcpuOpTmpl, nil
	case OpDomctl:
		if call.Args[SubOpArg] == DomctlCreate {
			return domctlCreateTmpl, nil
		}
		return domctlDestroyTmpl, nil
	case OpSyscallForward:
		return syscallForwardTmpl, nil
	case OpEPTViolation:
		if call.Args[SubOpArg] == EPTPopulate {
			return eptPopulateTmpl, nil
		}
		return eptUnmapTmpl, nil
	case OpIOEmulation:
		return ioEmulationTmpl, nil
	default:
		return nil, fmt.Errorf("hypercall: unknown op %v", call.Op)
	}
}

// assertf returns an assertion-failure error (hypervisor ASSERT).
func assertf(format string, args ...any) error {
	return fmt.Errorf("ASSERT: "+format, args...)
}

// doNop is the shared body of pure-cost steps.
func doNop(*Env, *Step) error { return nil }

// doTargetDomainCheck walks the caller's domain structure.
func doTargetDomainCheck(e *Env, st *Step) error {
	_, err := e.targetDomain(st.C.Dom)
	return err
}

// --- mmu_update -------------------------------------------------------------

// mmuPinTmpl/mmuUnpinTmpl model page-table pin/unpin: the canonical
// non-idempotent hypercall. The reference count and the validation bit are
// updated in separate steps; re-executing the count update after a partial
// run trips the validation assertion — exactly the paper's §IV example.
var mmuPinTmpl = []Step{
	{Name: "entry", Instrs: 150, Do: doNop},
	{Name: "lock_page_alloc", Instrs: 40, Do: doLockPageAlloc},
	{Name: "inc_refcount", Instrs: 60, Do: doMMUIncRef},
	{Name: "write_pte", Instrs: 120, Do: doNop},
	{Name: "validate", Instrs: 80, Do: doMMUValidate},
	{Name: "window", Instrs: 38, Unmitigated: true, Do: doNop},
	{Name: "unlock_page_alloc", Instrs: 30, Do: doUnlockPageAlloc},
	{Name: "complete", Instrs: 20, Do: doNop},
}

var mmuUnpinTmpl = []Step{
	{Name: "entry", Instrs: 150, Do: doNop},
	{Name: "lock_page_alloc", Instrs: 40, Do: doLockPageAlloc},
	{Name: "clear_validated", Instrs: 50, Do: doMMUClearValidated},
	{Name: "dec_refcount", Instrs: 60, Do: doMMUDecRef},
	{Name: "window", Instrs: 38, Unmitigated: true, Do: doNop},
	{Name: "unlock_page_alloc", Instrs: 30, Do: doUnlockPageAlloc},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func mmuFrame(e *Env, c *Call) (*mm.PageFrame, error) {
	frame := int(c.Args[1])
	if frame < 0 || frame >= e.Frames.Len() {
		return nil, assertf("mmu_update: bad frame %d", frame)
	}
	return e.Frames.Frame(frame), nil
}

func doLockPageAlloc(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	return e.Acquire(dm.PageAllocLock)
}

func doUnlockPageAlloc(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	e.Release(dm.PageAllocLock)
	return nil
}

func doMMUIncRef(e *Env, st *Step) error {
	f, err := mmuFrame(e, st.C)
	if err != nil {
		return err
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "mmu_pin: undo inc_refcount", Kind: UndoFrameUseDelta, Frame: f, Arg: -1})
	f.Type = mm.FramePageTable
	f.IncUse()
	return nil
}

func doMMUValidate(e *Env, st *Step) error {
	f, err := mmuFrame(e, st.C)
	if err != nil {
		return err
	}
	if f.UseCount != 1 {
		return assertf("mmu_pin: refcount %d on validate (retry of partial hypercall?)", f.UseCount)
	}
	// The validation bit itself is not logged: a rollback that leaves it
	// stale is exactly the inconsistency the recovery-time page-frame
	// scan repairs.
	f.Validated = true
	return nil
}

func doMMUClearValidated(e *Env, st *Step) error {
	f, err := mmuFrame(e, st.C)
	if err != nil {
		return err
	}
	if !f.Validated {
		return assertf("mmu_unpin: frame %d not validated (retry of partial hypercall?)", int(st.C.Args[1]))
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "mmu_unpin: undo clear_validated", Kind: UndoFrameRevalidate, Frame: f})
	f.Validated = false
	return nil
}

func doMMUDecRef(e *Env, st *Step) error {
	f, err := mmuFrame(e, st.C)
	if err != nil {
		return err
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "mmu_unpin: undo dec_refcount", Kind: UndoFrameUseDelta, Frame: f, Arg: 1})
	if err := f.DecUse(); err != nil {
		return assertf("mmu_unpin: %w", err)
	}
	if f.UseCount == 0 {
		f.Type = mm.FrameGuest
	}
	return nil
}

// --- memory_op --------------------------------------------------------------

// memoryOpTmpl models increase/decrease reservation: adjusts the domain's
// page accounting under the static heap lock. Non-idempotent via TotPages.
var memoryOpTmpl = []Step{
	{Name: "entry", Instrs: 120, Do: doNop},
	{Name: "lock_heap", Instrs: 40, Do: doLockHeap},
	{Name: "adjust_tot_pages", Instrs: 110, Do: doAdjustTotPages},
	{Name: "update_heap", Instrs: 260, Do: doHeapCheck},
	{Name: "window", Instrs: 32, Unmitigated: true, Do: doNop},
	{Name: "unlock_heap", Instrs: 30, Do: doUnlockHeap},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func doLockHeap(e *Env, st *Step) error { return e.Acquire(e.Statics.HeapLock) }

func doUnlockHeap(e *Env, st *Step) error {
	e.Release(e.Statics.HeapLock)
	return nil
}

func doHeapCheck(e *Env, st *Step) error { return e.Heap.Check() }

func doAdjustTotPages(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	delta := int(int64(st.C.Args[1]))
	if st.C.Args[SubOpArg] == MemRelease {
		delta = -delta
	}
	e.logWriteRecord(LogCostMemory, UndoRecord{Desc: "memory_op: undo tot_pages", Kind: UndoTotPagesDelta, Dom: dm, Arg: -delta})
	dm.TotPages += delta
	if dm.TotPages < 0 || dm.TotPages > dm.MemCount {
		return assertf("memory_op: tot_pages %d out of [0,%d] for d%d (retry of partial hypercall?)",
			dm.TotPages, dm.MemCount, dm.ID)
	}
	return nil
}

// --- grant_table_op ---------------------------------------------------------

// grantMapTmpl/grantUnmapTmpl model grant map/unmap: the block I/O path's
// mechanism for sharing pages, again with a non-idempotent map count.
var grantMapTmpl = []Step{
	{Name: "entry", Instrs: 130, Do: doNop},
	{Name: "lock_grant", Instrs: 40, Do: doLockGrant},
	{Name: "map_track", Instrs: 50, Do: doGrantMapTrack},
	{Name: "inc_mapcount", Instrs: 50, Do: doGrantIncMap},
	{Name: "unlock_grant", Instrs: 30, Do: doUnlockGrant},
	{Name: "complete", Instrs: 20, Do: doNop},
}

var grantUnmapTmpl = []Step{
	{Name: "entry", Instrs: 130, Do: doNop},
	{Name: "lock_grant", Instrs: 40, Do: doLockGrant},
	{Name: "unmap_track", Instrs: 50, Do: doGrantUnmapTrack},
	{Name: "dec_mapcount", Instrs: 50, Do: doGrantDecMap},
	{Name: "window", Instrs: 44, Unmitigated: true, Do: doNop},
	{Name: "unlock_grant", Instrs: 30, Do: doUnlockGrant},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func doLockGrant(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	return e.Acquire(dm.GrantLock)
}

func doUnlockGrant(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	e.Release(dm.GrantLock)
	return nil
}

func doGrantMapTrack(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	ref := int(st.C.Args[1])
	frame := int(st.C.Args[2])
	en, err := dm.GrantTab.Entry(ref)
	if err != nil {
		return assertf("grant_map: %w", err)
	}
	if !en.InUse || en.Frame != frame {
		return assertf("grant_map: ref %d not granted for frame %d in d%d", ref, frame, dm.ID)
	}
	// The I/O rings map each granted buffer exactly once; a second
	// mapping is the §IV signature of a retried partial hypercall.
	if en.MapCount != 0 {
		return assertf("grant_map: ref %d already mapped in d%d (retry of partial hypercall?)", ref, dm.ID)
	}
	h, _, err := dm.Maptrack.Map(dm.GrantTab, ref)
	if err != nil {
		return assertf("grant_map: %w", err)
	}
	e.logWriteRecord(LogCostGrant, UndoRecord{Desc: "grant_map: undo map_track", Kind: UndoMaptrackUnmap, Dom: dm, Arg: int(h)})
	return nil
}

func doGrantIncMap(e *Env, st *Step) error {
	frame := int(st.C.Args[2])
	if frame < 0 || frame >= e.Frames.Len() {
		return assertf("grant_map: bad frame %d", frame)
	}
	f := e.Frames.Frame(frame)
	e.logWriteRecord(LogCostGrant, UndoRecord{Desc: "grant_map: undo inc_mapcount", Kind: UndoFrameUseDelta, Frame: f, Arg: -1})
	f.IncUse()
	return nil
}

func doGrantUnmapTrack(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	ref := int(st.C.Args[1])
	h := dm.Maptrack.HandleForRef(dm.ID, ref)
	if h < 0 {
		return assertf("grant_unmap: ref %d not mapped in d%d (retry of partial hypercall?)", ref, dm.ID)
	}
	mp, err := dm.Maptrack.Unmap(h, dm.GrantTab)
	if err != nil {
		return assertf("grant_unmap: %w", err)
	}
	e.logWriteRecord(LogCostGrant, UndoRecord{Desc: "grant_unmap: undo unmap_track", Kind: UndoMaptrackMap, Dom: dm, Arg: mp.Ref})
	return nil
}

func doGrantDecMap(e *Env, st *Step) error {
	frame := int(st.C.Args[2])
	if frame < 0 || frame >= e.Frames.Len() {
		return assertf("grant_unmap: bad frame %d", frame)
	}
	f := e.Frames.Frame(frame)
	e.logWriteRecord(LogCostGrant, UndoRecord{Desc: "grant_unmap: undo dec_mapcount", Kind: UndoFrameUseDelta, Frame: f, Arg: 1})
	if err := f.DecUse(); err != nil {
		return assertf("grant_unmap: %w", err)
	}
	return nil
}

// --- event_channel_op -------------------------------------------------------

// evtchnTmpl models event-channel send: idempotent (the pending bit is
// level-triggered), so retry is always safe. Setting the peer's pending
// bit and delivering the upcall are separate steps (an abandoned upcall
// leaves a pending-but-sleeping vCPU; the scheduling-metadata repair
// re-enqueues it).
var evtchnTmpl = []Step{
	{Name: "entry", Instrs: 100, Do: doEvtEntry},
	{Name: "lookup_port", Instrs: 60, Do: doEvtLookup},
	{Name: "set_pending", Instrs: 40, Do: doEvtSetPending},
	{Name: "upcall", Instrs: 50, Do: doEvtUpcall},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func doEvtEntry(e *Env, st *Step) error {
	e.scr.notified, e.scr.notifiedPort, e.scr.bad = -1, -1, false
	return nil
}

func doEvtLookup(e *Env, st *Step) error {
	// The send path walks the caller's domain structure.
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	port := int(st.C.Args[2])
	if p, err := dm.Events.Port(port); err != nil || p.State == evtchn.Free || p.State == evtchn.Unbound {
		e.scr.bad = true
	}
	return nil
}

func doEvtSetPending(e *Env, st *Step) error {
	if e.scr.bad {
		return nil
	}
	port := int(st.C.Args[2])
	who, err := e.Broker.Send(st.C.Dom, port)
	if err != nil {
		return assertf("evtchn_send: %w", err)
	}
	e.scr.notified = who
	dm, err := e.targetDomain(who)
	if err != nil {
		return err
	}
	if last := dm.Events.LastPending(); last > 0 {
		e.scr.notifiedPort = last
	}
	return nil
}

func doEvtUpcall(e *Env, st *Step) error {
	if e.scr.notified < 0 {
		return nil
	}
	dm, err := e.targetDomain(e.scr.notified)
	if err != nil {
		return err
	}
	if v := dm.UpcallVCPU(); v != nil {
		e.Wake(v)
	}
	if e.Notify != nil && e.scr.notifiedPort >= 0 {
		e.Notify(e.scr.notified, e.scr.notifiedPort)
	}
	return nil
}

// --- sched_op ---------------------------------------------------------------

// schedOpTmpl models yield/block: the guest gives up the CPU and the
// scheduler context-switches. The switch is decomposed into the metadata
// steps whose windows produce the paper's scheduling inconsistencies.
var schedOpTmpl = []Step{
	{Name: "entry", Instrs: 100, Do: doSchedEntry},
	{Name: "lock_runq", Instrs: 30, Do: doSchedLockRunq},
	{Name: "update_runstate", Instrs: 60, Do: doSchedRunstate},
	{Name: "pick_next", Instrs: 90, Do: doSchedPickNext},
	{Name: "dequeue_next", Instrs: 50, Do: doSchedDequeueNext},
	{Name: "requeue_prev", Instrs: 50, Do: doSchedRequeuePrev},
	{Name: "set_curr", Instrs: 40, Do: doSchedSetCurr},
	{Name: "set_vcpu_state", Instrs: 70, Do: doSchedSetVCPU},
	{Name: "unlock_runq", Instrs: 30, Do: doSchedUnlockRunq},
	{Name: "context_restore", Instrs: 110, Do: doSchedContextRestore},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func doSchedEntry(e *Env, st *Step) error {
	e.scr.op = nil
	return nil
}

func doSchedLockRunq(e *Env, st *Step) error {
	return e.Acquire(e.Sched.RunqueueLock(e.CPU))
}

func doSchedUnlockRunq(e *Env, st *Step) error {
	e.Release(e.Sched.RunqueueLock(e.CPU))
	return nil
}

func doSchedRunstate(e *Env, st *Step) error {
	if st.C.Args[SubOpArg] == SchedBlock {
		e.Sched.Block(e.CPU)
	}
	return nil
}

func doSchedPickNext(e *Env, st *Step) error {
	e.scr.op = e.Sched.BeginSwitch(e.CPU)
	return nil
}

func doSchedDequeueNext(e *Env, st *Step) error {
	if e.scr.op != nil {
		e.scr.op.StepDequeueNext()
	}
	return nil
}

func doSchedRequeuePrev(e *Env, st *Step) error {
	if e.scr.op != nil && st.C.Args[SubOpArg] != SchedBlock {
		e.scr.op.StepRequeuePrev()
	}
	return nil
}

func doSchedSetCurr(e *Env, st *Step) error {
	if e.scr.op != nil {
		e.scr.op.StepSetCurr()
	}
	return nil
}

func doSchedSetVCPU(e *Env, st *Step) error {
	if e.scr.op != nil {
		e.scr.op.StepSetVCPU()
	}
	return nil
}

func doSchedContextRestore(e *Env, st *Step) error {
	if e.scr.op != nil && e.SwitchContext != nil {
		e.SwitchContext(e.CPU, e.scr.op.Prev(), e.scr.op.Next())
	}
	return nil
}

// --- set_timer_op -----------------------------------------------------------

// setTimerTmpl models set_timer_op: replace the vCPU's wakeup timer and
// reprogram the APIC (separate steps — the add/reprogram window).
var setTimerTmpl = []Step{
	{Name: "entry", Instrs: 100, Do: doNop},
	{Name: "stop_old_timer", Instrs: 30, Do: doStopOldTimer},
	{Name: "add_timer", Instrs: 60, Do: doAddTimer},
	{Name: "reprogram_apic", Instrs: 40, Do: doReprogramAPIC},
	{Name: "complete", Instrs: 20, Do: doNop},
}

func doStopOldTimer(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	if dm.WakeupTimer != nil {
		e.Timers.StopTimer(dm.WakeupTimer)
		dm.WakeupTimer = nil
	}
	return nil
}

func doAddTimer(e *Env, st *Step) error {
	dm, err := e.targetDomain(st.C.Dom)
	if err != nil {
		return err
	}
	delta := time.Duration(st.C.Args[1])
	t := dm.WakeupPool
	if t == nil {
		// First set_timer_op for this domain: build the record once. The
		// upcall vCPU and wake binding are domain/hypervisor-invariant
		// (vCPU identity survives snapshot restore), so the callback can
		// be captured with the record.
		var v *sched.VCPU
		if len(dm.VCPUs) > 0 {
			v = dm.VCPUs[0]
		}
		wake := e.Wake
		t = xentime.NewTimer(e.CPU, fmt.Sprintf("d%d-wakeup", st.C.Dom), func() {
			if v != nil {
				wake(v)
			}
		})
		dm.WakeupPool = t
	}
	e.Timers.Readd(t, e.CPU, e.Now()+delta, 0)
	dm.WakeupTimer = t
	return nil
}

func doReprogramAPIC(e *Env, st *Step) error {
	e.Timers.ProgramAPIC(e.CPU)
	return nil
}

// --- console_io -------------------------------------------------------------

// consoleIOTmpl models console output: the message lands in the
// hypervisor console ring under the console static lock.
var consoleIOTmpl = []Step{
	{Name: "entry", Instrs: 80, Do: doNop},
	{Name: "lock_console", Instrs: 30, Do: doLockConsole},
	{Name: "emit", Instrs: 100, Do: doConsoleEmit},
	{Name: "unlock_console", Instrs: 30, Do: doUnlockConsole},
	{Name: "complete", Instrs: 10, Do: doNop},
}

func doLockConsole(e *Env, st *Step) error { return e.Acquire(e.Statics.Console) }

func doUnlockConsole(e *Env, st *Step) error {
	e.Release(e.Statics.Console)
	return nil
}

func doConsoleEmit(e *Env, st *Step) error {
	if e.ConsoleEmit != nil {
		e.ConsoleEmit(st.C.Dom, st.C.Seq)
	}
	return nil
}

// --- vcpu_op ----------------------------------------------------------------

// vcpuOpTmpl models lightweight vCPU state queries (idempotent).
var vcpuOpTmpl = []Step{
	{Name: "entry", Instrs: 80, Do: doNop},
	{Name: "read_state", Instrs: 60, Do: doTargetDomainCheck},
	{Name: "complete", Instrs: 20, Do: doNop},
}

// --- multicall --------------------------------------------------------------

// appendMulticall flattens the batch's component programs, inserting a
// completion-log step after each component. Components already marked
// complete (retry of a partial batch) are skipped — the fine-granularity
// logCompletionLabels covers every batch size the workload generates;
// multicall programs are rebuilt on each dispatch and retry, so the
// common labels must not be re-formatted every time.
var logCompletionLabels = [...]string{
	"log_completion[0]", "log_completion[1]", "log_completion[2]",
	"log_completion[3]", "log_completion[4]", "log_completion[5]",
	"log_completion[6]", "log_completion[7]", "log_completion[8]",
	"log_completion[9]", "log_completion[10]", "log_completion[11]",
	"log_completion[12]", "log_completion[13]", "log_completion[14]",
	"log_completion[15]",
}

func logCompletionLabel(i int) string {
	if i >= 0 && i < len(logCompletionLabels) {
		return logCompletionLabels[i]
	}
	return fmt.Sprintf("log_completion[%d]", i)
}

// batched-retry enhancement of §IV.
func appendMulticall(buf Program, env *Env, call *Call) (Program, error) {
	buf = append(buf, Step{Name: "multicall_entry", Instrs: 60, C: call, Do: doNop})
	for i := call.Completed; i < len(call.Batch); i++ {
		var err error
		buf, err = appendCall(buf, env, call.Batch[i])
		if err != nil {
			return nil, err
		}
		if env.RecoveryPrep {
			// Completion logging is recovery machinery (§IV): stock Xen
			// does not track per-component completion.
			buf = append(buf, Step{Name: logCompletionLabel(i), Instrs: 15, C: call, Do: doLogCompletion})
		}
	}
	buf = append(buf, Step{Name: "multicall_exit", Instrs: 30, C: call, Do: doNop})
	return buf, nil
}

func doLogCompletion(e *Env, st *Step) error {
	st.C.Completed++
	// Commit: a completed component is never rolled back or re-executed,
	// so its undo records are discarded here, not at batch completion.
	e.Undo.Clear()
	return nil
}

// --- domctl -----------------------------------------------------------------

// domctlCreateTmpl/domctlDestroyTmpl model PrivVM management operations:
// domain creation and destruction. Creation inserts into the global domain
// list — a logged critical write, since a retried partial create would
// double-insert.
var domctlCreateTmpl = []Step{
	{Name: "entry", Instrs: 200, Do: doDomctlEntry},
	{Name: "lock_domlist", Instrs: 40, Do: doLockDomList},
	{Name: "check_exists", Instrs: 60, Do: doDomctlCheckExists},
	{Name: "alloc_and_insert", Instrs: 350, Do: doDomctlInsert},
	{Name: "window", Instrs: 30, Unmitigated: true, Do: doNop},
	{Name: "unlock_domlist", Instrs: 30, Do: doUnlockDomList},
	{Name: "complete", Instrs: 40, Do: doNop},
}

var domctlDestroyTmpl = []Step{
	{Name: "entry", Instrs: 150, Do: doNop},
	{Name: "lock_domlist", Instrs: 40, Do: doLockDomList},
	{Name: "unlink_and_free", Instrs: 300, Do: doDomctlDestroy},
	{Name: "unlock_domlist", Instrs: 30, Do: doUnlockDomList},
	{Name: "complete", Instrs: 40, Do: doNop},
}

func doLockDomList(e *Env, st *Step) error { return e.Acquire(e.Statics.DomList) }

func doUnlockDomList(e *Env, st *Step) error {
	e.Release(e.Statics.DomList)
	return nil
}

func doDomctlEntry(e *Env, st *Step) error {
	e.scr.created = false
	if st.C.Create == nil {
		return assertf("domctl_create: nil spec")
	}
	return nil
}

func doDomctlCheckExists(e *Env, st *Step) error {
	if err := e.Domains.CheckLinks(); err != nil {
		return assertf("domctl_create: %w", err)
	}
	if _, err := e.Domains.ByID(st.C.Create.ID); err == nil {
		if e.scr.created {
			return nil // our own retry already created it
		}
		return assertf("domctl_create: domain %d already exists", st.C.Create.ID)
	}
	return nil
}

func doDomctlInsert(e *Env, st *Step) error {
	if e.scr.created {
		return nil
	}
	spec := st.C.Create
	e.logWriteRecord(LogCostDomctl, UndoRecord{Desc: "domctl_create: undo insert", Kind: UndoDomctlCreate, Env: e, Arg: spec.ID})
	if err := e.CreateDomain(*spec); err != nil {
		return assertf("domctl_create: %w", err)
	}
	e.scr.created = true
	return nil
}

func doDomctlDestroy(e *Env, st *Step) error {
	target := int(st.C.Args[1])
	if _, err := e.Domains.ByID(target); err != nil {
		return assertf("domctl_destroy: %w", err)
	}
	return e.DestroyDomain(target)
}

// --- syscall_forward --------------------------------------------------------

// syscallForwardTmpl models the x86-64 syscall path: system calls from
// guest processes trap into the hypervisor, which forwards them to the
// guest kernel (§IV "Syscall retry"). No locks, no critical writes —
// but a fault mid-forward loses the syscall unless it is retried.
var syscallForwardTmpl = []Step{
	{Name: "entry", Instrs: 90, Do: doNop},
	{Name: "forward", Instrs: 120, Do: doTargetDomainCheck},
	{Name: "complete", Instrs: 20, Do: doNop},
}

// --- ept_violation ----------------------------------------------------------

// eptPopulateTmpl/eptUnmapTmpl model an HVM nested-paging fault (§VI-A):
// populate or tear down an EPT mapping. Structurally the pin/unpin twin of
// mmu_update — a mapping count plus a present bit updated in separate
// steps — which is why the paper found HVM and PV injection results "very
// similar": the hazards are the same.
var eptPopulateTmpl = []Step{
	{Name: "vmexit_entry", Instrs: 180, Do: doNop},
	{Name: "lock_p2m", Instrs: 40, Do: doLockPageAlloc},
	{Name: "inc_mapcount", Instrs: 60, Do: doEPTIncMap},
	{Name: "write_ept_entry", Instrs: 110, Do: doNop},
	{Name: "set_present", Instrs: 70, Do: doEPTSetPresent},
	{Name: "window", Instrs: 34, Unmitigated: true, Do: doNop},
	{Name: "unlock_p2m", Instrs: 30, Do: doUnlockPageAlloc},
	{Name: "vmenter", Instrs: 120, Do: doNop},
}

var eptUnmapTmpl = []Step{
	{Name: "vmexit_entry", Instrs: 180, Do: doNop},
	{Name: "lock_p2m", Instrs: 40, Do: doLockPageAlloc},
	{Name: "clear_present", Instrs: 50, Do: doEPTClearPresent},
	{Name: "dec_mapcount", Instrs: 60, Do: doEPTDecMap},
	{Name: "window", Instrs: 34, Unmitigated: true, Do: doNop},
	{Name: "unlock_p2m", Instrs: 30, Do: doUnlockPageAlloc},
	{Name: "vmenter", Instrs: 120, Do: doNop},
}

func eptFrame(e *Env, c *Call) (*mm.PageFrame, error) {
	frame := int(c.Args[1])
	if frame < 0 || frame >= e.Frames.Len() {
		return nil, assertf("ept_violation: bad frame %d", frame)
	}
	return e.Frames.Frame(frame), nil
}

func doEPTIncMap(e *Env, st *Step) error {
	f, err := eptFrame(e, st.C)
	if err != nil {
		return err
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "ept_populate: undo inc_mapcount", Kind: UndoFrameUseDelta, Frame: f, Arg: -1})
	f.Type = mm.FramePageTable
	f.IncUse()
	return nil
}

func doEPTSetPresent(e *Env, st *Step) error {
	f, err := eptFrame(e, st.C)
	if err != nil {
		return err
	}
	if f.UseCount != 1 {
		return assertf("ept_populate: mapcount %d on set_present (retry of partial exit?)", f.UseCount)
	}
	f.Validated = true
	return nil
}

func doEPTClearPresent(e *Env, st *Step) error {
	f, err := eptFrame(e, st.C)
	if err != nil {
		return err
	}
	if !f.Validated {
		return assertf("ept_unmap: frame %d not present (retry of partial exit?)", int(st.C.Args[1]))
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "ept_unmap: undo clear_present", Kind: UndoFrameRevalidate, Frame: f})
	f.Validated = false
	return nil
}

func doEPTDecMap(e *Env, st *Step) error {
	f, err := eptFrame(e, st.C)
	if err != nil {
		return err
	}
	e.logWriteRecord(LogCostMMU, UndoRecord{Desc: "ept_unmap: undo dec_mapcount", Kind: UndoFrameUseDelta, Frame: f, Arg: 1})
	if err := f.DecUse(); err != nil {
		return assertf("ept_unmap: %w", err)
	}
	if f.UseCount == 0 {
		f.Type = mm.FrameGuest
	}
	return nil
}

// --- io_emulation -----------------------------------------------------------

// ioEmulationTmpl models an emulated device access by an HVM guest:
// decode the instruction, emulate the device register, re-enter. No
// locks, no critical writes — the exit is simply re-executed after
// recovery.
var ioEmulationTmpl = []Step{
	{Name: "vmexit_entry", Instrs: 180, Do: doNop},
	{Name: "decode", Instrs: 140, Do: doTargetDomainCheck},
	{Name: "emulate", Instrs: 160, Do: doNop},
	{Name: "vmenter", Instrs: 120, Do: doNop},
}
