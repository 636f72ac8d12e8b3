package hypercall

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/xentime"
)

// nullAPIC satisfies xentime.Programmer.
type nullAPIC struct{}

func (nullAPIC) ArmTimer(int, time.Duration) {}
func (nullAPIC) DisarmTimer(int)             {}

// fixture is a miniature hypervisor state for handler tests.
type fixture struct {
	env    *Env
	locks  *locking.Registry
	frames *mm.FrameTable
	heap   *mm.Heap
	sch    *sched.Scheduler
	doms   *dom.List
	broker *evtchn.Broker
	d0     *dom.Domain
	d1     *dom.Domain
	woken  []*sched.VCPU
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{}
	fx.locks = locking.NewRegistry()
	fx.frames = mm.NewFrameTable(512)
	fx.heap = mm.NewHeap(fx.frames, fx.locks, 0, 128)
	fx.sch = sched.NewScheduler(2, fx.locks)
	fx.doms = dom.NewList()
	statics := NewStatics(fx.locks)

	// Domain 1 with one vCPU on cpu0 and frames [128,256).
	obj := fx.heap.Alloc(2, "domain1")
	fx.d1 = &dom.Domain{
		ID: 1, Name: "app1", MemStart: 128, MemCount: 128,
		Obj: obj, Events: evtchn.NewTable(1, 16),
		GrantTab: grant.NewTable(1, 16), Maptrack: grant.NewMaptrack(1),
	}
	fx.d1.TotPages = 64
	fx.d1.PageAllocLock = fx.heap.AddLock(obj, "page_alloc_lock")
	fx.d1.GrantLock = fx.heap.AddLock(obj, "grant_lock")
	fx.d1.VCPUs = append(fx.d1.VCPUs, fx.sch.AddVCPU(1, 0, 0))
	fx.doms.Insert(fx.d1)
	fx.broker = evtchn.NewBroker()
	fx.broker.Register(fx.d1.Events)
	// A dom0-style peer so inter-domain sends have a destination.
	fx.d0 = &dom.Domain{ID: 0, Name: "priv", IsPriv: true,
		Events:   evtchn.NewTable(0, 16),
		GrantTab: grant.NewTable(0, 16), Maptrack: grant.NewMaptrack(0)}
	fx.doms.Insert(fx.d0)
	fx.broker.Register(fx.d0.Events)
	back, err := fx.d0.Events.AllocUnbound(1)
	if err != nil {
		t.Fatal(err)
	}
	fx.d1.RingPort, err = fx.broker.BindInterdomain(1, 0, back)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.frames.AssignRange(128, 128, 1, mm.FrameGuest); err != nil {
		t.Fatal(err)
	}

	fx.env = &Env{
		CPU:            0,
		Frames:         fx.frames,
		Heap:           fx.heap,
		Sched:          fx.sch,
		Timers:         xentime.NewSubsystem(2, nullAPIC{}),
		Domains:        fx.doms,
		Broker:         fx.broker,
		Statics:        statics,
		RNG:            rand.New(rand.NewPCG(1, 2)),
		Now:            func() time.Duration { return 0 },
		Wake:           func(v *sched.VCPU) { fx.woken = append(fx.woken, v); fx.sch.Wake(v) },
		Undo:           NewUndoLog(),
		LoggingEnabled: true,
		RecoveryPrep:   true,
	}
	fx.env.CreateDomain = func(spec CreateSpec) error {
		fx.doms.Insert(&dom.Domain{ID: spec.ID, Name: spec.Name,
			GrantTab: grant.NewTable(spec.ID, 16), Maptrack: grant.NewMaptrack(spec.ID)})
		return nil
	}
	fx.env.DestroyDomain = func(id int) error {
		d, err := fx.doms.ByID(id)
		if err != nil {
			return err
		}
		fx.doms.Remove(d)
		return nil
	}
	return fx
}

// runAll executes a full program, failing the test on any step error.
func (fx *fixture) runAll(t *testing.T, call *Call) {
	t.Helper()
	if err := fx.run(call, -1); err != nil {
		t.Fatalf("program failed: %v", err)
	}
}

// run executes the program, stopping (abandoning) after step stopAfter if
// stopAfter >= 0. Returns the first step error.
func (fx *fixture) run(call *Call, stopAfter int) error {
	fx.env.Call = call
	fx.env.ResetProgramState()
	prog, err := Build(fx.env, call)
	if err != nil {
		return err
	}
	for i := range prog {
		if err := prog[i].Do(fx.env, &prog[i]); err != nil {
			return err
		}
		if stopAfter >= 0 && i == stopAfter {
			return nil
		}
	}
	fx.env.Undo.Clear()
	return nil
}

// stepIndex finds a step by name, failing the test if absent.
func stepIndex(t *testing.T, env *Env, call *Call, name string) int {
	t.Helper()
	env.Call = call
	prog, err := Build(env, call)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if prog[i].Name == name {
			return i
		}
	}
	t.Fatalf("step %q not in program for %v", name, call)
	return -1
}

func TestOpStrings(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpMMUUpdate, "mmu_update"}, {OpMemoryOp, "memory_op"},
		{OpGrantTableOp, "grant_table_op"}, {OpEventChannelOp, "event_channel_op"},
		{OpSchedOp, "sched_op"}, {OpSetTimerOp, "set_timer_op"},
		{OpConsoleIO, "console_io"}, {OpVCPUOp, "vcpu_op"},
		{OpMulticall, "multicall"}, {OpDomctl, "domctl"},
		{OpSyscallForward, "syscall_forward"}, {Op(99), "op(99)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestUnknownOpBuildFails(t *testing.T) {
	fx := newFixture(t)
	if _, err := Build(fx.env, &Call{Op: Op(99)}); err == nil {
		t.Fatal("Build accepted unknown op")
	}
}

func TestMMUPinUnpinRoundTrip(t *testing.T) {
	fx := newFixture(t)
	frame := 200
	pin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, uint64(frame)}}
	fx.runAll(t, pin)
	f := fx.frames.Frame(frame)
	if f.Type != mm.FramePageTable || f.UseCount != 1 || !f.Validated {
		t.Fatalf("after pin: %+v", *f)
	}
	if held(fx.d1.PageAllocLock) {
		t.Fatal("page_alloc lock leaked")
	}
	unpin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUUnpin, uint64(frame)}}
	fx.runAll(t, unpin)
	if f.Type != mm.FrameGuest || f.UseCount != 0 || f.Validated {
		t.Fatalf("after unpin: %+v", *f)
	}
}

func TestMMUPinBadFrameAsserts(t *testing.T) {
	fx := newFixture(t)
	call := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 99999}}
	err := fx.run(call, -1)
	if err == nil || !strings.Contains(err.Error(), "ASSERT") {
		t.Fatalf("err = %v, want assertion", err)
	}
}

// TestNonIdempotentRetryWithoutUndoAsserts reproduces the §IV failure: a
// partial pin that bumped the refcount, retried without rollback,
// double-increments and trips the validation assertion.
func TestNonIdempotentRetryWithoutUndoAsserts(t *testing.T) {
	fx := newFixture(t)
	fx.env.LoggingEnabled = false
	frame := 200
	pin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, uint64(frame)}}
	idx := stepIndex(t, fx.env, pin, "inc_refcount")
	if err := fx.run(pin, idx); err != nil {
		t.Fatal(err)
	}
	// Recovery: force-release leaked locks, then retry from scratch.
	fx.locks.UnlockHeapLocks()
	err := fx.run(pin, -1)
	if err == nil || !strings.Contains(err.Error(), "refcount 2") {
		t.Fatalf("retry err = %v, want refcount assertion", err)
	}
}

// TestNonIdempotentRetryWithUndoSucceeds: with logging, rollback restores
// the count and the retry completes cleanly.
func TestNonIdempotentRetryWithUndoSucceeds(t *testing.T) {
	fx := newFixture(t)
	frame := 200
	pin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, uint64(frame)}}
	idx := stepIndex(t, fx.env, pin, "inc_refcount")
	if err := fx.run(pin, idx); err != nil {
		t.Fatal(err)
	}
	if fx.env.Undo.Len() == 0 {
		t.Fatal("no undo records logged")
	}
	fx.locks.UnlockHeapLocks()
	fx.env.Undo.Rollback()
	if got := fx.frames.Frame(frame).UseCount; got != 0 {
		t.Fatalf("UseCount after rollback = %d, want 0", got)
	}
	fx.runAll(t, pin)
	f := fx.frames.Frame(frame)
	if f.UseCount != 1 || !f.Validated {
		t.Fatalf("after retried pin: %+v", *f)
	}
}

func TestMemoryOpAdjustsTotPages(t *testing.T) {
	fx := newFixture(t)
	before := fx.d1.TotPages
	call := &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemPopulate, 8}}
	fx.runAll(t, call)
	if fx.d1.TotPages != before+8 {
		t.Fatalf("TotPages = %d, want %d", fx.d1.TotPages, before+8)
	}
	rel := &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemRelease, 8}}
	fx.runAll(t, rel)
	if fx.d1.TotPages != before {
		t.Fatalf("TotPages = %d, want %d", fx.d1.TotPages, before)
	}
	if held(fx.env.Statics.HeapLock) {
		t.Fatal("heap lock leaked")
	}
}

func TestMemoryOpRetryWithoutUndoCanOverflow(t *testing.T) {
	fx := newFixture(t)
	fx.env.LoggingEnabled = false
	// Fill close to the limit so the double-apply trips the bound.
	fx.d1.TotPages = fx.d1.MemCount - 10
	call := &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemPopulate, 8}}
	idx := stepIndex(t, fx.env, call, "adjust_tot_pages")
	if err := fx.run(call, idx); err != nil {
		t.Fatal(err)
	}
	fx.locks.UnlockStaticSegment()
	err := fx.run(call, -1)
	if err == nil || !strings.Contains(err.Error(), "tot_pages") {
		t.Fatalf("retry err = %v, want tot_pages assertion", err)
	}
}

func TestMemoryOpFailsOnCorruptedHeap(t *testing.T) {
	fx := newFixture(t)
	// CorruptFreeList damages an entry in the free list's hot region;
	// keep damaging until the allocator's check window sees it.
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 64 && fx.heap.Check() == nil; i++ {
		fx.heap.CorruptFreeList(rng)
	}
	if fx.heap.Check() == nil {
		t.Fatal("could not land free-list damage in the check window")
	}
	call := &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemPopulate, 1}}
	if err := fx.run(call, -1); !errors.Is(err, mm.ErrFreeListCorrupted) {
		t.Fatalf("memory_op on corrupted heap: err = %v, want mm.ErrFreeListCorrupted", err)
	}
}

func TestGrantMapUnmapRoundTrip(t *testing.T) {
	fx := newFixture(t)
	frame := 190
	if err := fx.d1.GrantTab.Grant(5, frame, false); err != nil {
		t.Fatal(err)
	}
	mapc := &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantMap, 5, uint64(frame)}}
	fx.runAll(t, mapc)
	if len(fx.d1.Maptrack.Mappings()) != 1 || fx.frames.Frame(frame).UseCount != 1 {
		t.Fatalf("after map: active=%d count=%d", len(fx.d1.Maptrack.Mappings()), fx.frames.Frame(frame).UseCount)
	}
	unmap := &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantUnmap, 5, uint64(frame)}}
	fx.runAll(t, unmap)
	if len(fx.d1.Maptrack.Mappings()) != 0 || fx.frames.Frame(frame).UseCount != 0 {
		t.Fatalf("after unmap: active=%d count=%d", len(fx.d1.Maptrack.Mappings()), fx.frames.Frame(frame).UseCount)
	}
	// The guest can now revoke its grant.
	if err := fx.d1.GrantTab.Revoke(5); err != nil {
		t.Fatal(err)
	}
}

func TestGrantMapUngrantedRefAsserts(t *testing.T) {
	fx := newFixture(t)
	mapc := &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantMap, 5, 190}}
	if err := fx.run(mapc, -1); err == nil {
		t.Fatal("map of ungranted ref succeeded")
	}
}

func TestGrantMapRetryWithoutUndoAsserts(t *testing.T) {
	fx := newFixture(t)
	fx.env.LoggingEnabled = false
	if err := fx.d1.GrantTab.Grant(5, 190, false); err != nil {
		t.Fatal(err)
	}
	mapc := &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantMap, 5, 190}}
	idx := stepIndex(t, fx.env, mapc, "map_track")
	if err := fx.run(mapc, idx); err != nil {
		t.Fatal(err)
	}
	fx.locks.UnlockHeapLocks()
	err := fx.run(mapc, -1)
	if err == nil || !strings.Contains(err.Error(), "already mapped") {
		t.Fatalf("retry err = %v, want already-mapped assertion", err)
	}
}

// held reports whether l is currently held.
func held(l *locking.Lock) bool { return l.Owner() != locking.NoOwner }

// pendingPorts lists t's pending, unmasked ports in order.
func pendingPorts(t *evtchn.Table) []int {
	var out []int
	for p := 1; p < t.Len(); p++ {
		if port, _ := t.Port(p); port.Pending && !port.Masked {
			out = append(out, p)
		}
	}
	return out
}

func TestEventChannelSendReachesPeer(t *testing.T) {
	// d1 notifies its I/O ring: the PrivVM-side port goes pending.
	fx := newFixture(t)
	call := &Call{Op: OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 0, uint64(fx.d1.RingPort)}}
	fx.runAll(t, call)
	if got := pendingPorts(fx.d0.Events); len(got) != 1 {
		t.Fatalf("PrivVM pending = %v, want the ring backend port", got)
	}
	// Re-sending is idempotent (level-triggered bit).
	fx.runAll(t, call)
	if got := pendingPorts(fx.d0.Events); len(got) != 1 {
		t.Fatalf("pending after resend = %v", got)
	}
}

func TestEventChannelSendWakesBlockedPeer(t *testing.T) {
	// The reverse direction: the PrivVM backend notifies d1, whose
	// blocked vCPU must wake.
	fx := newFixture(t)
	v := fx.d1.VCPUs[0]
	v.State = sched.Blocked
	fx.sch.RepairFromPerCPU() // normalizes: blocked vCPU leaves runqueue
	backPort, _ := fx.d1.Events.Port(fx.d1.RingPort)
	call := &Call{Op: OpEventChannelOp, Dom: 0, Args: [4]uint64{0, 0, uint64(backPort.RemotePort)}}
	fx.runAll(t, call)
	if got := pendingPorts(fx.d1.Events); len(got) != 1 || got[0] != fx.d1.RingPort {
		t.Fatalf("d1 pending = %v, want ring port", got)
	}
	if len(fx.woken) != 1 || fx.woken[0] != v {
		t.Fatalf("woken = %v", fx.woken)
	}
	if v.State != sched.Runnable {
		t.Fatalf("vcpu state = %v, want runnable", v.State)
	}
}

func TestEventChannelBadPortIsGuestError(t *testing.T) {
	// An invalid or unbound port is a guest bug: Xen returns -EINVAL;
	// the hypervisor must not assert.
	fx := newFixture(t)
	call := &Call{Op: OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 0, 99}}
	if err := fx.run(call, -1); err != nil {
		t.Fatalf("send on invalid port paniced the hypervisor: %v", err)
	}
	p, err := fx.d1.Events.AllocUnbound(0)
	if err != nil {
		t.Fatal(err)
	}
	call2 := &Call{Op: OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 0, uint64(p)}}
	if err := fx.run(call2, -1); err != nil {
		t.Fatalf("send on unbound port paniced the hypervisor: %v", err)
	}
	if got := pendingPorts(fx.d0.Events); len(got) != 0 {
		t.Fatalf("bad sends delivered events: %v", got)
	}
}

func TestSchedOpYieldSwitches(t *testing.T) {
	fx := newFixture(t)
	// Two vCPUs on cpu0: d1v0 plus one more domain.
	d2v := fx.sch.AddVCPU(2, 0, 0)
	d2 := &dom.Domain{ID: 2}
	d2.VCPUs = []*sched.VCPU{d2v}
	fx.doms.Insert(d2)
	fx.sch.BeginSwitch(0).Complete() // d1v0 running
	call := &Call{Op: OpSchedOp, Dom: 1, Args: [4]uint64{SchedYield}}
	fx.runAll(t, call)
	if fx.sch.Curr(0) != d2v {
		t.Fatalf("curr = %v, want d2v0 after yield", fx.sch.Curr(0))
	}
	if got := fx.sch.CheckConsistency(); len(got) != 0 {
		t.Fatalf("inconsistencies after yield: %v", got)
	}
	if held(fx.sch.RunqueueLock(0)) {
		t.Fatal("runq lock leaked")
	}
}

func TestSchedOpBlockIdlesCPU(t *testing.T) {
	fx := newFixture(t)
	fx.sch.BeginSwitch(0).Complete()
	call := &Call{Op: OpSchedOp, Dom: 1, Args: [4]uint64{SchedBlock}}
	fx.runAll(t, call)
	if fx.sch.Curr(0) != nil {
		t.Fatal("CPU not idle after lone vCPU blocked")
	}
	if fx.d1.VCPUs[0].State != sched.Blocked {
		t.Fatalf("state = %v, want blocked", fx.d1.VCPUs[0].State)
	}
}

func TestSchedOpAbandonedMidSwitchLeavesInconsistency(t *testing.T) {
	fx := newFixture(t)
	d2v := fx.sch.AddVCPU(2, 0, 0)
	d2 := &dom.Domain{ID: 2}
	d2.VCPUs = []*sched.VCPU{d2v}
	fx.doms.Insert(d2)
	fx.sch.BeginSwitch(0).Complete()
	call := &Call{Op: OpSchedOp, Dom: 1, Args: [4]uint64{SchedYield}}
	idx := stepIndex(t, fx.env, call, "set_curr")
	if err := fx.run(call, idx); err != nil {
		t.Fatal(err)
	}
	if len(fx.sch.CheckConsistency()) == 0 {
		t.Fatal("abandoned switch reported consistent")
	}
	if len(fx.env.HeldLocks()) == 0 {
		t.Fatal("abandoned program holds no locks (runq lock expected)")
	}
}

func TestSetTimerAddsAndPrograms(t *testing.T) {
	fx := newFixture(t)
	call := &Call{Op: OpSetTimerOp, Dom: 1, Args: [4]uint64{0, uint64(5 * time.Millisecond)}}
	fx.runAll(t, call)
	if fx.env.Timers.PendingCount(0) != 1 {
		t.Fatalf("pending timers = %d, want 1", fx.env.Timers.PendingCount(0))
	}
	if d, ok := fx.env.Timers.NextDeadline(0); !ok || d != 5*time.Millisecond {
		t.Fatalf("deadline = %v,%v", d, ok)
	}
}

func TestConsoleIOTakesStaticLock(t *testing.T) {
	fx := newFixture(t)
	call := &Call{Op: OpConsoleIO, Dom: 1, Args: [4]uint64{0, 32}}
	idx := stepIndex(t, fx.env, call, "lock_console")
	if err := fx.run(call, idx); err != nil {
		t.Fatal(err)
	}
	if !held(fx.env.Statics.Console) {
		t.Fatal("console lock not held mid-program")
	}
	// Abandon: the lock stays held — the §V-A static-lock hazard.
	held := fx.locks.HeldLocks(locking.Static)
	if len(held) != 1 || held[0] != fx.env.Statics.Console {
		t.Fatalf("held static locks = %v", held)
	}
}

func TestVCPUOpCompletes(t *testing.T) {
	fx := newFixture(t)
	fx.runAll(t, &Call{Op: OpVCPUOp, Dom: 1})
}

func TestSyscallForwardCompletes(t *testing.T) {
	fx := newFixture(t)
	fx.runAll(t, &Call{Op: OpSyscallForward, Dom: 1})
}

func TestMulticallCompletionLogSkipsDone(t *testing.T) {
	fx := newFixture(t)
	batch := &Call{Op: OpMulticall, Dom: 1, Batch: []*Call{
		{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 201}},
		{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 202}},
		{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 203}},
	}}
	// Run until the first component's completion is logged.
	idx := stepIndex(t, fx.env, batch, "log_completion[0]")
	if err := fx.run(batch, idx); err != nil {
		t.Fatal(err)
	}
	if batch.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", batch.Completed)
	}
	fx.locks.UnlockHeapLocks()
	fx.env.Undo.Clear() // completed component's records not replayed
	// Retry: rebuild must skip component 0.
	fx.env.Call = batch
	prog, err := Build(fx.env, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog {
		if s.Name == "log_completion[0]" {
			t.Fatal("retried batch re-executes completed component")
		}
	}
	if err := fx.run(batch, -1); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if batch.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", batch.Completed)
	}
	// Frame 201 pinned once (not twice), 202/203 pinned.
	for _, fr := range []int{201, 202, 203} {
		if got := fx.frames.Frame(fr).UseCount; got != 1 {
			t.Fatalf("frame %d UseCount = %d, want 1", fr, got)
		}
	}
}

func TestDomctlCreateAndDestroy(t *testing.T) {
	fx := newFixture(t)
	create := &Call{Op: OpDomctl, Dom: 0, Create: &CreateSpec{ID: 9, Name: "new", MemPages: 4, PinCPU: 1},
		Args: [4]uint64{DomctlCreate}}
	fx.runAll(t, create)
	if _, err := fx.doms.ByID(9); err != nil {
		t.Fatalf("domain not created: %v", err)
	}
	destroy := &Call{Op: OpDomctl, Dom: 0, Args: [4]uint64{DomctlDestroy, 9}}
	fx.runAll(t, destroy)
	if _, err := fx.doms.ByID(9); err == nil {
		t.Fatal("domain not destroyed")
	}
	if held(fx.env.Statics.DomList) {
		t.Fatal("domlist lock leaked")
	}
}

func TestDomctlCreateRetryAfterUndoSucceeds(t *testing.T) {
	fx := newFixture(t)
	create := &Call{Op: OpDomctl, Dom: 0, Create: &CreateSpec{ID: 9, Name: "new"},
		Args: [4]uint64{DomctlCreate}}
	idx := stepIndex(t, fx.env, create, "alloc_and_insert")
	if err := fx.run(create, idx); err != nil {
		t.Fatal(err)
	}
	fx.locks.UnlockStaticSegment()
	fx.env.Undo.Rollback()
	if _, err := fx.doms.ByID(9); err == nil {
		t.Fatal("rollback did not remove inserted domain")
	}
	fx.runAll(t, create)
	if _, err := fx.doms.ByID(9); err != nil {
		t.Fatal("retried create failed")
	}
}

func TestDomctlCreateOnCorruptedListAsserts(t *testing.T) {
	fx := newFixture(t)
	// Any structural link damage fails the create path's full-list check.
	fx.doms.CorruptLink(rand.New(rand.NewPCG(3, 3)))
	if fx.doms.CheckLinks() == nil {
		t.Fatal("CorruptLink produced no detectable damage")
	}
	create := &Call{Op: OpDomctl, Dom: 0, Create: &CreateSpec{ID: 9},
		Args: [4]uint64{DomctlCreate}}
	if err := fx.run(create, -1); !errors.Is(err, dom.ErrListCorrupted) {
		t.Fatalf("create on corrupted list: err = %v, want dom.ErrListCorrupted", err)
	}
}

func TestSpinErrorOnHeldLock(t *testing.T) {
	fx := newFixture(t)
	fx.env.Statics.Console.TryAcquire(1) // another (discarded) context holds it
	call := &Call{Op: OpConsoleIO, Dom: 1}
	err := fx.run(call, -1)
	var spin *SpinError
	if !errors.As(err, &spin) {
		t.Fatalf("err = %v, want SpinError", err)
	}
	if spin.Lock != fx.env.Statics.Console {
		t.Fatal("SpinError names wrong lock")
	}
	if !strings.Contains(spin.Error(), "console_lock") {
		t.Fatalf("Error() = %q", spin.Error())
	}
}

func TestUndoLogClearOnCompletion(t *testing.T) {
	fx := newFixture(t)
	pin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 210}}
	fx.runAll(t, pin)
	if fx.env.Undo.Len() != 0 {
		t.Fatalf("undo log has %d records after completion", fx.env.Undo.Len())
	}
	if fx.env.Undo.Writes == 0 {
		t.Fatal("no undo writes counted")
	}
}

func TestLoggingOverheadCharged(t *testing.T) {
	fx := newFixture(t)
	pin := &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 210}}
	fx.runAll(t, pin)
	if fx.env.ExtraCycles == 0 {
		t.Fatal("no logging cycles charged with logging on")
	}
	charged := fx.env.ExtraCycles

	fx2 := newFixture(t)
	fx2.env.LoggingEnabled = false
	fx2.runAll(t, pin2(210))
	if fx2.env.ExtraCycles != 0 {
		t.Fatal("logging cycles charged with logging off")
	}
	if charged < LogCostMMU {
		t.Fatalf("pin charged %d cycles, want >= 1 log write", charged)
	}
}

func pin2(frame int) *Call {
	return &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, uint64(frame)}}
}

// TestProgramInstrs pins the mmu_update pin program's instruction costs
// up to write_pte (entry 150 + lock 40 + inc_refcount 60): an injection
// budget just past 250 lands on write_pte with the reference already
// taken, the §IV hazard the fault-drill example aims at.
func TestProgramInstrs(t *testing.T) {
	fx := newFixture(t)
	prog, err := Build(fx.env, pin2(fx.d1.MemStart+1))
	if err != nil {
		t.Fatal(err)
	}
	var before uint64
	for _, st := range prog {
		if st.Name == "write_pte" {
			break
		}
		before += st.Instrs
	}
	if before != 250 {
		t.Fatalf("instructions before write_pte = %d, want 250", before)
	}
}

func TestCallString(t *testing.T) {
	c := &Call{Op: OpMMUUpdate, Dom: 2, VCPU: 0, Args: [4]uint64{MMUPin}}
	if !strings.Contains(c.String(), "mmu_update") {
		t.Fatalf("String() = %q", c.String())
	}
	mc := &Call{Op: OpMulticall, Dom: 1, Batch: []*Call{c}, Completed: 1}
	if !strings.Contains(mc.String(), "1 components") || !strings.Contains(mc.String(), "1 done") {
		t.Fatalf("String() = %q", mc.String())
	}
}

func TestUndoLogRollbackOrder(t *testing.T) {
	// Maptrack handles are handed out in increasing order, so the order in
	// which re-map records are applied is visible in Mappings().
	gt, mt := grant.NewTable(1, 8), grant.NewMaptrack(0)
	d := &dom.Domain{GrantTab: gt, Maptrack: mt}
	u := NewUndoLog()
	for ref := 1; ref <= 3; ref++ {
		if err := gt.Grant(ref, 100+ref, false); err != nil {
			t.Fatal(err)
		}
		u.RecordData(UndoRecord{Kind: UndoMaptrackMap, Dom: d, Arg: ref})
	}
	if n := u.Rollback(); n != 3 {
		t.Fatalf("Rollback = %d, want 3", n)
	}
	var got []int
	for _, mp := range mt.Mappings() {
		got = append(got, mp.Ref)
	}
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Fatalf("rollback order = %v, want reverse [3 2 1]", got)
	}
	if u.Len() != 0 || u.Rollbacks != 1 {
		t.Fatalf("len=%d rollbacks=%d", u.Len(), u.Rollbacks)
	}
	if n := u.Rollback(); n != 0 {
		t.Fatal("empty rollback applied records")
	}
}

func TestStaticsDeclaredInSegment(t *testing.T) {
	reg := locking.NewRegistry()
	s := NewStatics(reg)
	staticN, _ := reg.Counts()
	if staticN != 3 {
		t.Fatalf("static lock count = %d, want 3", staticN)
	}
	for _, l := range []string{s.Console.Name(), s.DomList.Name(), s.HeapLock.Name()} {
		if l == "" {
			t.Fatal("unnamed static lock")
		}
	}
}

func TestEPTPopulateUnmapRoundTrip(t *testing.T) {
	fx := newFixture(t)
	frame := 205
	pop := &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTPopulate, uint64(frame)}}
	fx.runAll(t, pop)
	f := fx.frames.Frame(frame)
	if f.UseCount != 1 || !f.Validated {
		t.Fatalf("after populate: %+v", *f)
	}
	if held(fx.d1.PageAllocLock) {
		t.Fatal("p2m lock leaked")
	}
	unmap := &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTUnmap, uint64(frame)}}
	fx.runAll(t, unmap)
	if f.UseCount != 0 || f.Validated {
		t.Fatalf("after unmap: %+v", *f)
	}
}

func TestEPTPopulateRetryWithoutUndoAsserts(t *testing.T) {
	// The HVM twin of the §IV non-idempotence hazard.
	fx := newFixture(t)
	fx.env.LoggingEnabled = false
	pop := &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTPopulate, 205}}
	idx := stepIndex(t, fx.env, pop, "inc_mapcount")
	if err := fx.run(pop, idx); err != nil {
		t.Fatal(err)
	}
	fx.locks.UnlockHeapLocks()
	err := fx.run(pop, -1)
	if err == nil || !strings.Contains(err.Error(), "mapcount 2") {
		t.Fatalf("retry err = %v, want mapcount assertion", err)
	}
}

func TestEPTPopulateRetryWithUndoSucceeds(t *testing.T) {
	fx := newFixture(t)
	pop := &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTPopulate, 205}}
	idx := stepIndex(t, fx.env, pop, "inc_mapcount")
	if err := fx.run(pop, idx); err != nil {
		t.Fatal(err)
	}
	fx.locks.UnlockHeapLocks()
	fx.env.Undo.Rollback()
	fx.runAll(t, pop)
	if got := fx.frames.Frame(205).UseCount; got != 1 {
		t.Fatalf("UseCount after retried populate = %d, want 1", got)
	}
}

func TestIOEmulationIdempotent(t *testing.T) {
	fx := newFixture(t)
	call := &Call{Op: OpIOEmulation, Dom: 1}
	fx.runAll(t, call)
	fx.runAll(t, call) // re-execution is harmless
	if fx.env.Undo.Writes != 0 {
		t.Fatal("io_emulation logged critical writes")
	}
}

func TestIOEmulationFailsOnCorruptedDomList(t *testing.T) {
	fx := newFixture(t)
	// Traversals fail only when they cross the damage point, so damage
	// the list until looking up d0 (second in link order, behind d1)
	// fails, then decode for d0 must hit the corruption.
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 64; i++ {
		fx.doms.CorruptLink(rng)
		if _, err := fx.doms.ByID(0); err != nil {
			break
		}
	}
	if _, err := fx.doms.ByID(0); err == nil {
		t.Fatal("could not land damage before d0 in the walk")
	}
	if err := fx.run(&Call{Op: OpIOEmulation, Dom: 0}, -1); err == nil {
		t.Fatal("decode succeeded on corrupted domain list")
	}
}
