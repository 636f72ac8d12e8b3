package hv

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Machine:        hw.Config{CPUs: 4, MemoryMB: 512, BlockSvc: 100 * time.Microsecond, NICLat: 10 * time.Microsecond},
		HeapFrames:     4096,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           42,
	}
}

func newBooted(t testing.TB) (*Hypervisor, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	h, err := New(clk, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return h, clk
}

// addAppVM creates a 16MB app domain pinned to cpu.
func addAppVM(t testing.TB, h *Hypervisor, id, cpu int) {
	t.Helper()
	if err := h.CreateDomain(id, "app", 4096, cpu, false); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	clk := simclock.New()
	cfg := testConfig()
	cfg.HeapFrames = 0
	if _, err := New(clk, cfg); err == nil {
		t.Fatal("accepted zero heap")
	}
	cfg = testConfig()
	cfg.Machine.CPUs = 0
	if _, err := New(clk, cfg); err == nil {
		t.Fatal("accepted zero CPUs")
	}
	cfg = testConfig()
	cfg.HeapFrames = 1 << 30
	if _, err := New(clk, cfg); err == nil {
		t.Fatal("accepted heap larger than memory")
	}
}

func TestBootCreatesPrivVMAndTimers(t *testing.T) {
	h, _ := newBooted(t)
	d, err := h.Domain(0)
	if err != nil {
		t.Fatalf("no PrivVM: %v", err)
	}
	if !d.IsPriv || len(d.VCPUs) != 1 {
		t.Fatalf("PrivVM = %+v", d)
	}
	// PrivVM's vCPU runs on CPU 0 immediately.
	if v := h.Sched.Curr(0); v == nil || v.Domain != 0 {
		t.Fatalf("Curr(0) = %v, want PrivVM vCPU", v)
	}
	// Every CPU has a sched tick, CPU0 also the time sync.
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if h.Timers.PendingCount(cpu) == 0 {
			t.Fatalf("cpu%d has no standing timers", cpu)
		}
		if !h.Machine.CPU(cpu).TimerArmed() {
			t.Fatalf("cpu%d APIC not armed after boot", cpu)
		}
	}
}

func TestCreateDomainValidation(t *testing.T) {
	h, _ := newBooted(t)
	if err := h.CreateDomain(0, "dup", 128, 1, false); err == nil {
		t.Fatal("duplicate domain ID accepted")
	}
	if err := h.CreateDomain(5, "badcpu", 128, 99, false); err == nil {
		t.Fatal("bad pin CPU accepted")
	}
	if err := h.CreateDomain(6, "toobig", 1<<28, 1, false); err == nil {
		t.Fatal("oversized domain accepted")
	}
}

func TestCreateDestroyDomainLifecycle(t *testing.T) {
	h, _ := newBooted(t)
	heapBefore := len(h.Heap.AllocatedPages())
	addAppVM(t, h, 1, 1)
	if len(h.Heap.AllocatedPages()) <= heapBefore {
		t.Fatal("domain struct not heap-allocated")
	}
	if v := h.Sched.Curr(1); v == nil || v.Domain != 1 {
		t.Fatal("new domain's vCPU not running on its pinned CPU")
	}
	if err := h.DestroyDomain(1); err != nil {
		t.Fatal(err)
	}
	if len(h.Heap.AllocatedPages()) != heapBefore {
		t.Fatal("domain struct not freed")
	}
	if _, err := h.Domain(1); err == nil {
		t.Fatal("domain still listed")
	}
	if v := h.Sched.Curr(1); v != nil {
		t.Fatal("destroyed vCPU still current")
	}
}

func TestDispatchCompletesAndNotifies(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	d, _ := h.Domain(1)
	frame := uint64(d.MemStart + 10)
	call := &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1, Args: [4]uint64{hypercall.MMUPin, frame}}
	h.Dispatch(1, call)
	if !call.Done || h.Tel.Counters[telemetry.CtrCompletions] != 1 {
		t.Fatalf("done=%v completions=%d, want one completion", call.Done, h.Tel.Counters[telemetry.CtrCompletions])
	}
	if h.Stats.Hypercalls != 1 {
		t.Fatalf("Stats.Hypercalls = %d", h.Stats.Hypercalls)
	}
	f := h.Frames.Frame(int(frame))
	if f.UseCount != 1 || !f.Validated {
		t.Fatalf("frame after pin: %+v", *f)
	}
	if h.Machine.CPU(1).Cycles.Hypervisor == 0 || h.Machine.CPU(1).HypInstrs == 0 {
		t.Fatal("no hypervisor cycles charged")
	}
}

func TestDispatchAssertionPanics(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	var panics []string
	var causes []Cause
	h.SetPanicHook(func(cpu int, cause Cause, reason string) {
		panics, causes = append(panics, reason), append(causes, cause)
	})
	// Pin an out-of-range frame: the handler asserts.
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1, Args: [4]uint64{hypercall.MMUPin, 1 << 40}})
	if len(panics) != 1 || !strings.Contains(panics[0], "ASSERT") || causes[0] != CauseAssertion {
		t.Fatalf("panics = %v, causes = %v", panics, causes)
	}
	if h.percpu[1].LocalIRQCount == 0 {
		t.Fatal("panic did not raise local_irq_count (exception context)")
	}
}

// TestStepCause: a step error that wraps a corrupted domain list or heap
// free list names state a reboot rebuilds; any other is an assertion.
func TestStepCause(t *testing.T) {
	for _, tt := range []struct {
		err  error
		want Cause
	}{
		{fmt.Errorf("ASSERT: domctl_create: %w", dom.ErrListCorrupted), CauseRebuiltStateReuse},
		{dom.ErrListCorrupted, CauseRebuiltStateReuse},
		{fmt.Errorf("%w: entry 5 (frame 9)", mm.ErrFreeListCorrupted), CauseRebuiltStateReuse},
		{errors.New("ASSERT: mmu_pin: refcount 2 on validate"), CauseAssertion},
		{errors.New("dom: no domain 5"), CauseAssertion},
	} {
		if got := stepCause(tt.err); got != tt.want {
			t.Errorf("stepCause(%v) = %d, want %d", tt.err, got, tt.want)
		}
	}
}

func TestPanicWithoutHookFailsTerminally(t *testing.T) {
	h, clk := newBooted(t)
	h.Panic(0, CauseHang, "unhandled")
	failed, reason := h.Failed()
	if !failed || !strings.Contains(reason, "unhandled") || h.failCause != CauseHang {
		t.Fatalf("failed=%v reason=%q cause=%d", failed, reason, h.failCause)
	}
	if clk.Step() {
		t.Fatal("clock still dispatching after terminal failure")
	}
}

func TestTimerIRQDrivesStandingTimers(t *testing.T) {
	h, clk := newBooted(t)
	clk.RunUntil(100 * time.Millisecond)
	if h.Stats.TimerIRQs == 0 {
		t.Fatal("no timer IRQs fired")
	}
	// Standing timers keep recurring: APICs stay armed.
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if !h.Machine.CPU(cpu).TimerArmed() {
			t.Fatalf("cpu%d APIC dead after timer processing", cpu)
		}
	}
	if n := len(h.Timers.InactiveRecurring()); n != 0 {
		t.Fatalf("%d recurring timers left inactive", n)
	}
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
}

func TestSchedTickKeepsIRQCountBalanced(t *testing.T) {
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	clk.RunUntil(500 * time.Millisecond)
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if got := h.percpu[cpu].LocalIRQCount; got != 0 {
			t.Fatalf("cpu%d local_irq_count = %d between interrupts", cpu, got)
		}
	}
	if got := h.Sched.CheckConsistency(); len(got) != 0 {
		t.Fatalf("sched inconsistencies in normal operation: %v", got)
	}
}

func TestBlockDeviceIRQPostsEvent(t *testing.T) {
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	var events [][2]int
	h.SetEventHook(func(domID, port int) { events = append(events, [2]int{domID, port}) })
	h.Machine.Block().Submit(hw.BlockRequest{Owner: 1, Sectors: 8})
	clk.RunUntil(time.Millisecond)
	if len(events) == 0 {
		t.Fatal("no event posted for block completion")
	}
	if events[0][0] != 1 {
		t.Fatalf("event for domain %d, want 1", events[0][0])
	}
	if h.Machine.IOAPIC().InService(hw.IRQBlock) {
		t.Fatal("block line not EOI'd")
	}
}

func TestNICRxReachesHook(t *testing.T) {
	h, clk := newBooted(t)
	var pkts []hw.Packet
	h.SetNICRxHook(func(p hw.Packet) { pkts = append(pkts, p) })
	h.Machine.NIC().Inject(hw.Packet{Flow: 1, Seq: 3})
	clk.RunUntil(time.Millisecond)
	if len(pkts) != 1 || pkts[0].Seq != 3 {
		t.Fatalf("pkts = %v", pkts)
	}
}

func TestInjectionFiresAtInstructionBudget(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	var pt InjectionPoint
	h.ArmInjection(200, func(p InjectionPoint) (InjectAction, string) {
		pt = p
		return ActionContinue, ""
	})
	d, _ := h.Domain(1)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 5)}})
	if !h.Stats.InjectionFired {
		t.Fatal("injection did not fire")
	}
	if pt.CPU != 1 || !strings.HasPrefix(pt.Activity, "hypercall:mmu_update") {
		t.Fatalf("injection point = %+v", pt)
	}
	// 200 instrs: entry(150) consumed, lock(40) consumed => 190; next
	// step inc_refcount(60) overruns => injection at inc_refcount.
	if pt.StepName != "inc_refcount" {
		t.Fatalf("StepName = %q, want inc_refcount", pt.StepName)
	}
	if len(pt.HeldLocks) != 1 {
		t.Fatalf("HeldLocks = %v, want the page_alloc lock", pt.HeldLocks)
	}
	// ActionContinue: the call still completed.
	if h.PerCPU(1).Current != nil {
		t.Fatal("call not completed after ActionContinue")
	}
}

func TestInjectionPanicAbandonsCall(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	detected := ""
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { detected = reason })
	h.ArmInjection(200, func(p InjectionPoint) (InjectAction, string) {
		return ActionPanic, "failstop"
	})
	d, _ := h.Domain(1)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 5)}})
	if detected != "failstop" {
		t.Fatalf("detected = %q", detected)
	}
	pc := h.PerCPU(1)
	if pc.Current == nil {
		t.Fatal("abandoned call lost (needed for retry)")
	}
	// The lock acquired before the injection point is still held.
	if got := len(pc.Env.HeldLocks()); got != 1 {
		t.Fatalf("held locks = %d, want 1", got)
	}
}

func TestInjectionWedgeStopsCPU(t *testing.T) {
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.ArmInjection(200, func(p InjectionPoint) (InjectAction, string) {
		return ActionWedge, "wild jump"
	})
	d, _ := h.Domain(1)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 5)}})
	pc := h.PerCPU(1)
	if !pc.Wedged || !pc.Stuck() {
		t.Fatal("CPU not wedged")
	}
	if !h.Machine.CPU(1).IntrDisabled {
		t.Fatal("wedged CPU still takes interrupts")
	}
	// Its timer interrupts stay pending; other CPUs keep running.
	clk.RunUntil(200 * time.Millisecond)
	if failed, _ := h.Failed(); failed {
		t.Fatal("wedge alone must not fail the hypervisor (watchdog's job)")
	}
}

func TestSpinOnHeldLockDisablesInterrupts(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.Statics.Console.TryAcquire(3) // some discarded context holds it
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	pc := h.PerCPU(1)
	if pc.Spinning == nil || pc.Spinning != h.Statics.Console {
		t.Fatalf("Spinning = %v", pc.Spinning)
	}
	if !h.Machine.CPU(1).IntrDisabled {
		t.Fatal("spinning CPU has interrupts enabled")
	}
	if h.Stats.Spins != 1 {
		t.Fatalf("Stats.Spins = %d", h.Stats.Spins)
	}
}

// TestSnapshotRefusesBusyCPU: a CPU spinning inside a hypercall still has
// its program in flight, and that program lives in a step buffer the next
// dispatch reuses, so Snapshot must refuse rather than save it.
func TestSnapshotRefusesBusyCPU(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.Statics.Console.TryAcquire(3)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	if !h.PerCPU(1).Busy() {
		t.Fatal("spinning CPU is not busy")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "CPU 1") {
			t.Fatalf("Snapshot of a busy CPU: recovered %q, want a panic naming CPU 1", msg)
		}
	}()
	h.Snapshot()
}

func TestDiscardThreadPreservesPendingCall(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	h.ArmInjection(250, func(InjectionPoint) (InjectAction, string) { return ActionPanic, "x" })
	d, _ := h.Domain(1)
	frame := d.MemStart + 5
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(frame)}})
	pending := h.DiscardAllThreads()
	if len(pending) != 1 {
		t.Fatalf("pending = %v, want 1", pending)
	}
	p := pending[0]
	if p.CPU != 1 || p.Call.Op != hypercall.OpMMUUpdate {
		t.Fatalf("pending = %+v", p)
	}
	if !p.CriticalWrites {
		t.Fatal("partial pin after inc_refcount must report critical writes")
	}
	if p.Poisoned {
		t.Fatal("abandonment at inc_refcount is not an unmitigated window")
	}
	pc := h.PerCPU(1)
	if pc.Current != nil || pc.Busy() {
		t.Fatal("thread not discarded")
	}
	if !pc.WasBusyAtDiscard {
		t.Fatal("WasBusyAtDiscard not recorded")
	}
	// Discard does NOT release locks.
	if !(d.PageAllocLock.Owner() != locking.NoOwner) {
		t.Fatal("discard released the held lock (must be a separate mechanism)")
	}
}

func TestRetryAfterRollbackSucceeds(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	h.ArmInjection(250, func(InjectionPoint) (InjectAction, string) { return ActionPanic, "x" })
	d, _ := h.Domain(1)
	frame := d.MemStart + 5
	call := &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1, Args: [4]uint64{hypercall.MMUPin, uint64(frame)}}
	h.Dispatch(1, call)
	pending := h.DiscardAllThreads()
	h.Locks.UnlockHeapLocks()
	h.Locks.UnlockStaticSegment()
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)
	if !call.Done {
		t.Fatal("retried call did not complete")
	}
	f := h.Frames.Frame(frame)
	if f.UseCount != 1 || !f.Validated {
		t.Fatalf("frame after retry: %+v", *f)
	}
	if failed, reason := h.Failed(); failed {
		t.Fatalf("failed: %s", reason)
	}
}

func TestRetryPoisonedCallAsserts(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	var panics []string
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { panics = append(panics, reason) })
	// Inject inside the unmitigated window: entry+lock+inc+write+validate
	// = 150+40+60+120+80 = 450; budget 455 lands in "window" (8).
	h.ArmInjection(455, func(pt InjectionPoint) (InjectAction, string) {
		if !pt.Unmitigated {
			return ActionContinue, ""
		}
		return ActionPanic, "in window"
	})
	d, _ := h.Domain(1)
	frame := d.MemStart + 5
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(frame)}})
	if len(panics) != 1 {
		t.Fatalf("panics = %v (injection missed the window)", panics)
	}
	pending := h.DiscardAllThreads()
	if len(pending) != 1 || !pending[0].Poisoned {
		t.Fatalf("pending = %+v, want poisoned", pending)
	}
	h.Locks.UnlockHeapLocks()
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)
	// Poisoned retry: no rollback, the pin re-executes on an
	// already-pinned frame and the validate assertion fires.
	if len(panics) != 2 || !strings.Contains(panics[1], "refcount 2") {
		t.Fatalf("panics = %v, want post-retry refcount assertion", panics)
	}
}

func TestDropPendingCallsFailsGuest(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	h.ArmInjection(250, func(InjectionPoint) (InjectAction, string) { return ActionPanic, "x" })
	d, _ := h.Domain(1)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 5)}})
	pending := h.DiscardAllThreads()
	h.DropPendingCalls(pending)
	if !d.Failed {
		t.Fatal("guest not failed after dropped hypercall")
	}
	if h.Stats.DroppedCalls != 1 {
		t.Fatalf("DroppedCalls = %d", h.Stats.DroppedCalls)
	}
}

func TestEnforceIRQInvariant(t *testing.T) {
	h, _ := newBooted(t)
	var panics []string
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { panics = append(panics, reason) })
	h.PerCPU(2).LocalIRQCount = 1
	if h.EnforceIRQInvariant() {
		t.Fatal("invariant passed with stale irq count")
	}
	if len(panics) != 1 || !strings.Contains(panics[0], "!in_irq") {
		t.Fatalf("panics = %v", panics)
	}
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	if !h.EnforceIRQInvariant() {
		t.Fatal("invariant failed after clear")
	}
}

func TestEnforceSchedInvariantsPanicOrVMFail(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	var panics []string
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { panics = append(panics, reason) })
	d, _ := h.Domain(1)
	// State mismatch => deterministic panic.
	v := d.VCPUs[0]
	v.State = sched.Blocked // while still percpu.curr
	if h.EnforceSchedInvariants() {
		t.Fatal("invariants passed with state mismatch")
	}
	if len(panics) != 1 {
		t.Fatalf("panics = %v", panics)
	}
}

func TestEnforceSchedInvariantsStarvedFailsVM(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	d, _ := h.Domain(1)
	v := d.VCPUs[0]
	// Make the vCPU runnable-but-unqueued: discard it from curr without
	// queueing (simulates an abandoned switch).
	h.Sched.Block(1)
	v.State = sched.Runnable // but Block left it off the runqueue
	if !h.EnforceSchedInvariants() {
		t.Fatal("starvation must not panic the hypervisor")
	}
	if !d.Failed || !strings.Contains(d.FailReason, "starved") {
		t.Fatalf("domain fail = %v %q", d.Failed, d.FailReason)
	}
}

func TestEnforceCrossCPUWaits(t *testing.T) {
	h, _ := newBooted(t)
	var panics []string
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { panics = append(panics, reason) })
	if !h.EnforceCrossCPUWaits() {
		t.Fatal("empty wait list failed")
	}
	h.AddCrossCPUWait(CrossCPUWait{Requester: 2, Responder: 1, Desc: "tlb flush"})
	if got := len(h.crossCPUWaits); got != 1 {
		t.Fatalf("waits = %d", got)
	}
	if h.EnforceCrossCPUWaits() {
		t.Fatal("surviving wait passed")
	}
	if len(panics) != 1 || !strings.Contains(panics[0], "waiting forever") {
		t.Fatalf("panics = %v", panics)
	}
	h.ClearCrossCPUWaits()
	if len(h.crossCPUWaits) != 0 {
		t.Fatal("waits not cleared")
	}
}

func TestPauseDefersDispatchAndInterrupts(t *testing.T) {
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.Pause()
	if !h.Paused() {
		t.Fatal("not paused")
	}
	call := &hypercall.Call{Op: hypercall.OpVCPUOp, Dom: 1}
	h.Dispatch(1, call)
	if call.Done {
		t.Fatal("dispatch ran while paused")
	}
	// Device interrupt during pause stays pending.
	h.Machine.Block().Submit(hw.BlockRequest{Owner: 1})
	clk.RunUntil(clk.Now() + time.Millisecond)
	if h.Stats.DeviceIRQs != 0 {
		t.Fatal("device IRQ ran while paused")
	}
	var ran bool
	h.WhenRunnable(func() { ran = true })
	h.ResumeRunnable()
	if !call.Done || !ran {
		t.Fatalf("deferred work not run: done=%v ran=%v", call.Done, ran)
	}
	// Pending device interrupt delivered after resume.
	if h.Stats.DeviceIRQs == 0 {
		t.Fatal("pending device IRQ not delivered after resume")
	}
}

func TestNMIHookRunsEvenWhenInterruptsDisabled(t *testing.T) {
	h, clk := newBooted(t)
	var nmis []int
	h.SetNMIHook(func(cpu int) { nmis = append(nmis, cpu) })
	h.Machine.CPU(2).IntrDisabled = true
	h.Machine.CPU(2).StartPerfNMI(100 * time.Millisecond)
	clk.RunUntil(150 * time.Millisecond)
	if len(nmis) != 1 || nmis[0] != 2 {
		t.Fatalf("nmis = %v", nmis)
	}
	if h.percpu[2].LocalIRQCount != 0 {
		t.Fatal("NMI exit did not restore irq count")
	}
}

func TestReprogramAllAPICsRevivesDeadTimer(t *testing.T) {
	h, _ := newBooted(t)
	h.Machine.CPU(3).DisarmTimer() // the §V-A hazard state
	if h.Machine.CPU(3).TimerArmed() {
		t.Fatal("disarm failed")
	}
	h.ReprogramAllAPICs()
	if !h.Machine.CPU(3).TimerArmed() {
		t.Fatal("APIC not re-armed")
	}
}

func TestPanicAtNextStep(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	var panics []string
	h.SetPanicHook(func(cpu int, _ Cause, reason string) { panics = append(panics, reason) })
	h.PanicAtNextStep(1, CauseOther, "latent corruption")
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpVCPUOp, Dom: 1})
	if len(panics) != 1 || panics[0] != "latent corruption" {
		t.Fatalf("panics = %v", panics)
	}
	if h.PerCPU(1).Current == nil {
		t.Fatal("call not left pending at delayed detection")
	}
}

func TestMulticallDispatchAndRetrySkipsCompleted(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	d, _ := h.Domain(1)
	base := d.MemStart + 20
	batch := &hypercall.Call{Op: hypercall.OpMulticall, Dom: 1}
	for i := 0; i < 3; i++ {
		batch.Batch = append(batch.Batch, &hypercall.Call{
			Op: hypercall.OpMMUUpdate, Dom: 1,
			Args: [4]uint64{hypercall.MMUPin, uint64(base + i)},
		})
	}
	// Inject during the second component (first completed):
	// component prog = 508 instrs + 15 log; entry 60.
	h.ArmInjection(60+508+15+200, func(InjectionPoint) (InjectAction, string) {
		return ActionPanic, "mid-batch"
	})
	h.Dispatch(1, batch)
	if batch.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", batch.Completed)
	}
	pending := h.DiscardAllThreads()
	h.Locks.UnlockHeapLocks()
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)
	if batch.Completed != 3 {
		t.Fatalf("Completed = %d after retry, want 3", batch.Completed)
	}
	for i := 0; i < 3; i++ {
		if got := h.Frames.Frame(base + i).UseCount; got != 1 {
			t.Fatalf("frame %d UseCount = %d, want 1 (no double pin)", base+i, got)
		}
	}
}

func TestIPIDelivery(t *testing.T) {
	h, _ := newBooted(t)
	before, irqs := h.percpu[2].LocalIRQCount, h.Stats.Interrupts
	// An IPI vector reaches cpu2 through a redirection entry pointing at
	// it (the corrupted-vector IO-APIC case).
	h.Machine.IOAPIC().Route(hw.IRQBlock, 2, hw.VecIPI)
	h.Machine.IOAPIC().Raise(hw.IRQBlock)
	if h.Stats.Interrupts == irqs {
		t.Fatal("IPI not counted")
	}
	if h.percpu[2].LocalIRQCount != before {
		t.Fatal("IPI program left irq count unbalanced")
	}
}

func TestFSGSLossOnRebootWithoutSave(t *testing.T) {
	// §IV "Save FS/GS": the reboot clobbers the guest FS/GS bases; if
	// they were not saved at detection, the vCPU on a busy CPU loses its
	// register state and its domain fails.
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetPanicHook(func(int, Cause, string) {})
	d, _ := h.Domain(1)
	h.ArmInjection(250, func(hv InjectionPoint) (InjectAction, string) { return ActionPanic, "x" })
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
	h.DiscardAllThreads()
	// No SaveFSGS (the mechanisms bundle is off): the reboot loses them.
	h.ApplyFSGSLoss()
	if !d.Failed || !strings.Contains(d.FailReason, "FS/GS") {
		t.Fatalf("domain fail = %v %q", d.Failed, d.FailReason)
	}
	v := d.VCPUs[0]
	if v.ContextValid {
		t.Fatal("vCPU context still valid after FS/GS loss")
	}

	// With the save, nothing is lost.
	h2, _ := newBooted(t)
	addAppVM(t, h2, 1, 1)
	h2.SetPanicHook(func(int, Cause, string) {})
	d2, _ := h2.Domain(1)
	h2.ArmInjection(250, func(hv InjectionPoint) (InjectAction, string) { return ActionPanic, "x" })
	h2.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d2.MemStart + 7)}})
	h2.DiscardAllThreads()
	h2.SaveFSGS()
	h2.ApplyFSGSLoss()
	if d2.Failed {
		t.Fatalf("domain failed despite FS/GS save: %s", d2.FailReason)
	}
}

func TestSchedFluxDraw(t *testing.T) {
	// With probability 1, discarding all threads must leave detectable
	// scheduling-metadata damage that RepairFromPerCPU fixes.
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.SetSchedFluxProb(1.0)
	h.DiscardAllThreads()
	if len(h.Sched.CheckConsistency()) == 0 {
		t.Fatal("flux draw at p=1 produced no inconsistency")
	}
	h.Sched.RepairFromPerCPU()
	if len(h.Sched.CheckConsistency()) != 0 {
		t.Fatal("repair did not fix flux damage")
	}
	if h.RecoveryEpoch() == 0 {
		t.Fatal("recovery epoch not advanced by discard")
	}
}

func TestRegisterContextFollowsVCPUs(t *testing.T) {
	// Two vCPUs time-sharing CPU 1 must each see their own register file
	// across context switches.
	h, clk := newBooted(t)
	addAppVM(t, h, 1, 1)
	addAppVM(t, h, 2, 1)
	d1, _ := h.Domain(1)
	d2, _ := h.Domain(2)
	v1, v2 := d1.VCPUs[0], d2.VCPUs[0]
	v1.Context[hw.RAX] = 0x1111
	v2.Context[hw.RAX] = 0x2222
	// v1 is running (created first): its context is live on the CPU only
	// after a switch loads it; force one full rotation via yields.
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpSchedOp, Dom: 1, Args: [4]uint64{hypercall.SchedYield}})
	// Now v2 runs with its context loaded.
	if h.Sched.Curr(1) == v2 && h.Machine.CPU(1).Regs[hw.RAX] != 0x2222 {
		t.Fatalf("v2 scheduled but RAX = %#x", h.Machine.CPU(1).Regs[hw.RAX])
	}
	// Let the guest-visible register change while v2 runs.
	h.Machine.CPU(1).Regs[hw.RBX] = 0xbeef
	h.Dispatch(2, &hypercall.Call{Op: hypercall.OpSchedOp, Dom: 2, Args: [4]uint64{hypercall.SchedYield}})
	// v1 back: RAX restored; v2's saved context captured RBX.
	if h.Sched.Curr(1) == v1 {
		if h.Machine.CPU(1).Regs[hw.RAX] != 0x1111 {
			t.Fatalf("v1 context not restored: RAX = %#x", h.Machine.CPU(1).Regs[hw.RAX])
		}
		if v2.Context[hw.RBX] != 0xbeef {
			t.Fatalf("v2 context not saved: RBX = %#x", v2.Context[hw.RBX])
		}
	}
	clk.RunUntil(clk.Now() + 50*time.Millisecond)
	if failed, reason := h.Failed(); failed {
		t.Fatal(reason)
	}
}

func TestDefaultConfigAndAccessors(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Machine.CPUs != 8 || cfg.Machine.MemoryMB != 8192 {
		t.Fatalf("DefaultConfig machine = %+v, want the paper's testbed", cfg.Machine)
	}
	if !cfg.LoggingEnabled || !cfg.RecoveryPrep || cfg.HeapFrames <= 0 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	h, _ := newBooted(t)
	h.ArmInjection(100, func(InjectionPoint) (InjectAction, string) { return ActionContinue, "" })
	if !h.injectArmed || h.injectBudget != 100 {
		t.Fatalf("armed=%v budget=%d after arm", h.injectArmed, h.injectBudget)
	}
}

func TestDomctlCreateThroughHypervisor(t *testing.T) {
	// The domctl path wires through hv.createDomainFromSpec: the created
	// domain gets the full substrate (evtchn table, grant table, ring).
	h, _ := newBooted(t)
	h.Dispatch(0, &hypercall.Call{
		Op: hypercall.OpDomctl, Dom: 0,
		Args:   [4]uint64{hypercall.DomctlCreate},
		Create: &hypercall.CreateSpec{ID: 5, Name: "created", MemPages: 1024, PinCPU: 2},
	})
	d, err := h.Domain(5)
	if err != nil {
		t.Fatalf("domain not created: %v", err)
	}
	if d.Events == nil || d.GrantTab == nil || d.Maptrack == nil {
		t.Fatal("created domain missing substrate tables")
	}
	if d.RingPort == 0 {
		t.Fatal("created domain has no ring channel to the PrivVM")
	}
	if v := h.Sched.Curr(2); v == nil || v.Domain != 5 {
		t.Fatal("created domain's vCPU not running on its pinned CPU")
	}
}
