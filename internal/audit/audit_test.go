package audit

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/simclock"
)

// newTarget boots a hypervisor with a PrivVM and one AppVM, runs the clock
// a little, and pauses the system — the state the auditor sees.
func newTarget(t *testing.T) (*hv.Hypervisor, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 4, MemoryMB: 256, BlockSvc: 100 * time.Microsecond, NICLat: 10 * time.Microsecond},
		HeapFrames:     4096,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateDomain(1, "app", 2048, 1, false); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(30 * time.Millisecond)
	h.Pause()
	return h, clk
}

func rng() *rand.Rand { return rand.New(rand.NewPCG(21, 42)) }

// atEachLaneCount runs fn once per lane count the engine can ask for — the
// zero value, an explicit single lane, and a parallel plan — so every
// per-structure verdict below is pinned by hand at each of them.
func atEachLaneCount(t *testing.T, fn func(t *testing.T, opts Options)) {
	for _, n := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("cpus=%d", n), func(t *testing.T) {
			fn(t, Options{RepairCPUs: n, FrameScanCost: 700 * time.Microsecond})
		})
	}
}

// timerProblems collects every CPU's timer-heap health findings.
func timerProblems(h *hv.Hypervisor, now time.Duration) []string {
	var out []string
	for cpu := 0; cpu < h.Timers.NumCPUs(); cpu++ {
		out = append(out, h.Timers.CheckHealthOn(cpu, now)...)
	}
	return out
}

// classes returns the violation classes present in the report.
func classes(r *Report) map[string][]Verdict {
	out := make(map[string][]Verdict)
	for _, v := range r.Violations {
		out[v.Class] = append(out[v.Class], v.Verdict)
	}
	return out
}

func TestCleanSystemReportsNothing(t *testing.T) {
	h, _ := newTarget(t)
	r := Run(h, Options{})
	if len(r.Violations) != 0 || r.Repaired != 0 || len(r.Sacrificed) != 0 || r.Escalations > 0 {
		t.Fatalf("clean system produced report %+v", r)
	}
}

func TestDomainListRepaired(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		h.Domains.CorruptLink(rng())
		if h.Domains.CheckLinks() == nil {
			t.Fatal("corruption not detectable")
		}
		r := Run(h, opts)
		vs := classes(r)[ClassDomainList]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("domain-list verdicts = %v, want one Repaired", vs)
		}
		if err := h.Domains.CheckLinks(); err != nil {
			t.Fatalf("audit left the list damaged: %v", err)
		}
	})
}

func TestStaticScratchRepaired(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		h.CorruptStaticScratchWord(rng())
		r := Run(h, opts)
		vs := classes(r)[ClassStaticScratch]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("static-scratch verdicts = %v, want one Repaired", vs)
		}
		if len(h.StaticScratchDamage()) != 0 {
			t.Fatal("audit left scratch damage")
		}
	})
}

func TestHeapFreeListRepaired(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		h.Heap.CorruptFreeList(rng())
		r := Run(h, opts)
		vs := classes(r)[ClassHeapFreeList]
		if len(vs) == 0 || vs[0] != Repaired {
			t.Fatalf("heap-freelist verdicts = %v, want Repaired", vs)
		}
		if probs := h.Heap.ValidateFreeList(); len(probs) != 0 {
			t.Fatalf("audit left free-list damage: %v", probs)
		}
	})
}

func TestAppVMObjectDamageDegrades(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		d, err := h.Domain(1)
		if err != nil {
			t.Fatal(err)
		}
		d.Obj.Corrupt(rng())
		r := Run(h, opts)
		vs := classes(r)[ClassHeapObject]
		if len(vs) != 1 || vs[0] != Degraded {
			t.Fatalf("heap-object verdicts = %v, want one Degraded", vs)
		}
		if len(r.Sacrificed) != 1 || r.Sacrificed[0] != 1 {
			t.Fatalf("Sacrificed = %v, want [1]", r.Sacrificed)
		}
		if !d.Failed {
			t.Fatal("sacrificed AppVM not failed")
		}
		if r.Escalations > 0 {
			t.Fatal("confinable damage must not escalate")
		}
		if len(h.Heap.DamagedObjects()) != 0 {
			t.Fatal("audit left the object damaged")
		}
	})
}

func TestUnownedObjectDamageEscalates(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		o := h.Heap.Alloc(1, "anon-metadata")
		if o == nil {
			t.Fatal("alloc failed")
		}
		o.Corrupt(rng())
		r := Run(h, opts)
		vs := classes(r)[ClassHeapObject]
		if len(vs) != 1 || vs[0] != Escalate {
			t.Fatalf("heap-object verdicts = %v, want one Escalate", vs)
		}
		if r.Escalations == 0 {
			t.Fatal("no escalation for unconfinable damage")
		}
		// The damage is deliberately left in place: complete() re-detects it
		// and the engine escalates to the next rung.
		if len(h.Heap.DamagedObjects()) != 1 {
			t.Fatal("escalation-class object was repaired")
		}
	})
}

func TestPrivVMObjectDamageEscalates(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		d0, err := h.Domain(0)
		if err != nil {
			t.Fatal(err)
		}
		d0.Obj.Corrupt(rng())
		r := Run(h, opts)
		vs := classes(r)[ClassHeapObject]
		if len(vs) != 1 || vs[0] != Escalate {
			t.Fatalf("heap-object verdicts = %v, want one Escalate", vs)
		}
		if d0.Failed {
			t.Fatal("audit sacrificed the PrivVM")
		}
	})
}

func TestFrameDescriptorsRepairedUnlessSkipped(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		h.Frames.CorruptRandomDescriptor(rng())
		skip := opts
		skip.SkipFrames = true
		r := Run(h, skip)
		if len(classes(r)[ClassFrames]) != 0 {
			t.Fatal("SkipFrames still walked the frame table")
		}
		r = Run(h, opts)
		vs := classes(r)[ClassFrames]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("pf-descriptor verdicts = %v, want one Repaired", vs)
		}
		if len(h.Frames.InconsistentFrames()) != 0 {
			t.Fatal("audit left inconsistent descriptors")
		}
	})
}

func TestSchedMetadataRepairedUnlessSkipped(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		h.Sched.CorruptRandom(rng())
		if len(h.Sched.CheckConsistency()) == 0 {
			t.Skip("corruption landed on a self-consistent value")
		}
		skip := opts
		skip.SkipSched = true
		r := Run(h, skip)
		if len(classes(r)[ClassSched]) != 0 {
			t.Fatal("SkipSched still walked the scheduler")
		}
		r = Run(h, opts)
		vs := classes(r)[ClassSched]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("sched-meta verdicts = %v, want one Repaired", vs)
		}
		if len(h.Sched.CheckConsistency()) != 0 {
			t.Fatal("audit left scheduler inconsistencies")
		}
	})
}

func TestPhantomLockHoldReleased(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		name := h.Locks.CorruptRandomHold(rng())
		if name == "no free locks" {
			t.Fatal("no lock to corrupt")
		}
		r := Run(h, opts)
		vs := classes(r)[ClassLocks]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("lock-table verdicts = %v, want one Repaired", vs)
		}
		if len(h.Locks.HeldLocks()) != 0 {
			t.Fatal("audit left locks held")
		}
	})
}

func TestTimerStallRepaired(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, clk := newTarget(t)
		var desc string
		r := rng()
		for i := 0; i < 32; i++ {
			desc = h.Timers.CorruptRandom(r)
			if len(timerProblems(h, clk.Now())) > 0 {
				break
			}
		}
		if len(timerProblems(h, clk.Now())) == 0 {
			t.Fatalf("no detectable timer damage (%s)", desc)
		}
		rep := Run(h, opts)
		vs := classes(rep)[ClassTimers]
		if len(vs) == 0 || vs[0] != Repaired {
			t.Fatalf("timer-heap verdicts = %v, want Repaired", vs)
		}
		if probs := timerProblems(h, clk.Now()); len(probs) != 0 {
			t.Fatalf("audit left timer damage: %v", probs)
		}
	})
}

// TestDeadRecurringTimersReactivatedPerCPU: recurring timers popped by a
// handler whose thread was discarded never fire again; the walk reports
// one Repaired violation per affected CPU and re-queues them.
func TestDeadRecurringTimersReactivatedPerCPU(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, clk := newTarget(t)
		for _, cpu := range []int{1, 3} {
			if len(h.Timers.PopDue(cpu, clk.Now()+time.Second)) == 0 {
				t.Fatalf("cpu%d has no timer to strand", cpu)
			}
		}
		if len(h.Timers.InactiveRecurring()) == 0 {
			t.Fatal("popped timers not inactive")
		}
		r := Run(h, opts)
		vs := classes(r)[ClassTimers]
		if len(vs) != 2 || vs[0] != Repaired || vs[1] != Repaired {
			t.Fatalf("timer-heap verdicts = %v, want one Repaired per stranded CPU", vs)
		}
		if left := h.Timers.InactiveRecurring(); len(left) != 0 {
			t.Fatalf("audit left %d recurring timers dead", len(left))
		}
	})
}

func TestEvtchnLinkRepairedViaBacklink(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		if desc := h.Broker.CorruptRandomLink(rng()); desc == "no interdomain ports" {
			t.Fatal("no port to corrupt")
		}
		if len(h.Broker.CheckLinks()) == 0 {
			t.Fatal("corruption not detectable")
		}
		r := Run(h, opts)
		vs := classes(r)[ClassEvtchn]
		if len(vs) == 0 {
			t.Fatal("no evtchn violations reported")
		}
		for _, v := range vs {
			if v != Repaired {
				t.Fatalf("evtchn verdicts = %v, want all Repaired (backlink survives)", vs)
			}
		}
		if probs := h.Broker.CheckLinks(); len(probs) != 0 {
			t.Fatalf("audit left linkage damage: %v", probs)
		}
		d, _ := h.Domain(1)
		if d.Failed {
			t.Fatal("repairable link damage sacrificed the VM")
		}
	})
}

func TestRingPortLossSacrificesVM(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		d, err := h.Domain(1)
		if err != nil {
			t.Fatal(err)
		}
		t1 := h.Broker.Table(1)
		port, err := t1.Port(d.RingPort)
		if err != nil {
			t.Fatal(err)
		}
		// Destroy both halves: garble the AppVM's ring port and close the
		// PrivVM backend port it pointed at, so no backlink survives.
		peerDom, peerPort := port.RemoteDom, port.RemotePort
		if err := h.Broker.Table(peerDom).Close(peerPort); err != nil {
			t.Fatal(err)
		}
		port.RemotePort += 13
		r := Run(h, opts)
		found := false
		for _, v := range r.Violations {
			if v.Class == ClassEvtchn && v.Verdict == Degraded {
				found = true
			}
		}
		if !found {
			t.Fatalf("no Degraded evtchn violation in %+v", r.Violations)
		}
		if !d.Failed {
			t.Fatal("AppVM with lost ring port not sacrificed")
		}
		if len(r.Sacrificed) == 0 || r.Sacrificed[0] != 1 {
			t.Fatalf("Sacrificed = %v, want [1]", r.Sacrificed)
		}
	})
}

func TestGrantCountRewritten(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		h, _ := newTarget(t)
		d, err := h.Domain(1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := d.GrantTab.Entry(3)
		if err != nil {
			t.Fatal(err)
		}
		e.MapCount = 17 // phantom count with no maptrack backing
		r := Run(h, opts)
		vs := classes(r)[ClassGrant]
		if len(vs) != 1 || vs[0] != Repaired {
			t.Fatalf("grant-count verdicts = %v, want one Repaired", vs)
		}
		if e.MapCount != 0 {
			t.Fatalf("MapCount = %d after audit, want 0", e.MapCount)
		}
	})
}

func TestAuditIsDeterministic(t *testing.T) {
	atEachLaneCount(t, func(t *testing.T, opts Options) {
		// Two identical systems with identical multi-class damage must produce
		// byte-identical reports: the auditor consumes no randomness and walks
		// in stable order.
		build := func() *Report {
			h, _ := newTarget(t)
			r := rng()
			h.Domains.CorruptLink(r)
			h.CorruptStaticScratchWord(r)
			h.Heap.CorruptFreeList(r)
			h.Locks.CorruptRandomHold(r)
			h.Broker.CorruptRandomLink(r)
			d, _ := h.Domain(1)
			d.Obj.Corrupt(r)
			return Run(h, opts)
		}
		a, b := build(), build()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("reports differ:\n%+v\n%+v", a, b)
		}
		if len(a.Violations) < 5 {
			t.Fatalf("expected >=5 violations, got %d", len(a.Violations))
		}
	})
}
