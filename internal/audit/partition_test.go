package audit

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nilihype/internal/evtchn"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
)

// corruptBroadly damages one structure family per recovery-domain kind:
// global (domain list, scratch, free list, locks), per-CPU (timer heaps),
// and per-guest (event-channel linkage, grant counts, the AppVM's heap
// object). The shared rng keeps two targets' damage identical.
func corruptBroadly(t *testing.T, h *hv.Hypervisor, r *rand.Rand) {
	t.Helper()
	h.Domains.CorruptLink(r)
	h.CorruptStaticScratchWord(r)
	h.Heap.CorruptFreeList(r)
	h.Locks.CorruptRandomHold(r)
	h.Broker.CorruptRandomLink(r)
	h.Timers.CorruptRandom(r)
	h.Frames.CorruptRandomDescriptor(r)
	h.Sched.CorruptRandom(r)
	d, err := h.Domain(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Obj.Corrupt(r)
	e, err := d.GrantTab.Entry(3)
	if err != nil {
		t.Fatal(err)
	}
	e.MapCount = 17
}

// TestPartitionedSerialVsParallelExecIdentical is the package-level half
// of the equivalence guarantee: executing the walk's units on one
// goroutine (GOMAXPROCS 1) or on RepairCPUs goroutines (GOMAXPROCS 4)
// yields byte-identical Reports — violations in the same order with the
// same text, the same sacrifices, and the same Timing. Run under -race
// this also proves the concurrent level's units touch disjoint state.
func TestPartitionedSerialVsParallelExecIdentical(t *testing.T) {
	build := func(procs int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		h, _ := newTarget(t)
		corruptBroadly(t, h, rng())
		return Run(h, Options{RepairCPUs: 4, FrameScanCost: 700 * time.Microsecond})
	}
	serial := build(1)
	for i := 0; i < 5; i++ {
		parallel := build(4)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("parallel execution %d diverged from serial:\nserial:   %+v\nparallel: %+v", i, serial, parallel)
		}
	}
	if serial.Timing.Units == 0 || serial.Timing.Domains < 3 {
		t.Fatalf("partitioned walk reported no timing: %+v", serial.Timing)
	}
}

// TestRepairsConvergeAcrossLanes pins the walk's substance for identical
// broad damage at every lane count: the violation classes and verdicts
// written out by hand below, the same sacrifice, findings bit-identical
// across lane counts (only Timing varies), and a system left clean enough
// that a follow-up audit finds only escalate-class leftovers.
func TestRepairsConvergeAcrossLanes(t *testing.T) {
	want := map[string][]Verdict{
		ClassDomainList:    {Repaired},
		ClassStaticScratch: {Repaired},
		ClassHeapFreeList:  {Repaired, Repaired},
		ClassHeapObject:    {Degraded},
		ClassFrames:        {Repaired},
		ClassSched:         {Repaired},
		ClassLocks:         {Repaired},
		ClassTimers:        {Repaired},
		ClassEvtchn:        {Repaired},
		ClassGrant:         {Repaired},
	}
	var ref *Report
	for _, cpus := range []int{0, 1, 4} {
		h, _ := newTarget(t)
		corruptBroadly(t, h, rng())
		r := Run(h, Options{RepairCPUs: cpus, FrameScanCost: 700 * time.Microsecond})
		if got := classes(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("cpus=%d: verdicts by class = %v, want %v", cpus, got, want)
		}
		if !reflect.DeepEqual(r.Sacrificed, []int{1}) {
			t.Fatalf("cpus=%d: Sacrificed = %v, want [1]", cpus, r.Sacrificed)
		}
		if again := Run(h, Options{RepairCPUs: cpus}); len(again.Violations) != len(leftoverEscalations(again)) {
			t.Fatalf("cpus=%d: walk left repairable damage: %+v", cpus, again.Violations)
		}
		r.Timing = recdomain.Timing{}
		if ref == nil {
			ref = r
		} else if !reflect.DeepEqual(ref, r) {
			t.Fatalf("cpus=%d: findings diverge from cpus=0:\nref: %+v\ngot: %+v", cpus, ref, r)
		}
	}
}

// TestOneLaneChargesSerialSum: RepairCPUs 0 and 1 are the same one-lane
// plan, and one lane charges exactly the sum of its units — no
// coordination pad.
func TestOneLaneChargesSerialSum(t *testing.T) {
	at := func(cpus int) *Report {
		h, _ := newTarget(t)
		corruptBroadly(t, h, rng())
		return Run(h, Options{RepairCPUs: cpus, FrameScanCost: 700 * time.Microsecond})
	}
	r0, r1 := at(0), at(1)
	if !reflect.DeepEqual(r0, r1) {
		t.Fatalf("RepairCPUs 0 and 1 differ:\n0: %+v\n1: %+v", r0, r1)
	}
	if r0.Timing.Units == 0 || r0.Timing.Parallel != r0.Timing.Serial {
		t.Fatalf("one lane charged %v for %d units summing to %v", r0.Timing.Parallel, r0.Timing.Units, r0.Timing.Serial)
	}
	var sum time.Duration
	for _, sp := range r0.Timing.Spans {
		if sp.Lane != 0 || sp.Start != sum {
			t.Fatalf("span %q on lane %d at %v, want lane 0 at %v (plan order, back to back)", sp.Name, sp.Lane, sp.Start, sum)
		}
		sum += sp.Dur
	}
	if sum != r0.Timing.Parallel {
		t.Fatalf("spans sum to %v, charged %v", sum, r0.Timing.Parallel)
	}
}

// leftoverEscalations filters a re-audit's violations down to the ones the
// walk does not claim to repair (escalation-class damage persists by
// design: the unowned/Priv heap object stays damaged).
func leftoverEscalations(r *Report) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Verdict == Escalate {
			out = append(out, v)
		}
	}
	return out
}

// TestPartitionedCleanSystem pins the no-damage case: no violations, and
// the timing still accounts for every walked unit (the walk itself is the
// cost, findings are free).
func TestPartitionedCleanSystem(t *testing.T) {
	h, _ := newTarget(t)
	r := Run(h, Options{RepairCPUs: 4, FrameScanCost: 700 * time.Microsecond})
	if len(r.Violations) != 0 || r.Repaired != 0 || len(r.Sacrificed) != 0 || r.Escalations > 0 {
		t.Fatalf("clean system produced report %+v", r)
	}
	// 6 global units + sched + 4 CPU timer units + per-guest scans/grants
	// + the linkage apply.
	if r.Timing.Units < 12 {
		t.Fatalf("clean walk scheduled %d units, want the full plan", r.Timing.Units)
	}
	if r.Timing.Parallel >= r.Timing.Serial {
		t.Fatalf("parallel charge %v not below serialized %v", r.Timing.Parallel, r.Timing.Serial)
	}
}

// TestPartitionedTimingScalesWithCPUs: more simulated repair CPUs must
// never increase the charged makespan, and the serialized total must be
// invariant.
func TestPartitionedTimingScalesWithCPUs(t *testing.T) {
	at := func(n int) *Report {
		h, _ := newTarget(t)
		return Run(h, Options{RepairCPUs: n, FrameScanCost: 700 * time.Microsecond})
	}
	r2, r8 := at(2), at(8)
	if r8.Timing.Parallel > r2.Timing.Parallel {
		t.Fatalf("8 repair CPUs charged %v, more than 2 CPUs' %v", r8.Timing.Parallel, r2.Timing.Parallel)
	}
	if r2.Timing.Serial != r8.Timing.Serial {
		t.Fatalf("serialized totals differ with lane count: %v vs %v", r2.Timing.Serial, r8.Timing.Serial)
	}
}

// apicArmed reads every CPU's APIC timer state: the linkage unit's
// reprogramming leaves no finding in the Report, only this.
func apicArmed(h *hv.Hypervisor) []bool {
	out := make([]bool, h.NumCPUs())
	for i, c := range h.Machine.CPUs() {
		out[i] = c.TimerArmed()
	}
	return out
}

// TestWalkerReuseMatchesFresh: one walker audits two different damage sets
// back to back, as a boot image's walker does across runs. Each pass's
// Report and the APIC state its linkage step leaves must equal what a
// fresh walker produces on an identical system, at one lane and at eight,
// on one goroutine and on four: nothing the first pass left in the shards,
// the APIC marks or the event-channel plans may reach the second.
func TestWalkerReuseMatchesFresh(t *testing.T) {
	// First pass: strand cpu3's recurring timers (the walk reactivates them
	// and marks cpu3 for APIC reprogramming) and garble the AppVM's ring
	// port while its peer still links back (relinked via the backlink).
	first := func(t *testing.T, h *hv.Hypervisor) {
		if len(h.Timers.PopDue(3, h.Clock.Now()+time.Second)) == 0 {
			t.Fatal("cpu3 has no timer to strand")
		}
		ringPort(t, h).RemotePort += 13
		h.CorruptStaticScratchWord(rng())
	}
	// Second pass: cpu3's timers are healthy but its APIC shot is gone
	// (damage only the attempt's own reprogramming repairs, so the walk
	// must leave it alone), and the ring port loses both halves.
	second := func(t *testing.T, h *hv.Hypervisor) {
		h.Machine.CPU(3).DisarmTimer()
		port := ringPort(t, h)
		if err := h.Broker.Table(port.RemoteDom).Close(port.RemotePort); err != nil {
			t.Fatal(err)
		}
		port.RemotePort += 13
		d, _ := h.Domain(1)
		e, err := d.GrantTab.Entry(3)
		if err != nil {
			t.Fatal(err)
		}
		e.MapCount = 17
	}
	for _, cpus := range []int{1, 8} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("cpus=%d/procs=%d", cpus, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				opts := Options{RepairCPUs: cpus, FrameScanCost: 700 * time.Microsecond}
				reused, _ := newTarget(t)
				fresh, _ := newTarget(t)
				w := NewWalker(reused)
				for pass, damage := range []func(*testing.T, *hv.Hypervisor){first, second} {
					damage(t, reused)
					damage(t, fresh)
					got, want := w.Run(opts), Run(fresh, opts)
					if len(want.Violations) == 0 {
						t.Fatalf("pass %d: damage produced no findings", pass+1)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d: reused walker diverged from a fresh one:\nreused: %+v\nfresh:  %+v", pass+1, got, want)
					}
					if a, b := apicArmed(reused), apicArmed(fresh); !reflect.DeepEqual(a, b) {
						t.Fatalf("pass %d: APICs armed %v after the reused walker, %v after a fresh one", pass+1, a, b)
					}
				}
			})
		}
	}
}

// ringPort returns the AppVM's I/O ring event-channel port.
func ringPort(t *testing.T, h *hv.Hypervisor) *evtchn.Port {
	t.Helper()
	d, err := h.Domain(1)
	if err != nil {
		t.Fatal(err)
	}
	port, err := h.Broker.Table(1).Port(d.RingPort)
	if err != nil {
		t.Fatal(err)
	}
	return port
}
