package audit

import (
	"fmt"
	"runtime"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
	"nilihype/internal/telemetry"
)

// Modeled per-unit costs of the walk over the non-memory-sized structures:
// the global structures have fixed costs, the per-CPU and per-guest walks
// charge per domain, and the serialized linkage-apply step pays a fixed
// coordination cost. The page-frame unit's cost is memory-sized and comes
// from Options.FrameScanCost.
const (
	costDomainList  = 60 * time.Microsecond
	costScratch     = 40 * time.Microsecond
	costFreeList    = 80 * time.Microsecond
	costHeapObjects = 90 * time.Microsecond
	costLocks       = 30 * time.Microsecond
	costSched       = 120 * time.Microsecond
	costTimersCPU   = 20 * time.Microsecond
	costEvtchnScan  = 60 * time.Microsecond
	costGrantsGuest = 40 * time.Microsecond
	costLinkApply   = 70 * time.Microsecond
	costIOAPIC      = 25 * time.Microsecond
)

// evtchnPlan is one owner's read-only scan result: the ports found broken
// and, for those with a surviving backlink, the planned relink target.
// Scans run concurrently across owners because they write nothing; the
// serialized linkage-apply unit performs the writes in owner order,
// rechecking intactness at visit time.
type evtchnPlan struct {
	owner  int
	broken []int
	relink map[int][2]int
}

// Run audits the paused hypervisor and repairs what it can. It must be
// called while recovery holds the system paused, after the attempt's own
// repair enhancements have run.
//
// The walk is a recovery-domain plan scheduled on Options.RepairCPUs
// simulated lanes; one lane is the serial walk. The dependency graph has
// three levels:
//
//  1. global (serial): domain list, static scratch, heap free list, live
//     heap objects, page frames, lock table — repairs later walks depend
//     on, plus structures with cross-domain reach.
//  2. domains (concurrent): scheduler metadata, each CPU's timer heap,
//     each guest's event-channel scan (read-only) and grant-count
//     rewrite. Units own disjoint state and never touch the virtual
//     clock, telemetry, or RNG streams.
//  3. linkage (serial): APIC reprogramming for repaired timer CPUs and
//     the event-channel relink/close/sacrifice writes planned by the
//     scans.
//
// Every unit reports into a private shard merged in plan order, so the
// Report's findings are identical at any lane count and whether the domain
// level executes on one goroutine (GOMAXPROCS 1) or many; only
// Report.Timing varies with the lanes.
func Run(h *hv.Hypervisor, opts Options) *Report {
	now := h.Clock.Now()
	doms := h.Domains.Preserved()
	ncpu := h.Timers.NumCPUs()
	owners := h.Broker.Owners()
	gdom := recdomain.Domain{Kind: recdomain.Global}

	var shards []*Report
	shard := func() *Report {
		s := &Report{}
		shards = append(shards, s)
		return s
	}

	global := recdomain.Level{Name: "global", Serial: true}
	addGlobal := func(name string, cost time.Duration, fn func(sr *Report)) {
		sr := shard()
		global.Units = append(global.Units, recdomain.Unit{
			Dom: gdom, Name: name, Cost: cost, Run: func() { fn(sr) },
		})
	}

	addGlobal("audit.domain-list", costDomainList, func(sr *Report) {
		if err := h.Domains.CheckLinks(); err != nil {
			fixed := h.Domains.Rebuild()
			sr.add(ClassDomainList, fmt.Sprintf("relinked from %d preserved structures (%d links fixed)", len(doms), fixed), Repaired)
		}
	})
	addGlobal("audit.static-scratch", costScratch, func(sr *Report) {
		if damaged := h.StaticScratchDamage(); len(damaged) > 0 {
			for _, w := range damaged {
				sr.add(ClassStaticScratch, fmt.Sprintf("scratch word %d does not match boot pattern", w), Repaired)
			}
			h.ReinitStaticScratch()
		}
	})
	// The frame table is the free list's reliable source; rebuild from it.
	addGlobal("audit.heap-freelist", costFreeList, func(sr *Report) {
		if probs := h.Heap.ValidateFreeList(); len(probs) > 0 {
			for _, p := range probs {
				sr.add(ClassHeapFreeList, p, Repaired)
			}
			h.Heap.Rebuild()
		}
	})
	// Live heap objects: damage confined to an AppVM's struct domain is
	// degradable (re-initialize the object, sacrifice the VM); anything
	// else — PrivVM or a non-domain object — escalates, because both
	// mechanisms reuse live objects in place (§VII-A failure cause 3).
	addGlobal("audit.heap-objects", costHeapObjects, func(sr *Report) {
		for _, o := range h.Heap.DamagedObjects() {
			var owner *dom.Domain
			for _, d := range doms {
				if d.Obj == o {
					owner = d
					break
				}
			}
			if owner != nil && !owner.IsPriv {
				o.Repair()
				owner.Fail("heap object corrupted; VM sacrificed by recovery audit")
				sr.Sacrificed = append(sr.Sacrificed, owner.ID)
				sr.add(ClassHeapObject, fmt.Sprintf("object %q re-initialized; d%d sacrificed", o.Tag, owner.ID), Degraded)
				continue
			}
			sr.add(ClassHeapObject, fmt.Sprintf("object %q damaged and not confinable", o.Tag), Escalate)
		}
	})
	if !opts.SkipFrames {
		addGlobal("audit.pf-descriptors", opts.FrameScanCost, func(sr *Report) {
			if bad := h.Frames.InconsistentFrames(); len(bad) > 0 {
				fixed := h.Frames.ScanAndRepair()
				sr.add(ClassFrames, fmt.Sprintf("%d inconsistent descriptors rewritten", fixed), Repaired)
			}
		})
	}
	// Every owner thread was discarded, so any held lock is a leak. The
	// basic ladder rungs may have released these already; the audit is the
	// backstop.
	addGlobal("audit.lock-table", costLocks, func(sr *Report) {
		for _, l := range h.Locks.HeldLocks() {
			l.ForceRelease()
			sr.add(ClassLocks, fmt.Sprintf("%s lock %q held by discarded thread", l.Kind(), l.Name()), Repaired)
		}
	})

	domains := recdomain.Level{Name: "domains"}
	apicTouched := make([]bool, ncpu)
	plans := make([]*evtchnPlan, len(owners))

	if !opts.SkipSched {
		sr := shard()
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom: gdom, Name: "audit.sched", Cost: costSched, Run: func() {
				if incs := h.Sched.CheckConsistency(); len(incs) > 0 {
					fixed := h.Sched.RepairFromPerCPU()
					sr.add(ClassSched, fmt.Sprintf("%d inconsistencies; %d fields rewritten from per-CPU state", len(incs), fixed), Repaired)
				}
			},
		})
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		cpu := cpu
		sr := shard()
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerCPU, ID: cpu},
			Name: fmt.Sprintf("audit.timers.cpu%d", cpu), Cost: costTimersCPU,
			Run: func() {
				if probs := h.Timers.CheckHealthOn(cpu, now); len(probs) > 0 {
					fixed := h.Timers.RepairHeapOn(cpu, now)
					for _, p := range probs {
						sr.add(ClassTimers, fmt.Sprintf("%s (clamped; %d deadlines fixed)", p, fixed), Repaired)
					}
					apicTouched[cpu] = true
				}
				if inactive := h.Timers.InactiveRecurringOn(cpu); len(inactive) > 0 {
					names := make([]string, len(inactive))
					for i, t := range inactive {
						names[i] = t.Name
					}
					n := h.Timers.ReactivateRecurringOn(cpu, now)
					sr.add(ClassTimers, fmt.Sprintf("cpu%d: %d recurring timers dead (%v); reactivated", cpu, n, names), Repaired)
					apicTouched[cpu] = true
				}
			},
		})
	}
	for i, o := range owners {
		i, o := i, o
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerGuest, ID: o},
			Name: fmt.Sprintf("audit.evtchn.scan.d%d", o), Cost: costEvtchnScan,
			Run: func() { plans[i] = scanEvtchnOwner(h, o) },
		})
	}
	for _, d := range doms {
		d := d
		if d.GrantTab == nil {
			continue
		}
		sr := shard()
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerGuest, ID: d.ID},
			Name: fmt.Sprintf("audit.grants.d%d", d.ID), Cost: costGrantsGuest,
			Run: func() { auditGrantsFor(d, doms, sr) },
		})
	}

	linkage := recdomain.Level{Name: "linkage", Serial: true}
	{
		// The IO-APIC is shared hardware: its route check/reprogram runs at
		// the serial linkage level, so the result is bit-identical at any
		// worker count.
		sr := shard()
		linkage.Units = append(linkage.Units, recdomain.Unit{
			Dom: gdom, Name: "audit.ioapic", Cost: costIOAPIC,
			Run: func() { auditIOAPIC(h, sr) },
		})
	}
	{
		sr := shard()
		linkage.Units = append(linkage.Units, recdomain.Unit{
			Dom: gdom, Name: "audit.linkage.apply", Cost: costLinkApply,
			Run: func() {
				for cpu := 0; cpu < ncpu; cpu++ {
					if apicTouched[cpu] {
						h.Timers.ProgramAPIC(cpu)
					}
				}
				applyEvtchnPlans(h, doms, plans, sr)
			},
		})
	}

	plan := recdomain.Plan{Levels: []recdomain.Level{global, domains, linkage}}
	tm := plan.Execute(opts.RepairCPUs, min(opts.RepairCPUs, runtime.GOMAXPROCS(0)))

	r := &Report{Timing: tm}
	for _, s := range shards {
		r.Violations = append(r.Violations, s.Violations...)
		r.Repaired += s.Repaired
		r.Escalations += s.Escalations
		r.Sacrificed = append(r.Sacrificed, s.Sacrificed...)
	}

	degraded := len(r.Violations) - r.Repaired - r.Escalations
	h.Tel.Inc(telemetry.CtrAuditRuns)
	h.Tel.Add(telemetry.CtrAuditViolations, uint64(len(r.Violations)))
	h.Tel.Add(telemetry.CtrAuditRepairs, uint64(r.Repaired))
	h.Tel.Add(telemetry.CtrAuditDegraded, uint64(degraded))
	h.Tel.Add(telemetry.CtrAuditEscalate, uint64(r.Escalations))
	h.Tel.Record(0, telemetry.EvAudit, telemetry.AuditArg(len(r.Violations), r.Repaired, r.Escalations))
	return r
}

// scanEvtchnOwner finds one owner's broken inter-domain ports and the
// backlink repair targets visible in the pre-repair state. Read-only over
// every event-channel table, so scans for distinct owners may run
// concurrently.
func scanEvtchnOwner(h *hv.Hypervisor, o int) *evtchnPlan {
	pl := &evtchnPlan{owner: o}
	t := h.Broker.Table(o)
	if t == nil {
		return pl
	}
	for p := 1; p < t.Len(); p++ {
		port, _ := t.Port(p)
		if port.State != evtchn.Interdomain || linkIntact(h, o, p, port) {
			continue
		}
		pl.broken = append(pl.broken, p)
		if qd, q, ok := h.Broker.FindBacklink(o, p); ok {
			if pl.relink == nil {
				pl.relink = make(map[int][2]int)
			}
			pl.relink[p] = [2]int{qd, q}
		}
	}
	return pl
}

// applyEvtchnPlans performs the writes the concurrent scans planned, in
// owner order, rechecking intactness at visit time: an earlier relink can
// heal a later port's pair, in which case the planned write is dropped.
// Pass 1 relinks via the scanned backlinks — a port whose peer field is
// garbled is found via whichever port still points at it. The close
// decision waits for pass 2: a broken port may be the intact half of a
// pair whose other half pass 1 has yet to repair, and closing it first
// would destroy the only reliable source. Pass 2 closes ports still broken;
// losing an I/O ring channel this way is fatal to the owning AppVM, which
// is sacrificed.
func applyEvtchnPlans(h *hv.Hypervisor, doms []*dom.Domain, plans []*evtchnPlan, r *Report) {
	domByID := make(map[int]*dom.Domain, len(doms))
	for _, d := range doms {
		domByID[d.ID] = d
	}
	for _, pl := range plans {
		if pl == nil || pl.relink == nil {
			continue
		}
		t := h.Broker.Table(pl.owner)
		for _, p := range pl.broken {
			rl, ok := pl.relink[p]
			if !ok {
				continue
			}
			port, err := t.Port(p)
			if err != nil || port.State != evtchn.Interdomain || linkIntact(h, pl.owner, p, port) {
				continue
			}
			port.RemoteDom, port.RemotePort = rl[0], rl[1]
			r.add(ClassEvtchn, fmt.Sprintf("d%d port %d relinked to d%d port %d via backlink", pl.owner, p, rl[0], rl[1]), Repaired)
		}
	}
	for _, pl := range plans {
		if pl == nil {
			continue
		}
		t := h.Broker.Table(pl.owner)
		for _, p := range pl.broken {
			port, err := t.Port(p)
			if err != nil || port.State != evtchn.Interdomain || linkIntact(h, pl.owner, p, port) {
				continue
			}
			_ = t.Close(p)
			d := domByID[pl.owner]
			if d != nil && !d.IsPriv && d.RingPort == p {
				d.Fail("I/O ring event channel lost; VM sacrificed by recovery audit")
				r.Sacrificed = append(r.Sacrificed, d.ID)
				r.add(ClassEvtchn, fmt.Sprintf("d%d ring port %d unrecoverable; closed, d%d sacrificed", pl.owner, p, d.ID), Degraded)
				continue
			}
			r.add(ClassEvtchn, fmt.Sprintf("d%d port %d unrecoverable; closed", pl.owner, p), Repaired)
		}
	}
}

// auditGrantsFor recomputes granter d's grant-entry mapping counts from
// every preserved domain's maptrack table and rewrites disagreements. It
// reads all maptracks (no concurrent unit writes them) and writes only
// d's grant table, so per-guest units are mutually disjoint.
func auditGrantsFor(d *dom.Domain, doms []*dom.Domain, r *Report) {
	expected := make(map[int]int)
	for _, m := range doms {
		if m.Maptrack == nil {
			continue
		}
		for _, mp := range m.Maptrack.Mappings() {
			if mp.GranterDom == d.ID {
				expected[mp.Ref]++
			}
		}
	}
	for ref := 0; ref < d.GrantTab.Len(); ref++ {
		e, err := d.GrantTab.Entry(ref)
		if err != nil {
			continue
		}
		want := expected[ref]
		if e.MapCount != want {
			r.add(ClassGrant, fmt.Sprintf("d%d grant ref %d map count %d, maptrack says %d; rewritten", d.ID, ref, e.MapCount, want), Repaired)
			e.MapCount = want
		}
	}
}
