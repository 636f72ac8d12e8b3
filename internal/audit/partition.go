package audit

import (
	"fmt"
	"runtime"
	"slices"
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

// The global level's units in walk order, which is also the index of each
// one's report shard.
const (
	gDomainList = iota
	gScratch
	gFreeList
	gHeapObjects
	gFrames
	gLocks
	numGlobal
)

// Walker is the audit of one hypervisor kept as data. The recovery-domain
// plan, the unit bodies (method values bound once), the unit names, the
// report shards and the event-channel plans live here, and every pass
// rewinds them, so a pass allocates only for what it finds and for the
// Report it returns. A boot image keeps one walker for all its runs; Run
// builds a fresh one. Passes on one walker must not overlap.
type Walker struct {
	h *hv.Hypervisor

	// The pass's inputs, captured at its start.
	now    time.Duration
	doms   []*dom.Domain
	owners []int

	plan recdomain.Plan // levels: global, domains, linkage

	// Report shards. Each reporting unit writes only its own, and the pass
	// merges them in plan order, so the findings do not depend on how the
	// domain level's units interleave.
	global          [numGlobal]Report
	sched           Report
	timers          []Report // by CPU
	grants          []Report // by index into doms
	ioapic, linkage Report

	// apicTouched[cpu] is set by the timer unit that repaired cpu; the
	// linkage unit reprograms those APICs. plans[i] is owners[i]'s scan.
	apicTouched []bool
	plans       []evtchnPlan

	// The fixed units and the per-domain bodies are bound once: a method
	// value made per unit per pass would be one allocation each.
	globalUnits                [numGlobal]recdomain.Unit
	schedUnit                  recdomain.Unit
	timersDo, scanDo, grantsDo func(int)
	timerNames                 []string       // by CPU
	scanNames, grantNames      map[int]string // by domain ID, built on first use
}

// NewWalker builds h's audit plan: the fixed units, their bodies and the
// per-CPU names. Per-domain units are laid out by each pass, since
// domains come and go within a run.
func NewWalker(h *hv.Hypervisor) *Walker {
	ncpu := h.Timers.NumCPUs()
	w := &Walker{
		h:           h,
		timers:      make([]Report, ncpu),
		apicTouched: make([]bool, ncpu),
		timerNames:  make([]string, ncpu),
		scanNames:   make(map[int]string),
		grantNames:  make(map[int]string),
	}
	w.timersDo, w.scanDo, w.grantsDo = w.auditTimers, w.scanEvtchn, w.auditGrants
	for cpu := range w.timerNames {
		w.timerNames[cpu] = fmt.Sprintf("audit.timers.cpu%d", cpu)
	}
	gdom := recdomain.Domain{Kind: recdomain.Global}
	w.globalUnits = [numGlobal]recdomain.Unit{
		gDomainList:  {Dom: gdom, Name: "audit.domain-list", Cost: costDomainList, Do: w.auditDomainList},
		gScratch:     {Dom: gdom, Name: "audit.static-scratch", Cost: costScratch, Do: w.auditScratch},
		gFreeList:    {Dom: gdom, Name: "audit.heap-freelist", Cost: costFreeList, Do: w.auditFreeList},
		gHeapObjects: {Dom: gdom, Name: "audit.heap-objects", Cost: costHeapObjects, Do: w.auditHeapObjects},
		gFrames:      {Dom: gdom, Name: "audit.pf-descriptors", Do: w.auditFrames},
		gLocks:       {Dom: gdom, Name: "audit.lock-table", Cost: costLocks, Do: w.auditLocks},
	}
	w.schedUnit = recdomain.Unit{Dom: gdom, Name: "audit.sched", Cost: costSched, Do: w.auditSched}
	w.plan.Levels = []recdomain.Level{
		{Name: "global", Serial: true},
		{Name: "domains"},
		// The IO-APIC is shared hardware: its route check/reprogram runs
		// at the serial linkage level, so the result is bit-identical at
		// any worker count.
		{Name: "linkage", Serial: true, Units: []recdomain.Unit{
			{Dom: gdom, Name: "audit.ioapic", Cost: costIOAPIC, Do: w.auditIOAPIC},
			{Dom: gdom, Name: "audit.linkage.apply", Cost: costLinkApply, Do: w.applyLinkage},
		}},
	}
	return w
}

// Run audits the paused hypervisor and repairs what it can with a fresh
// Walker. It must be called while recovery holds the system paused, after
// the attempt's own repair enhancements have run.
func Run(h *hv.Hypervisor, opts Options) *Report { return NewWalker(h).Run(opts) }

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
//  3. linkage (serial): the IO-APIC route check, then APIC reprogramming
//     for repaired timer CPUs and the event-channel relink/close/sacrifice
//     writes planned by the scans.
//
// Every unit reports into a private shard merged in plan order, so the
// Report's findings are identical at any lane count and whether the domain
// level executes on one goroutine (GOMAXPROCS 1) or many; only
// Report.Timing varies with the lanes. The Report is the caller's: the
// walker keeps no reference to it.
func (w *Walker) Run(opts Options) *Report {
	h := w.h
	w.now = h.Clock.Now()
	w.doms = h.Domains.Preserved()
	w.owners = h.Broker.Owners()
	w.rewind()

	global := &w.plan.Levels[0]
	global.Units = global.Units[:0]
	for k, u := range w.globalUnits {
		if k == gFrames {
			if opts.SkipFrames {
				continue
			}
			u.Cost = opts.FrameScanCost
		}
		global.Units = append(global.Units, u)
	}

	domains := &w.plan.Levels[1]
	domains.Units = domains.Units[:0]
	if !opts.SkipSched {
		domains.Units = append(domains.Units, w.schedUnit)
	}
	for cpu, name := range w.timerNames {
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerCPU, ID: cpu},
			Name: name, Cost: costTimersCPU, Do: w.timersDo, Arg: cpu,
		})
	}
	for i, o := range w.owners {
		w.plans[i].owner = o
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerGuest, ID: o},
			Name: unitName(w.scanNames, "audit.evtchn.scan.d%d", o), Cost: costEvtchnScan,
			Do: w.scanDo, Arg: i,
		})
	}
	for i, d := range w.doms {
		if d.GrantTab == nil {
			continue
		}
		domains.Units = append(domains.Units, recdomain.Unit{
			Dom:  recdomain.Domain{Kind: recdomain.PerGuest, ID: d.ID},
			Name: unitName(w.grantNames, "audit.grants.d%d", d.ID), Cost: costGrantsGuest,
			Do: w.grantsDo, Arg: i,
		})
	}

	tm := w.plan.Execute(opts.RepairCPUs, min(opts.RepairCPUs, runtime.GOMAXPROCS(0)))

	r := &Report{Timing: tm}
	for i := range w.global {
		r.absorb(&w.global[i])
	}
	r.absorb(&w.sched)
	for i := range w.timers {
		r.absorb(&w.timers[i])
	}
	for i := range w.grants {
		r.absorb(&w.grants[i])
	}
	r.absorb(&w.ioapic)
	r.absorb(&w.linkage)

	degraded := len(r.Violations) - r.Repaired - r.Escalations
	h.Tel.Inc(telemetry.CtrAuditRuns)
	h.Tel.Add(telemetry.CtrAuditViolations, uint64(len(r.Violations)))
	h.Tel.Add(telemetry.CtrAuditRepairs, uint64(r.Repaired))
	h.Tel.Add(telemetry.CtrAuditDegraded, uint64(degraded))
	h.Tel.Add(telemetry.CtrAuditEscalate, uint64(r.Escalations))
	h.Tel.Record(0, telemetry.EvAudit, telemetry.AuditArg(len(r.Violations), r.Repaired, r.Escalations))
	return r
}

// rewind clears what the previous pass left in the shards, the APIC marks
// and the event-channel plans, and sizes the per-domain storage for this
// pass's domains.
func (w *Walker) rewind() {
	for i := range w.global {
		w.global[i].rewind()
	}
	w.sched.rewind()
	for i := range w.timers {
		w.timers[i].rewind()
	}
	w.grants = slices.Grow(w.grants[:0], len(w.doms))[:len(w.doms)]
	for i := range w.grants {
		w.grants[i].rewind()
	}
	w.ioapic.rewind()
	w.linkage.rewind()
	clear(w.apicTouched)
	w.plans = slices.Grow(w.plans[:0], len(w.owners))[:len(w.owners)]
	for i := range w.plans {
		w.plans[i].broken = w.plans[i].broken[:0]
		clear(w.plans[i].relink)
	}
}

// rewind empties a shard, keeping its storage.
func (r *Report) rewind() {
	r.Violations = r.Violations[:0]
	r.Repaired, r.Escalations = 0, 0
	r.Sacrificed = r.Sacrificed[:0]
}

// absorb appends a shard's findings to r.
func (r *Report) absorb(s *Report) {
	r.Violations = append(r.Violations, s.Violations...)
	r.Repaired += s.Repaired
	r.Escalations += s.Escalations
	r.Sacrificed = append(r.Sacrificed, s.Sacrificed...)
}

// unitName returns the unit name format renders for domain id, rendering
// it only the first time: the same few domains recur in every pass.
func unitName(names map[int]string, format string, id int) string {
	n, ok := names[id]
	if !ok {
		n = fmt.Sprintf(format, id)
		names[id] = n
	}
	return n
}

func (w *Walker) auditDomainList(int) {
	h := w.h
	if err := h.Domains.CheckLinks(); err != nil {
		fixed := h.Domains.Rebuild()
		w.global[gDomainList].add(ClassDomainList, fmt.Sprintf("relinked from %d preserved structures (%d links fixed)", len(w.doms), fixed), Repaired)
	}
}

func (w *Walker) auditScratch(int) {
	h := w.h
	if damaged := h.StaticScratchDamage(); len(damaged) > 0 {
		for _, word := range damaged {
			w.global[gScratch].add(ClassStaticScratch, fmt.Sprintf("scratch word %d does not match boot pattern", word), Repaired)
		}
		h.ReinitStaticScratch()
	}
}

// auditFreeList rebuilds the heap free list from the frame table, its
// reliable source.
func (w *Walker) auditFreeList(int) {
	h := w.h
	if probs := h.Heap.ValidateFreeList(); len(probs) > 0 {
		for _, p := range probs {
			w.global[gFreeList].add(ClassHeapFreeList, p, Repaired)
		}
		h.Heap.Rebuild()
	}
}

// auditHeapObjects checks live heap objects: damage confined to an AppVM's
// struct domain is degradable (re-initialize the object, sacrifice the
// VM); anything else — PrivVM or a non-domain object — escalates, because
// both mechanisms reuse live objects in place (§VII-A failure cause 3).
func (w *Walker) auditHeapObjects(int) {
	sr := &w.global[gHeapObjects]
	for _, o := range w.h.Heap.DamagedObjects() {
		var owner *dom.Domain
		for _, d := range w.doms {
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
}

func (w *Walker) auditFrames(int) {
	h := w.h
	if bad := h.Frames.InconsistentFrames(); len(bad) > 0 {
		fixed := h.Frames.ScanAndRepair()
		w.global[gFrames].add(ClassFrames, fmt.Sprintf("%d inconsistent descriptors rewritten", fixed), Repaired)
	}
}

// auditLocks releases every held lock: every owner thread was discarded,
// so any hold is a leak. The basic ladder rungs may have released these
// already; the audit is the backstop.
func (w *Walker) auditLocks(int) {
	for _, l := range w.h.Locks.HeldLocks() {
		l.ForceRelease()
		w.global[gLocks].add(ClassLocks, fmt.Sprintf("%s lock %q held by discarded thread", l.Kind(), l.Name()), Repaired)
	}
}

func (w *Walker) auditSched(int) {
	h := w.h
	if incs := h.Sched.CheckConsistency(); len(incs) > 0 {
		fixed := h.Sched.RepairFromPerCPU()
		w.sched.add(ClassSched, fmt.Sprintf("%d inconsistencies; %d fields rewritten from per-CPU state", len(incs), fixed), Repaired)
	}
}

// auditTimers repairs one CPU's timer heap and dead recurring timers,
// marking the CPU for APIC reprogramming at the linkage level.
func (w *Walker) auditTimers(cpu int) {
	h, sr, now := w.h, &w.timers[cpu], w.now
	if probs := h.Timers.CheckHealthOn(cpu, now); len(probs) > 0 {
		fixed := h.Timers.RepairHeapOn(cpu, now)
		for _, p := range probs {
			sr.add(ClassTimers, fmt.Sprintf("%s (clamped; %d deadlines fixed)", p, fixed), Repaired)
		}
		w.apicTouched[cpu] = true
	}
	if inactive := h.Timers.InactiveRecurringOn(cpu); len(inactive) > 0 {
		names := make([]string, len(inactive))
		for i, t := range inactive {
			names[i] = t.Name
		}
		n := h.Timers.ReactivateRecurringOn(cpu, now)
		sr.add(ClassTimers, fmt.Sprintf("cpu%d: %d recurring timers dead (%v); reactivated", cpu, n, names), Repaired)
		w.apicTouched[cpu] = true
	}
}

// scanEvtchn finds owners[i]'s broken inter-domain ports and the backlink
// repair targets visible in the pre-repair state, into plans[i]. Read-only
// over every event-channel table, so scans for distinct owners may run
// concurrently.
func (w *Walker) scanEvtchn(i int) {
	h, pl := w.h, &w.plans[i]
	t := h.Broker.Table(pl.owner)
	if t == nil {
		return
	}
	for p := 1; p < t.Len(); p++ {
		port, _ := t.Port(p)
		if port.State != evtchn.Interdomain || linkIntact(h, pl.owner, p, port) {
			continue
		}
		pl.broken = append(pl.broken, p)
		if qd, q, ok := h.Broker.FindBacklink(pl.owner, p); ok {
			if pl.relink == nil {
				pl.relink = make(map[int][2]int)
			}
			pl.relink[p] = [2]int{qd, q}
		}
	}
}

func (w *Walker) auditGrants(i int) { auditGrantsFor(w.doms[i], w.doms, &w.grants[i]) }

// applyLinkage reprograms the APICs of repaired timer CPUs and performs
// the event-channel writes the scans planned.
func (w *Walker) applyLinkage(int) {
	for cpu, touched := range w.apicTouched {
		if touched {
			w.h.Timers.ProgramAPIC(cpu)
		}
	}
	applyEvtchnPlans(w.h, w.doms, w.plans, &w.linkage)
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
func applyEvtchnPlans(h *hv.Hypervisor, doms []*dom.Domain, plans []evtchnPlan, r *Report) {
	domByID := make(map[int]*dom.Domain, len(doms))
	for _, d := range doms {
		domByID[d.ID] = d
	}
	for i := range plans {
		pl := &plans[i]
		if len(pl.relink) == 0 {
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
	for i := range plans {
		pl := &plans[i]
		if len(pl.broken) == 0 {
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
