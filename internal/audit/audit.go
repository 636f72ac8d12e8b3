// Package audit implements the post-recovery invariant auditor and repair
// engine. After a recovery attempt's state repairs (and before the system
// resumes), the auditor walks the real simulated hypervisor structures —
// frame descriptors, heap free list and live objects, scheduler runqueues,
// the lock table, timer heaps, event-channel and grant-table linkage, and
// the domain list — and classifies every invariant violation it finds:
//
//   - Repaired: fixed in place, in the spirit of the paper's Table I
//     recovery enhancements (rewrite from a reliable source, or
//     re-initialize to a fixed valid value).
//   - Degraded: the damage is confined to one AppVM's state; the repair
//     sacrifices that VM (fails its guest) and the system keeps going.
//   - Escalate: the damage cannot be repaired or confined; the attempt
//     must fall through to the next ladder rung (or fail terminally).
//
// The auditor is deliberately deterministic: every walk iterates in a
// stable order (domain insertion order, sorted table owners, timer
// (CPU, name) order) and it consumes no random numbers, so enabling it
// never perturbs the simulation's random sequences — campaign summaries
// stay bit-identical at any parallelism.
package audit

import (
	"fmt"
	"time"

	"nilihype/internal/evtchn"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
	"nilihype/internal/telemetry"
)

// Verdict classifies one violation's disposition.
type Verdict int

// Verdicts.
const (
	// Repaired: fixed in place; no guest-visible loss.
	Repaired Verdict = iota + 1
	// Degraded: repaired by sacrificing the affected AppVM.
	Degraded
	// Escalate: not repairable at this rung; the attempt must escalate.
	Escalate
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Repaired:
		return "repaired"
	case Degraded:
		return "degraded"
	case Escalate:
		return "escalate"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Violation classes, one per audited structure family.
const (
	ClassDomainList    = "domain-list"
	ClassStaticScratch = "static-scratch"
	ClassHeapFreeList  = "heap-freelist"
	ClassHeapObject    = "heap-object"
	ClassFrames        = "pf-descriptor"
	ClassSched         = "sched-meta"
	ClassLocks         = "lock-table"
	ClassTimers        = "timer-heap"
	ClassEvtchn        = "evtchn-link"
	ClassGrant         = "grant-count"
	ClassIOAPIC        = "ioapic-route"
)

// Violation is one invariant violation the auditor found.
type Violation struct {
	Class   string
	Detail  string
	Verdict Verdict
}

// Report is the outcome of one audit pass.
type Report struct {
	Violations []Violation
	// Repaired counts Repaired verdicts; Escalations counts Escalate
	// verdicts. Degraded verdicts appear in Sacrificed.
	Repaired    int
	Escalations int
	// Sacrificed lists the domain IDs failed by degradation.
	Sacrificed []int
	// Timing is the walk's recovery-domain latency accounting: the sum of
	// every unit's cost (Serial) and what the plan charges on
	// Options.RepairCPUs simulated lanes (Parallel; equal to Serial at one
	// lane).
	Timing recdomain.Timing
}

func (r *Report) add(class, detail string, v Verdict) {
	r.Violations = append(r.Violations, Violation{Class: class, Detail: detail, Verdict: v})
	switch v {
	case Repaired:
		r.Repaired++
	case Escalate:
		r.Escalations++
	}
}

// Options tunes one audit pass.
type Options struct {
	// SkipFrames skips the page-frame descriptor walk — the engine sets
	// it when the attempt's EnhPFScan enhancement already performed (and
	// paid for) that scan.
	SkipFrames bool
	// SkipSched skips the scheduler-consistency walk, likewise for
	// EnhSchedRepair.
	SkipSched bool

	// RepairCPUs is the number of simulated recovery CPUs (lanes) the
	// walk's recovery-domain plan is scheduled on, and — capped by the
	// host's GOMAXPROCS — the bound on the goroutines executing its
	// concurrent level. Report.Timing charges
	// each concurrent level as its makespan over the lanes plus the
	// serialized global and linkage work. 0/1 is one lane: the units run
	// and are charged one after another in plan order.
	RepairCPUs int
	// FrameScanCost is the modeled cost of the page-frame unit (the
	// engine computes it from memory size and lane count).
	FrameScanCost time.Duration
}

// auditIOAPIC compares the IO-APIC redirection table against the software
// copy recorded at boot and reprograms any diverged entry — the
// device-corruption repair. (A stranded in-service line is cleared by the
// attempt's interrupt-acknowledge mechanism, not here: the audit only
// touches route state it can check against a reliable source.)
func (w *Walker) auditIOAPIC(int) {
	h := w.h
	io := h.Machine.IOAPIC()
	if n := io.RouteDamage(); n > 0 {
		fixed := io.ReprogramFromBoot()
		h.Tel.Inc(telemetry.CtrIOAPICRepairs)
		w.ioapic.add(ClassIOAPIC, fmt.Sprintf("%d redirection entries diverged from boot routes; %d reprogrammed", n, fixed), Repaired)
	}
}

// linkIntact reports whether an Interdomain port's peer exists and links
// back.
func linkIntact(h *hv.Hypervisor, owner, p int, port *evtchn.Port) bool {
	rt := h.Broker.Table(port.RemoteDom)
	if rt == nil {
		return false
	}
	rp, err := rt.Port(port.RemotePort)
	if err != nil {
		return false
	}
	return rp.State == evtchn.Interdomain && rp.RemoteDom == owner && rp.RemotePort == p
}
