package core

import (
	"fmt"
	"runtime"
	"time"

	"nilihype/internal/audit"
	"nilihype/internal/detect"
	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
	"nilihype/internal/telemetry"
)

// Probabilities for the DetectingOnly discard-scope ablation (§III-C).
// These model the paper's qualitative argument for discarding all threads:
// a non-discarded thread may be blocked forever on an IPI response from
// the discarded CPU, or may fail when it encounters global state the
// recovery process changed.
const (
	ipiWaitProb     = 0.10
	globalClashProb = 0.18
)

// recover runs the recovery protocol for the detection event with the
// given ladder rung. It is re-invokable: escalation calls it once per
// attempt, and each invocation re-discards execution threads and merges
// any interrupted hypercalls the previous attempt never retried.
func (en *Engine) recover(e detect.Event, mech Mechanism) {
	h := en.H
	if !h.RecoveryPathIntact() {
		// Failure cause 1 of §VII-A: the corrupted state prevents the
		// recovery routine from even being invoked — no ladder rung can
		// run (the audit never gets to execute either), so this is
		// terminal regardless of escalation policy.
		en.fail(hv.CausePathCorrupted, "recovery routine failed to be invoked (corrupted hypervisor state)")
		return
	}
	en.recovering = true

	// Initial steps (§III-B / §III-C): stop the world. All CPUs disable
	// interrupts; guest activity and device delivery are deferred.
	h.Pause()
	h.Jrn.Pause(h.Clock.Now(), e.CPU)
	if en.OnPause != nil {
		en.OnPause()
	}

	// Discard execution threads per the configured scope.
	var pending []*hv.PendingCall
	switch en.Cfg.Scope {
	case DetectingOnly:
		if p := h.DiscardThread(e.CPU); p != nil {
			pending = append(pending, p)
		}
		en.synthesizeSingleDiscardHazards(e.CPU)
	default:
		pending = h.DiscardAllThreads()
		h.ClearCrossCPUWaits()
	}
	en.mergePending(pending)

	reboot := mech.Reboots()
	// lanes is the number of simulated recovery CPUs the rung's repairs and
	// audit run on: RepairCPUs on in-place rungs, one on a reboot rung, which
	// re-initializes whole state families at once (and Table II's boot
	// costs dwarf any overlap).
	lanes := 1
	if en.Cfg.RepairCPUs > 1 && !reboot {
		lanes = en.Cfg.RepairCPUs
	}

	// --- state repair, charged to the latency breakdown ------------------

	en.Breakdown, en.Latency = nil, 0
	if reboot {
		en.rebootStateReinit(mech)
	}
	ran := en.runRepairSteps(false, mech, lanes)

	if mech == PrivVMRestart {
		// The rung's distinguishing step: reboot the PrivVM from its boot
		// image and re-attach the surviving AppVMs' I/O rings. Runs before
		// the audit so the audit validates the fresh Dom0 structures.
		en.restartPrivVM()
	}

	// Post-repair state audit (EscalationPolicy.Audit): walk the real
	// structures, repair what is repairable, sacrifice AppVMs whose
	// damage is confinable, and leave escalation-class damage for
	// complete() to trip over. Runs after the rung's own enhancements so
	// it only pays for (and finds) what they missed.
	if en.Cfg.Escalation.Audit {
		aOpts := audit.Options{
			SkipFrames: ran.Has(EnhPFScan),
			SkipSched:  ran.Has(EnhSchedConsistency),
			RepairCPUs: lanes,
		}
		if !aOpts.SkipFrames {
			// The audit's descriptor walk, sharded like the PF-scan
			// enhancement's.
			aOpts.FrameScanCost = frameScanCost(h.Machine.PageFrames(), lanes)
		}
		rep := en.workspace().walker.Run(aOpts)
		cur := &en.Attempts[len(en.Attempts)-1]
		cur.Audit = rep
		en.AuditViolations += len(rep.Violations)
		en.AuditRepaired += rep.Repaired
		en.SacrificedVMs = append(en.SacrificedVMs, rep.Sacrificed...)
		h.Jrn.Audit(h.Clock.Now(), e.CPU, len(rep.Violations), rep.Repaired,
			len(rep.Sacrificed), rep.Escalations)
		if len(rep.Sacrificed) > 0 && en.OnAuditDegraded != nil {
			// The audit accepted degraded service; the correlated
			// re-injection scenario arms itself here.
			en.OnAuditDegraded()
		}
		label := "Post-recovery state audit and repair"
		if lanes > 1 {
			// Attempt.Timing is the serialized-vs-parallel comparison; a
			// one-lane plan has nothing to compare.
			label += " (parallel domains)"
			cur.Timing.Merge(rep.Timing)
		}
		en.chargePlan(label, rep.Timing)
	}

	if !reboot {
		en.charge("Retry bookkeeping and resume setup", resumeSetupCost)
	}

	en.Latency = en.totalLatency()
	h.Tel.Observe(telemetry.HistAttemptLatencyUs, uint64(en.Latency/time.Microsecond))
	cur := &en.Attempts[len(en.Attempts)-1]
	cur.Latency = en.Latency
	cur.Breakdown = en.Breakdown
	if cur.Timing.Units > 0 {
		en.RepairTiming.Merge(cur.Timing)
	}

	// The repair operations above execute while the virtual clock is
	// frozen at the detection instant; the recovery completes — and the
	// system resumes — after the modeled latency. The NetBench sender,
	// being on another host, keeps running and observes the gap.
	h.Clock.After(en.Latency, "recovery-complete", func() { en.complete(mech) })
}

// repairStep is one row of the recovery sequence: the enhancement that
// enables it (0: always), its Breakdown label and cost, and its body. A
// reboot rung runs the enabled rows and, whatever the enhancement set, the
// boot rows, uncharged: booting a fresh image performs those (§III-B,
// §V-A). Resume rows run when the attempt completes, the rest at
// detection. A row with a unit name is recovery-domain work: at more than
// one lane, adjacent unit rows run as one concurrent level, a perCPU row
// as one unit per CPU costing its share of the row.
type repairStep struct {
	enh    Enhancements
	boot   bool
	resume bool
	label  string
	cost   time.Duration
	// scan marks the page-frame walk, whose cost scales with memory and
	// shards over the lanes (§VII-B).
	scan   bool
	unit   string
	perCPU bool
	do     func(h *hv.Hypervisor, arg int)
}

// repairSteps is the recovery sequence in execution order; its in-place
// costs itemize Table III. The three ReHype mechanisms NiLiHype reuses
// (§III-B, §IV) release heap-embedded locks, acknowledge pending and
// in-service interrupts, and save FS/GS, which only a reboot clobbers.
var repairSteps = [...]repairStep{
	{label: "Interrupt all CPUs and discard hypervisor stacks", cost: 150 * time.Microsecond},
	{enh: EnhReHypeMechanisms, label: "Release heap locks", cost: 120 * time.Microsecond,
		do: func(h *hv.Hypervisor, _ int) { h.Locks.UnlockHeapLocks() }},
	{enh: EnhReHypeMechanisms, label: "Acknowledge pending/in-service interrupts", cost: 60 * time.Microsecond,
		do: func(h *hv.Hypervisor, _ int) {
			h.Machine.IOAPIC().AckAll()
			for _, cpu := range h.Machine.CPUs() {
				cpu.ClearPending()
			}
		}},
	{enh: EnhReHypeMechanisms, do: func(h *hv.Hypervisor, _ int) { h.SaveFSGS() }},
	{enh: EnhPFScan, label: "Restore and check consistency of page frame entries", scan: true,
		do: func(h *hv.Hypervisor, _ int) { h.Frames.ScanAndRepair() }},
	{enh: EnhClearIRQCount, boot: true, label: "Clear IRQ counts", cost: 10 * time.Microsecond,
		unit: "repair.irq", perCPU: true, do: (*hv.Hypervisor).ClearIRQCountOn},
	{enh: EnhSchedConsistency, boot: true, label: "Ensure consistency within scheduling metadata", cost: 280 * time.Microsecond,
		unit: "repair.sched", do: func(h *hv.Hypervisor, _ int) { h.Sched.RepairFromPerCPU() }},
	{enh: EnhUnlockStaticLocks, boot: true, label: "Unlock static locks (iterate lock segment)", cost: 40 * time.Microsecond,
		do: func(h *hv.Hypervisor, _ int) { h.Locks.UnlockStaticSegment() }},
	// Reactivating a recurring timer reprograms its CPU's APIC (the
	// normal timer-add path).
	{enh: EnhReactivateTimers, boot: true, resume: true,
		do: func(h *hv.Hypervisor, _ int) { h.Timers.ReactivateRecurring(h.Clock.Now()) }},
	{enh: EnhReprogramTimer, boot: true, resume: true, do: func(h *hv.Hypervisor, _ int) { h.ReprogramAllAPICs() }},
}

func (s *repairStep) enabled(enh Enhancements) bool { return s.enh == 0 || enh.Has(s.enh) }

// costOn returns the row's cost over frames descriptors on lanes CPUs.
func (s *repairStep) costOn(frames, lanes int) time.Duration {
	if s.scan {
		return frameScanCost(frames, lanes)
	}
	return s.cost
}

// runRepairSteps runs rung mech's rows of one half of repairSteps, resume
// or detection, and returns the configured enhancement set plus the bits
// of the boot rows that ran. A reboot charges no row. In place, at one
// lane each row charges its own Breakdown step; at more, each run of
// adjacent unit rows is one recovery-domain level, and the scan shards
// over the lanes.
func (en *Engine) runRepairSteps(resume bool, mech Mechanism, lanes int) (ran Enhancements) {
	h := en.H
	ran = en.Cfg.Enhancements
	for i := 0; i < len(repairSteps); i++ {
		s := &repairSteps[i]
		if s.resume != resume {
			continue
		}
		if s.unit != "" && lanes > 1 {
			i = en.runRepairLevel(i, lanes)
			continue
		}
		if !s.enabled(en.Cfg.Enhancements) && !(s.boot && mech.Reboots()) {
			continue
		}
		ran |= s.enh
		if s.perCPU {
			for cpu := 0; cpu < h.NumCPUs(); cpu++ {
				s.do(h, cpu)
			}
		} else if s.do != nil {
			s.do(h, 0)
		}
		if mech.Reboots() || s.label == "" {
			continue
		}
		label := s.label
		if s.scan && lanes > 1 {
			label = fmt.Sprintf("%s (%d cores)", label, lanes)
		}
		en.charge(label, s.costOn(h.Machine.PageFrames(), lanes))
	}
	return ran
}

// runRepairLevel runs the enabled units of the adjacent unit rows starting
// at row i as one concurrent level on lanes simulated CPUs, charges its
// makespan as "Parallel domain repair", and returns the run's last row.
func (en *Engine) runRepairLevel(i, lanes int) int {
	ws := en.workspace()
	lv := &ws.repair.Levels[0]
	lv.Units = lv.Units[:0]
	for ; i < len(repairSteps) && repairSteps[i].unit != ""; i++ {
		if repairSteps[i].enabled(en.Cfg.Enhancements) {
			lv.Units = append(lv.Units, ws.units[i]...)
		}
	}
	if len(lv.Units) > 0 {
		tm := ws.repair.Execute(lanes, min(lanes, runtime.GOMAXPROCS(0)))
		en.chargePlan("Parallel domain repair", tm)
		en.Attempts[len(en.Attempts)-1].Timing.Merge(tm)
	}
	return i - 1
}

// mergePending folds a fresh discard's interrupted calls into the calls a
// failed previous attempt still owes. A call interrupted again while the
// failed attempt was retrying it appears in both lists; the fresh record
// wins (current step, current poison state). Order stays deterministic:
// stale calls first, in their original order, then the new ones in CPU
// order.
func (en *Engine) mergePending(fresh []*hv.PendingCall) {
	if len(en.pending) == 0 {
		en.pending = fresh
		return
	}
	superseded := make(map[*hypercall.Call]bool, len(fresh))
	for _, p := range fresh {
		superseded[p.Call] = true
	}
	merged := make([]*hv.PendingCall, 0, len(en.pending)+len(fresh))
	for _, p := range en.pending {
		if !superseded[p.Call] {
			merged = append(merged, p)
		}
	}
	en.pending = append(merged, fresh...)
}

// synthesizeSingleDiscardHazards draws the §III-C failure modes that only
// arise when non-detecting CPUs keep their execution threads.
func (en *Engine) synthesizeSingleDiscardHazards(detectCPU int) {
	h := en.H
	if h.NumCPUs() < 2 {
		return
	}
	other := (detectCPU + 1 + h.RNG.IntN(h.NumCPUs()-1)) % h.NumCPUs()
	if h.RNG.Float64() < ipiWaitProb {
		h.AddCrossCPUWait(hv.CrossCPUWait{
			Requester: other,
			Responder: detectCPU,
			Desc:      "remote TLB flush awaiting discarded responder",
		})
	}
	if h.RNG.Float64() < globalClashProb {
		h.PanicAtNextStep(other, hv.CauseOther, "non-discarded thread hit state changed by recovery")
	}
}

// PrivVM restart costs: rebooting Dom0 from its boot image is a guest OS
// boot — orders of magnitude above any hypervisor repair step but far
// below a full host reboot — plus a per-surviving-VM ring re-attach.
const (
	privVMBootCost      = 1500 * time.Millisecond
	privVMReattachPerVM = 40 * time.Millisecond
)

// restartPrivVM performs the PrivVM-restart rung's distinguishing work:
// destroy what remains of Dom0, create a fresh one from the boot image,
// and re-bind every surviving AppVM's I/O ring to it. A re-creation
// failure is stashed for complete() to escalate on.
func (en *Engine) restartPrivVM() {
	n, err := en.H.RestartPrivVM()
	if err != nil {
		en.privRestartErr = err
	}
	en.PrivVMReattached = n
	en.chargeGroup("PrivVM restart",
		LatencyStep{Name: "Reboot PrivVM from boot image", Dur: privVMBootCost},
		LatencyStep{Name: "Re-attach surviving AppVM I/O rings", Dur: time.Duration(n) * privVMReattachPerVM},
	)
}

// rebootStateReinit applies the state effects only booting a new
// hypervisor instance has (§III-B): a fresh heap free list, a relinked
// domain list, re-initialized static scratch state and re-initialized
// hardware; the boot rows of repairSteps do the rest. This is state
// microreset reuses in place — the reason microreboot survives some
// corruptions microreset does not (§VII-A).
func (en *Engine) rebootStateReinit(mech Mechanism) {
	h := en.H
	en.chargeBootTable(mech)
	h.Heap.Rebuild()
	h.Domains.Rebuild()
	h.ReinitStaticScratch()
	// The "setup IO APIC" boot step re-programs the redirection table from
	// the boot routes, so reboot rungs repair device corruption inherently.
	if h.Machine.IOAPIC().ReprogramFromBoot() > 0 {
		h.Tel.Inc(telemetry.CtrIOAPICRepairs)
	}
}

// complete finishes a recovery attempt after the latency elapses:
// hardware is re-armed, invariants are enforced, interrupted hypercalls
// are retried or dropped, and the system resumes. Any panic from here on
// is the attempt's failure — with attempts remaining it escalates, else it
// is terminal.
func (en *Engine) complete(mech Mechanism) {
	h := en.H
	att := len(en.Attempts)
	en.recovering = false
	en.completing = true

	// A PrivVM re-creation failure during the restart rung is the
	// attempt's failure (typically terminal: this is the last rung).
	if err := en.privRestartErr; err != nil {
		en.privRestartErr = nil
		en.attemptFailed(hv.CausePrivVMLost, "PrivVM restart failed: "+err.Error())
		return
	}

	// Corruption of state both mechanisms reuse (live heap objects) is
	// fatal regardless of mechanism — §VII-A failure cause 3. The audit
	// repairs AppVM-confinable object damage (sacrificing the VM);
	// whatever damage remains here escalates through the remaining rungs
	// (the reboot preserves allocated pages, so the next attempt hits the
	// same wall) and then fails terminally.
	if len(h.Heap.DamagedObjects()) > 0 {
		en.attemptFailed(hv.CauseReusedHeapObject, "post-recovery failure: reused heap object corrupted")
		return
	}
	// Static scratch corruption: the reboot re-initialized it; the
	// microreset reuses it and fails — the escalation case the hybrid
	// ladder exists for (and one the audit repairs in place).
	if len(h.StaticScratchDamage()) > 0 && !mech.Reboots() {
		en.attemptFailed(hv.CauseRebuiltStateReuse, "post-recovery failure: corrupted static state reused by microreset")
		return
	}

	// FS/GS: the reboot clobbered them; the vCPUs whose FS/GS the
	// detection-time save did not capture lose their register state (§IV).
	if mech.Reboots() {
		h.ApplyFSGSLoss()
	}
	// Recurring timer events and the timer hardware: reboot re-creates and
	// re-initializes them; microreset re-arms them explicitly (§V-A).
	en.runRepairSteps(true, mech, 1)

	h.ReenableCPUs()

	if mech == PrivVMRestart && en.OnPrivVMRestart != nil {
		// The fresh Dom0 exists; let the guest world re-arm its
		// management service (housekeeping tick, domctl capability).
		en.OnPrivVMRestart()
	}

	// Post-resume invariants; each violated invariant panics or fails
	// the affected VM (handled inside hv; panics arrive at OnDetection
	// as attempt failures — escalation may already have started a new
	// attempt by the time these return false).
	if !h.EnforceIRQInvariant() {
		return
	}
	if !h.EnforceSchedInvariants() {
		return
	}
	if !h.EnforceCrossCPUWaits() {
		return
	}

	// Interrupted requests: retry (with undo-log rollback) or drop. The
	// engine's carried set is consumed here; a retry interrupted again by
	// a failure stays queued inside hv and is re-captured by the next
	// attempt's discard.
	pending := en.pending
	en.pending = nil
	if en.Cfg.Enhancements.Has(EnhReHypeMechanisms) {
		h.RetryPendingCalls(pending)
	} else {
		h.DropPendingCalls(pending)
	}

	if en.Det != nil {
		en.Det.Rearm()
	}
	en.recovered = true
	h.ResumeRunnable()
	if len(en.Attempts) != att {
		// A retried call or re-delivered interrupt failed during resume
		// and escalation already opened the next attempt; this attempt's
		// completion is over.
		return
	}
	en.completing = false
	h.Tel.Counters[telemetry.CtrRecoveries]++
	h.Tel.Record(en.lastEvent.CPU, telemetry.EvRecovered, uint64(att))
	en.graceUntil = h.Clock.Now() + en.Cfg.Escalation.GraceWindow

	// Page-frame descriptors left inconsistent (the scan skipped, or
	// error propagation the repairs missed) confuse the memory-management
	// paths once the system is running again: "This can cause the
	// hypervisor to hang following recovery" (§VII-B). The retried
	// hypercalls above may have healed their own frames; whatever remains
	// is latent damage.
	if failed, _ := h.Failed(); !failed {
		if len(h.Frames.InconsistentFrames()) > 0 && h.RNG.Float64() < pfInconsistencyHangProb {
			en.attemptFailed(hv.CausePFDescriptorHang, "post-recovery hang: inconsistent page frame descriptors hit by mm path")
			return
		}
	}
	if failed, _ := h.Failed(); failed {
		return
	}
	// The attempt stably resumed guest execution: stamp the instant that
	// closes its user-visible outage window (a post-resume failure above
	// leaves ResumedAt zero — the outage runs on into the next attempt).
	en.Attempts[att-1].ResumedAt = h.Clock.Now()
	h.Jrn.Resume(h.Clock.Now(), en.lastEvent.CPU)
	if en.OnResume != nil {
		en.OnResume()
	}
	// Stable-recovery hook: immediate for one-shot configurations; for
	// escalating ones, deferred until the grace window passes without a
	// re-detection (a new attempt invalidates the callback).
	if grace := en.Cfg.Escalation.GraceWindow; grace > 0 {
		h.Clock.After(grace, "recovery-grace", func() {
			if len(en.Attempts) != att || !en.Recovered() {
				return
			}
			if en.OnRecovered != nil {
				en.OnRecovered()
			}
		})
	} else if en.OnRecovered != nil {
		en.OnRecovered()
	}
}

// pfInconsistencyHangProb is the chance that a surviving descriptor
// inconsistency is exercised (and hangs the hypervisor) before the run
// ends. Calibrated against the §VII-B claim that skipping the scan costs
// ~4% of recovery rate.
const pfInconsistencyHangProb = 0.5
