package core

import (
	"fmt"
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
		en.fail("recovery routine failed to be invoked (corrupted hypervisor state)")
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

	enh := en.Cfg.Enhancements
	reboot := mech.Reboots()
	// lanes is the number of simulated recovery CPUs the rung's repair and
	// audit plans are scheduled on. More than one applies to in-place rungs
	// only: a reboot rung re-initializes whole state families at once, so
	// there is nothing to partition (and Table II's boot costs dwarf any
	// overlap).
	lanes := 1
	if en.Cfg.RepairCPUs > 1 && !reboot {
		lanes = en.Cfg.RepairCPUs
	}

	// --- state repair, charged to the latency breakdown ------------------

	en.beginLatency()

	if reboot {
		en.rebootStateReinit(mech)
	} else {
		en.charge("Interrupt all CPUs and discard hypervisor stacks", microresetDiscardCost)
	}

	if enh.Has(EnhReHypeMechanisms) {
		// Release locks embedded in heap objects (ReHype's mechanism,
		// reused by NiLiHype; §III-B, §V-A).
		h.Locks.UnlockHeapLocks()
		if !reboot {
			en.charge("Release heap locks", heapLockCost)
		}
		// Acknowledge all pending and in-service interrupts (§III-B).
		h.Machine.IOAPIC().AckAll()
		for _, cpu := range h.Machine.CPUs() {
			cpu.ClearPending()
		}
		if !reboot {
			en.charge("Acknowledge pending/in-service interrupts", ackIRQCost)
		}
		// Save FS/GS at detection (§IV). Only the reboot path actually
		// clobbers them; the save makes the restore possible.
		h.SaveFSGS()
	}

	if enh.Has(EnhPFScan) {
		en.PFRepaired = h.Frames.ScanAndRepair()
		if !reboot {
			label := "Restore and check consistency of page frame entries"
			n := en.Cfg.ScanCPUs
			if n <= 1 {
				// Partitioned repair has the recovery CPUs idle during the
				// scan; use them for the §VII-B sharded walk too.
				n = lanes
			}
			if n > 1 {
				label = fmt.Sprintf("%s (%d cores)", label, n)
			}
			en.charge(label, frameScanCost(h.Machine.PageFrames(), n))
		}
	}

	if lanes > 1 && (enh.Has(EnhClearIRQCount) || enh.Has(EnhSchedConsistency)) {
		// The partitioned path performs the same IRQ and scheduler repairs
		// as the serial blocks below, as one concurrent recovery-domain
		// level charged at its makespan.
		en.runRepairPlan(enh)
	} else {
		if enh.Has(EnhClearIRQCount) || reboot {
			// Reboot re-initializes the per-CPU area, so ReHype gets this
			// inherently.
			h.ClearIRQCounts()
			if !reboot {
				en.charge("Clear IRQ counts", clearIRQCost)
			}
		}

		if enh.Has(EnhSchedConsistency) || reboot {
			// Reboot rebuilds scheduler structures while re-integrating
			// vCPUs, giving ReHype the equivalent repair.
			h.Sched.RepairFromPerCPU()
			if !reboot {
				en.charge("Ensure consistency within scheduling metadata", schedRepairCost)
			}
		}
	}

	if enh.Has(EnhUnlockStaticLocks) && !reboot {
		h.Locks.UnlockStaticSegment()
		en.charge("Unlock static locks (iterate lock segment)", staticLockCost)
	}
	if reboot {
		// Boot initializes static locks to their unlocked state (§V-A).
		h.Locks.ReinitStatic()
	}

	if enh.Has(EnhReprogramIOAPIC) && !reboot {
		// Device-corruption repair: rewrite diverged IO-APIC redirection
		// entries from the software copy recorded at boot. (Reboot rungs
		// get the equivalent from the APIC-setup boot step in
		// rebootStateReinit.)
		if h.Machine.IOAPIC().ReprogramFromBoot() > 0 {
			h.Tel.Inc(telemetry.CtrIOAPICRepairs)
		}
		en.charge("Reprogram IO-APIC redirection entries from boot routes", reprogramIOAPICCost)
	}

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
			SkipFrames: enh.Has(EnhPFScan),
			SkipSched:  enh.Has(EnhSchedConsistency) || reboot,
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
		h.PanicAtNextStep(other, "non-discarded thread hit state changed by recovery")
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

// rebootStateReinit applies the state effects of booting a new hypervisor
// instance and re-integrating preserved state (§III-B): a fresh heap free
// list, a relinked domain list, re-initialized static scratch state, and
// re-initialized hardware. This is exactly the state microreset reuses in
// place — and the reason microreboot survives some corruptions microreset
// does not (§VII-A).
func (en *Engine) rebootStateReinit(mech Mechanism) {
	h := en.H
	if mech == CheckpointRestore {
		en.chargeCheckpointTable(en.Cfg.Enhancements.Has(EnhPFScan))
	} else {
		en.chargeRebootTable(en.Cfg.Enhancements.Has(EnhPFScan))
	}
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
	enh := en.Cfg.Enhancements
	reboot := mech.Reboots()
	now := h.Clock.Now()

	// A PrivVM re-creation failure during the restart rung is the
	// attempt's failure (typically terminal: this is the last rung).
	if err := en.privRestartErr; err != nil {
		en.privRestartErr = nil
		en.attemptFailed("PrivVM restart failed: " + err.Error())
		return
	}

	// Corruption of state both mechanisms reuse (live heap objects) is
	// fatal regardless of mechanism — §VII-A failure cause 3. The audit
	// repairs AppVM-confinable object damage (sacrificing the VM);
	// whatever damage remains here escalates through the remaining rungs
	// (the reboot preserves allocated pages, so the next attempt hits the
	// same wall) and then fails terminally.
	if len(h.Heap.DamagedObjects()) > 0 {
		en.attemptFailed("post-recovery failure: reused heap object corrupted")
		return
	}
	// Static scratch corruption: the reboot re-initialized it; the
	// microreset reuses it and fails — the escalation case the hybrid
	// ladder exists for (and one the audit repairs in place).
	if len(h.StaticScratchDamage()) > 0 && !reboot {
		en.attemptFailed("post-recovery failure: corrupted static state reused by microreset")
		return
	}

	// FS/GS: the reboot clobbered them; without the detection-time save
	// the affected vCPUs lose their register state (§IV).
	if reboot && !enh.Has(EnhReHypeMechanisms) {
		h.ApplyFSGSLoss()
	}

	// Recurring timer events: reboot re-creates them during hypervisor
	// initialization; microreset reactivates them explicitly (§V-A).
	// Reactivation reprograms the APICs of the CPUs it touches (normal
	// timer-add path).
	if enh.Has(EnhReactivateTimers) || reboot {
		h.Timers.ReactivateRecurring(now)
	}
	// Timer hardware: reboot re-initializes the APICs; microreset must
	// reprogram them explicitly (§V-A).
	if enh.Has(EnhReprogramTimer) || reboot {
		h.ReprogramAllAPICs()
	}

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
	if enh.Has(EnhReHypeMechanisms) {
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
			en.attemptFailed("post-recovery hang: inconsistent page frame descriptors hit by mm path")
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
