package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
)

func TestConfigMaxAttemptsAndMechanismFor(t *testing.T) {
	for _, tt := range []struct {
		name     string
		cfg      Config
		wantMax  int
		wantMech []Mechanism // per attempt index 0..wantMax-1
	}{
		{"one-shot zero value", Config{Mechanism: Microreset}, 1,
			[]Mechanism{Microreset}},
		{"ladder implies attempts", Config{Mechanism: Microreset,
			Escalation: EscalationPolicy{Ladder: []Mechanism{Microreset, Microreboot}}}, 2,
			[]Mechanism{Microreset, Microreboot}},
		{"repeated top rung", Config{Mechanism: Microreset,
			Escalation: EscalationPolicy{Ladder: []Mechanism{Microreset, Microreboot, Microreboot}}}, 3,
			[]Mechanism{Microreset, Microreboot, Microreboot}},
		{"repeated mechanism", Config{Mechanism: Microreboot,
			Escalation: EscalationPolicy{Ladder: []Mechanism{Microreboot, Microreboot}}}, 2,
			[]Mechanism{Microreboot, Microreboot}},
	} {
		if got := tt.cfg.MaxAttempts(); got != tt.wantMax {
			t.Errorf("%s: MaxAttempts = %d, want %d", tt.name, got, tt.wantMax)
		}
		for i, want := range tt.wantMech {
			if got := tt.cfg.MechanismFor(i); got != want {
				t.Errorf("%s: MechanismFor(%d) = %v, want %v", tt.name, i, got, want)
			}
		}
	}
}

func TestHybridFirstAttemptSuffices(t *testing.T) {
	r := newRig(t, HybridConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(2 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if len(r.engine.Attempts) != 1 || r.engine.Escalated() {
		t.Fatalf("attempts = %d, want 1 (no escalation for a plain failstop)", len(r.engine.Attempts))
	}
	if r.engine.Attempts[0].Mechanism != Microreset {
		t.Fatalf("first rung = %v, want Microreset", r.engine.Attempts[0].Mechanism)
	}
	if r.engine.TotalLatency() != r.engine.Latency {
		t.Fatalf("TotalLatency %v != Latency %v for a single attempt",
			r.engine.TotalLatency(), r.engine.Latency)
	}
	// Microreset territory: far below any reboot latency.
	if r.engine.TotalLatency() > 25*time.Millisecond {
		t.Fatalf("latency %v not in microreset territory", r.engine.TotalLatency())
	}
}

func TestHybridEscalatesStaticScratchCorruption(t *testing.T) {
	// Microreset alone fails on corrupted static scratch state
	// (TestStaticScratchCorruption); the hybrid ladder escalates to a
	// microreboot, which re-initializes it during boot. The reboot window
	// (~450 ms at 512 MB) is longer than the watchdog hang declaration,
	// so this also exercises the detection-suppression during an
	// escalated attempt's recovery window.
	r := newRig(t, HybridConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.CorruptStaticScratchWord(testRNG())
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(5 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("hybrid did not recover: %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if !r.engine.Escalated() || len(r.engine.Attempts) != 2 {
		t.Fatalf("attempts = %d, want exactly 2", len(r.engine.Attempts))
	}
	a0, a1 := r.engine.Attempts[0], r.engine.Attempts[1]
	if a0.Mechanism != Microreset || a1.Mechanism != Microreboot {
		t.Fatalf("ladder rungs = %v, %v", a0.Mechanism, a1.Mechanism)
	}
	if !strings.Contains(a0.FailReason, "static") || a0.FailCause != hv.CauseRebuiltStateReuse {
		t.Fatalf("attempt 1 FailReason = %q (cause %d), want static-scratch cause", a0.FailReason, a0.FailCause)
	}
	if a1.FailReason != "" {
		t.Fatalf("successful attempt has FailReason %q", a1.FailReason)
	}
	if got := a0.Latency + a1.Latency; r.engine.TotalLatency() != got {
		t.Fatalf("TotalLatency %v != attempt sum %v", r.engine.TotalLatency(), got)
	}
	if r.engine.Latency != a1.Latency {
		t.Fatalf("Engine.Latency %v != last attempt %v", r.engine.Latency, a1.Latency)
	}
	if len(a0.Breakdown) == 0 || len(a1.Breakdown) == 0 {
		t.Fatal("per-attempt breakdowns missing")
	}
	if len(r.h.StaticScratchDamage()) != 0 {
		t.Fatal("escalated reboot did not re-initialize static scratch")
	}
}

func TestEscalationExhaustionAllocObject(t *testing.T) {
	// Live heap objects are reused by both rungs: attempt 1 (microreset)
	// and attempt 2 (microreboot) both fail, the ladder is exhausted, and
	// the run fails terminally with per-attempt records.
	r := newRig(t, HybridConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	if tag := r.h.Heap.CorruptRandomObject(testRNG()); tag == "no live objects" {
		t.Fatal("no live heap object to corrupt")
	}
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(5 * time.Second)
	if r.engine.Status() != StatusFailed {
		t.Fatalf("status = %v, want failed", r.engine.Status())
	}
	if len(r.engine.Attempts) != 2 {
		t.Fatalf("attempts = %d, want MaxAttempts = 2", len(r.engine.Attempts))
	}
	for i, a := range r.engine.Attempts {
		if a.FailReason == "" {
			t.Fatalf("attempt %d has no FailReason", i+1)
		}
	}
	if failed, _ := r.h.Failed(); !failed {
		t.Fatal("hypervisor not marked failed after exhaustion")
	}
	if !strings.Contains(r.engine.FailReason, "heap object") || r.engine.FailCause != hv.CauseReusedHeapObject {
		t.Fatalf("FailReason = %q (cause %d)", r.engine.FailReason, r.engine.FailCause)
	}
}

// recoverOnce drives a failstop through the rig and returns the virtual
// time at which the first attempt's system resumed.
func recoverOnce(t *testing.T, r *rig) time.Duration {
	t.Helper()
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(200 * time.Millisecond)
	if !r.engine.recovered {
		t.Fatalf("first attempt did not complete: %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	return r.engine.Attempts[0].StartedAt + r.engine.Attempts[0].Latency
}

// injectPanicAtPage is injectPanicAtBudget on a distinct page, so a
// re-injection after a completed recovery does not double-pin the page
// the first retry already pinned.
func (r *rig) injectPanicAtPage(t *testing.T, budget int64, pageOff uint64) {
	t.Helper()
	r.h.ArmInjection(budget, func(hv.InjectionPoint) (hv.InjectAction, string) {
		return hv.ActionPanic, "failstop"
	})
	d, err := r.h.Domain(1)
	if err != nil {
		t.Fatal(err)
	}
	r.h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart) + pageOff}})
}

func TestDetectionDuringGraceWindowEscalates(t *testing.T) {
	r := newRig(t, HybridConfig(), 512)
	resumedAt := recoverOnce(t, r)
	// Re-detect inside the grace window: a second panic well before
	// resume + 500 ms.
	r.clk.RunUntil(resumedAt + 100*time.Millisecond)
	r.injectPanicAtPage(t, 250, 11)
	r.clk.RunUntil(resumedAt + 3*time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("escalation did not recover: %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if len(r.engine.Attempts) != 2 || r.engine.Attempts[1].Mechanism != Microreboot {
		t.Fatalf("attempts = %+v, want microreboot second attempt", r.engine.Attempts)
	}
	if !strings.Contains(r.engine.Attempts[0].FailReason, "post-recovery failure") {
		t.Fatalf("attempt 1 FailReason = %q", r.engine.Attempts[0].FailReason)
	}
}

func TestDetectionAfterGraceWindowIsTerminal(t *testing.T) {
	r := newRig(t, HybridConfig(), 512)
	resumedAt := recoverOnce(t, r)
	// Past the grace window the recovery is considered stable: a later
	// failure is terminal even though a ladder rung remains.
	r.clk.RunUntil(resumedAt + DefaultGraceWindow + 200*time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	if r.engine.Status() != StatusFailed {
		t.Fatalf("status = %v, want terminal failure", r.engine.Status())
	}
	if len(r.engine.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1 (no escalation after grace)", len(r.engine.Attempts))
	}
	if !strings.Contains(r.engine.FailReason, "post-recovery failure") {
		t.Fatalf("FailReason = %q", r.engine.FailReason)
	}
	if failed, _ := r.h.Failed(); !failed {
		t.Fatal("hypervisor not failed")
	}
}

func TestGraceWindowDefersOnRecovered(t *testing.T) {
	r := newRig(t, HybridConfig(), 512)
	var resumes int
	var recoveredAt time.Duration
	r.engine.OnResume = func() { resumes++ }
	r.engine.OnRecovered = func() { recoveredAt = r.clk.Now() }
	resumedAt := recoverOnce(t, r)
	if resumes != 1 {
		t.Fatalf("OnResume fired %d times, want 1", resumes)
	}
	if recoveredAt != 0 {
		t.Fatal("OnRecovered fired before the grace window passed")
	}
	r.clk.RunUntil(resumedAt + DefaultGraceWindow + 100*time.Millisecond)
	if recoveredAt == 0 {
		t.Fatal("OnRecovered never fired after a quiet grace window")
	}
	if got := recoveredAt - resumedAt; got < DefaultGraceWindow {
		t.Fatalf("OnRecovered fired %v after resume, want >= grace window", got)
	}
}

func TestOnRecoveredImmediateWithoutEscalation(t *testing.T) {
	// One-shot configurations keep the historical semantics: OnRecovered
	// fires at resume, with no grace delay.
	r := newRig(t, DefaultConfig(), 512)
	var resumes, recoveries int
	r.engine.OnResume = func() { resumes++ }
	r.engine.OnRecovered = func() { recoveries++ }
	recoverOnce(t, r)
	if resumes != 1 || recoveries != 1 {
		t.Fatalf("resumes=%d recoveries=%d, want 1/1 at resume", resumes, recoveries)
	}
}

func TestEscalatedOnResumeFiresPerAttempt(t *testing.T) {
	r := newRig(t, HybridConfig(), 512)
	var resumes, recoveries int
	r.engine.OnResume = func() { resumes++ }
	r.engine.OnRecovered = func() { recoveries++ }
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.CorruptStaticScratchWord(testRNG())
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(5 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	// The static-scratch failure aborts attempt 1 before its resume, so
	// only the successful reboot attempt resumes; OnRecovered fires once.
	if resumes != 1 || recoveries != 1 {
		t.Fatalf("resumes=%d recoveries=%d, want 1/1", resumes, recoveries)
	}
}

// TestAuditRepairsStaticScratchWithoutEscalation: with the audit gate on,
// the damage that forces TestHybridEscalatesStaticScratchCorruption
// through a full microreboot is instead repaired in place during the first
// microreset attempt — the whole point of the audit rung.
func TestAuditRepairsStaticScratchWithoutEscalation(t *testing.T) {
	cfg := HybridConfig()
	cfg.Escalation.Audit = true
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.CorruptStaticScratchWord(testRNG())
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(2 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if r.engine.Escalated() || len(r.engine.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1 (audit repairs in place)", len(r.engine.Attempts))
	}
	a := r.engine.Attempts[0]
	if a.Mechanism != Microreset || a.FailReason != "" {
		t.Fatalf("attempt = %v fail=%q, want a clean microreset", a.Mechanism, a.FailReason)
	}
	if a.Audit == nil || len(a.Audit.Violations) == 0 {
		t.Fatal("attempt carries no audit report despite damage")
	}
	if r.engine.AuditViolations == 0 || r.engine.AuditRepaired == 0 {
		t.Fatalf("engine audit counters = %d/%d, want nonzero",
			r.engine.AuditViolations, r.engine.AuditRepaired)
	}
	if len(r.h.StaticScratchDamage()) != 0 {
		t.Fatal("audit did not repair the static scratch damage")
	}
	// The audit pass is charged to the latency breakdown.
	var charged bool
	for _, item := range a.Breakdown {
		if strings.Contains(item.Name, "audit") {
			charged = true
		}
	}
	if !charged {
		t.Fatalf("audit cost missing from breakdown: %+v", a.Breakdown)
	}
}

// TestOneLaneAuditChargedAsSumOfUnits: at one recovery CPU (RepairCPUs 0
// and 1 alike) the attempt's audit step costs exactly the sum of the audit
// plan's unit costs — no flat base cost, no coordination pad — and does not
// count as parallel-repair accounting. The WorstCaseLatency audit bound
// covers it.
func TestOneLaneAuditChargedAsSumOfUnits(t *testing.T) {
	const frames512MB = 512 * 1024 * 1024 / 4096
	for _, cpus := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.RepairCPUs = cpus
		cfg.Escalation.Audit = true
		r := newRig(t, cfg, 512)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(2 * time.Second)
		if r.engine.Status() != StatusRecovered || len(r.engine.Attempts) != 1 {
			t.Fatalf("cpus=%d: status %v after %d attempts (%s)", cpus, r.engine.Status(), len(r.engine.Attempts), r.engine.FailReason)
		}
		a := r.engine.Attempts[0]
		var units time.Duration
		for _, sp := range a.Audit.Timing.Spans {
			units += sp.Dur
		}
		var charged time.Duration
		for _, item := range a.Breakdown {
			if item.Name == "Post-recovery state audit and repair" {
				charged = item.Dur
			}
		}
		if units == 0 || charged != units {
			t.Fatalf("cpus=%d: audit step charged %v, its %d units sum to %v", cpus, charged, a.Audit.Timing.Units, units)
		}
		if a.Timing.Units != 0 {
			t.Fatalf("cpus=%d: one-lane attempt reports parallel-repair timing %+v", cpus, a.Timing)
		}
		if wc := cfg.WorstCaseLatency(frames512MB); a.Latency > wc {
			t.Fatalf("cpus=%d: measured %v exceeds WorstCaseLatency %v", cpus, a.Latency, wc)
		}
	}
}

// TestAuditEngineKeepsDeferredWorkAcrossEscalation: a deferred action that
// trips fresh damage during the first attempt's resume re-enters recovery
// (re-pausing the system mid-drain); the remaining deferred work must stay
// queued and run only when the escalated attempt — audit gate included —
// resumes.
func TestAuditEngineKeepsDeferredWorkAcrossEscalation(t *testing.T) {
	cfg := HybridConfig()
	cfg.Escalation.Audit = true
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250) // detection: attempt 1 starts, system pauses
	if !r.h.Paused() {
		t.Fatal("recovery did not pause the system")
	}
	var order []string
	var tailAttempts int
	r.h.WhenRunnable(func() {
		order = append(order, "re-detect")
		// The deferred action hits fresh damage: a new panic mid-resume
		// opens the escalated attempt (budget 0 = first step).
		r.injectPanicAtPage(t, 0, 13)
	})
	r.h.WhenRunnable(func() {
		order = append(order, "tail")
		tailAttempts = len(r.engine.Attempts)
	})
	r.clk.RunUntil(5 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if len(r.engine.Attempts) != 2 || r.engine.Attempts[1].Mechanism != Microreboot {
		t.Fatalf("attempts = %+v, want escalation to microreboot", r.engine.Attempts)
	}
	if len(order) != 2 || order[0] != "re-detect" || order[1] != "tail" {
		t.Fatalf("deferred work ran %v, want [re-detect tail]", order)
	}
	if tailAttempts != 2 {
		t.Fatalf("tail ran with %d attempts open, want 2 (after the escalated resume)", tailAttempts)
	}
	// Both attempts ran the audit gate.
	for i, a := range r.engine.Attempts {
		if a.Audit == nil {
			t.Fatalf("attempt %d has no audit report", i+1)
		}
	}
}

func TestMergePendingPrefersFreshRecords(t *testing.T) {
	en := &Engine{}
	c1, c2, c3 := &hypercall.Call{Op: 1}, &hypercall.Call{Op: 2}, &hypercall.Call{Op: 3}
	en.pending = []*hv.PendingCall{
		{CPU: 1, Call: c1, Step: 2},
		{CPU: 2, Call: c2, Step: 1},
	}
	// c2 was re-discarded mid-retry with fresher state; c3 is new.
	en.mergePending([]*hv.PendingCall{
		{CPU: 2, Call: c2, Step: 4, Poisoned: true},
		{CPU: 3, Call: c3, Step: 0},
	})
	if len(en.pending) != 3 {
		t.Fatalf("merged %d calls, want 3", len(en.pending))
	}
	if en.pending[0].Call != c1 || en.pending[1].Call != c2 || en.pending[2].Call != c3 {
		t.Fatalf("merge order wrong: %+v", en.pending)
	}
	if en.pending[1].Step != 4 || !en.pending[1].Poisoned {
		t.Fatal("stale record for re-discarded call survived the merge")
	}
}

func TestWorstCaseLatencyBoundsMeasured(t *testing.T) {
	const frames512MB = 512 * 1024 * 1024 / 4096
	for _, tt := range []struct {
		name string
		cfg  Config
	}{
		{"microreset", DefaultConfig()},
		{"microreboot", Config{Mechanism: Microreboot, Enhancements: AllEnhancements}},
		{"checkpoint", Config{Mechanism: CheckpointRestore, Enhancements: AllEnhancements}},
	} {
		r := newRig(t, tt.cfg, 512)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(3 * time.Second)
		if r.engine.Status() != StatusRecovered {
			t.Fatalf("%s: %v (%s)", tt.name, r.engine.Status(), r.engine.FailReason)
		}
		if wc := tt.cfg.WorstCaseLatency(frames512MB); r.engine.TotalLatency() > wc {
			t.Fatalf("%s: measured %v exceeds WorstCaseLatency %v",
				tt.name, r.engine.TotalLatency(), wc)
		}
	}
	// The hybrid bound covers both rungs plus the grace window between.
	hybrid := HybridConfig()
	single := DefaultConfig().WorstCaseLatency(frames512MB)
	reboot := Config{Mechanism: Microreboot}.WorstCaseLatency(frames512MB)
	if wc := hybrid.WorstCaseLatency(frames512MB); wc < single+reboot+hybrid.Escalation.GraceWindow {
		t.Fatalf("hybrid worst case %v below rung sum", wc)
	}
}

// TestWorkspaceReuseMatchesFresh: one hypervisor recovers from two
// different damage sets back to back, each with its own engine, as a boot
// image's runs do. Whether the second engine reuses the first one's
// workspace or builds its own, its attempts — audit Reports and
// recovery-domain Timing included — must be identical, at one repair lane
// and at eight, on one goroutine and on four.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	for _, cpus := range []int{1, 8} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("cpus=%d/procs=%d", cpus, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := DefaultConfig()
				cfg.Escalation.Audit = true
				cfg.RepairCPUs = cpus
				recoverTwice := func(share bool) [][]Attempt {
					r := newRig(t, cfg, 512)
					rng := testRNG()
					r.clk.RunUntil(50 * time.Millisecond)
					r.h.CorruptStaticScratchWord(rng)
					if len(r.h.Timers.PopDue(3, r.clk.Now()+time.Second)) == 0 {
						t.Fatal("cpu3 has no timer to strand")
					}
					r.injectPanicAtBudget(t, 250)
					r.clk.RunUntil(2 * time.Second)
					first := r.engine
					r.engine = NewEngine(r.h, cfg)
					r.engine.Det = r.det
					if share {
						r.engine.Workspace = first.Workspace
					}
					r.h.Heap.CorruptFreeList(rng)
					r.h.Broker.CorruptRandomLink(rng)
					r.h.Locks.CorruptRandomHold(rng)
					r.injectPanicAtPage(t, 250, 13)
					r.clk.RunUntil(4 * time.Second)
					for i, en := range []*Engine{first, r.engine} {
						if len(en.Attempts) == 0 || en.Attempts[0].Audit == nil || len(en.Attempts[0].Audit.Violations) == 0 {
							t.Fatalf("recovery %d ran no audit that found the damage", i+1)
						}
					}
					return [][]Attempt{first.Attempts, r.engine.Attempts}
				}
				shared, fresh := recoverTwice(true), recoverTwice(false)
				for i := range fresh {
					if !reflect.DeepEqual(shared[i], fresh[i]) {
						t.Fatalf("recovery %d: shared workspace diverged from a fresh one:\nshared: %+v\nfresh:  %+v", i+1, shared[i], fresh[i])
					}
				}
				if cpus > 1 && fresh[1][0].Timing.Units == 0 {
					t.Fatal("partitioned recovery reported no recovery-domain timing")
				}
			})
		}
	}
}
