// Package core implements the paper's primary contribution: component-
// level recovery of the hypervisor by microreset (NiLiHype) and, as the
// baseline, by microreboot (ReHype).
//
// Both engines drive the same mechanism surface exposed by internal/hv:
// discard execution threads, release locks, retry interrupted hypercalls,
// repair scheduling metadata, scan page-frame descriptors, reprogram the
// hardware timers, and reactivate recurring timer events. The difference
// is which operations each mechanism needs (microreboot gets several "for
// free" from booting a fresh image — at the cost of a >30x longer recovery
// latency, Tables II/III) and which corruptions each survives (the reboot
// re-initializes state microreset reuses — ReHype's small recovery-rate
// edge on non-failstop faults, §VII-A).
package core

import (
	"fmt"
	"strings"
	"time"

	"nilihype/internal/audit"
	"nilihype/internal/detect"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
	"nilihype/internal/telemetry"
)

// Mechanism selects the recovery mechanism.
type Mechanism int

// Mechanisms.
const (
	// Microreset is NiLiHype: reset the hypervisor to a quiescent state
	// in place, without reboot (§III-C).
	Microreset Mechanism = iota + 1
	// Microreboot is ReHype: boot a new hypervisor instance and
	// re-integrate preserved state (§III-B).
	Microreboot
	// CheckpointRestore is the §II-B alternative the paper discusses:
	// "replacing the reboot with a rollback to a checkpoint saved right
	// after a previous reboot". The hardware re-initialization largely
	// disappears, but — as the paper argues — "even in this case, there
	// would be significant latency for reintegrating state from the
	// previous instance ... multiple hundreds of milliseconds": the
	// memory re-integration steps (Table II's 266 ms at 8 GB) remain.
	// State effects match microreboot (fresh static image, rebuilt
	// heap/free list) since the checkpoint is a pristine post-boot image.
	CheckpointRestore
	// PrivVMRestart is the ladder's top rung for PrivVM failure: run the
	// in-place (microreset-style) hypervisor repairs, then reboot the
	// PrivVM itself from its boot image and re-attach the surviving
	// AppVMs' I/O rings. No hypervisor-state repair can bring back
	// management service when Dom0 is gone or hung — failure cause 2 of
	// §VII-A — so this rung replaces the PrivVM instead.
	PrivVMRestart
)

// mechanismNames is the one name table for mechanisms: name is String()
// (the system the paper calls it), alias the technique's spelling.
// ParseMechanism matches both.
var mechanismNames = [...]struct{ name, alias string }{
	Microreset:        {"NiLiHype", "microreset"},
	Microreboot:       {"ReHype", "microreboot"},
	CheckpointRestore: {"ReHype-CP", "checkpoint"},
	PrivVMRestart:     {"PrivVM-Restart", "privvm-restart"},
}

func (m Mechanism) known() bool { return m > 0 && int(m) < len(mechanismNames) }

// String returns the mechanism's system name.
func (m Mechanism) String() string {
	if !m.known() {
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
	return mechanismNames[m].name
}

// ParseMechanism resolves a mechanism from its name or alias, ignoring
// case.
func ParseMechanism(s string) (Mechanism, error) {
	for m := Microreset; m.known(); m++ {
		if n := mechanismNames[m]; strings.EqualFold(s, n.name) || strings.EqualFold(s, n.alias) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}

// Reboots reports whether the mechanism installs a fresh hypervisor image
// (boot or checkpoint restore) rather than reusing the failed instance's
// state in place: whether it has a boot table.
func (m Mechanism) Reboots() bool {
	return m.known() && bootTables[m] != nil
}

// Enhancements is the recovery-enhancement bitmask — the rungs of the
// Table I ladder.
type Enhancements uint32

// Enhancement bits.
const (
	// EnhClearIRQCount zeroes every CPU's local_irq_count (§V-A).
	EnhClearIRQCount Enhancements = 1 << iota
	// EnhReHypeMechanisms is the bundle of mechanisms inherited from
	// ReHype (§III-B, §IV): heap-lock release, hypercall/syscall retry
	// with undo-log rollback, batched-retry completion logging,
	// acknowledging pending and in-service interrupts, and saving FS/GS
	// at detection.
	EnhReHypeMechanisms
	// EnhSchedConsistency rewrites the per-vCPU scheduling metadata from
	// the per-CPU structures (§V-A).
	EnhSchedConsistency
	// EnhReprogramTimer re-arms every CPU's APIC one-shot (§V-A).
	EnhReprogramTimer
	// EnhUnlockStaticLocks iterates the static-lock segment (§V-A).
	EnhUnlockStaticLocks
	// EnhReactivateTimers re-arms popped recurring timer events (§V-A).
	EnhReactivateTimers
	// EnhPFScan runs the page-frame-descriptor consistency scan — the
	// dominant latency component (Table III) whose removal costs ~4% of
	// recovery rate (§VII-B).
	EnhPFScan
)

// AllEnhancements is the full production configuration.
const AllEnhancements = EnhClearIRQCount | EnhReHypeMechanisms | EnhSchedConsistency |
	EnhReprogramTimer | EnhUnlockStaticLocks | EnhReactivateTimers | EnhPFScan

// Has reports whether e includes bit b.
func (e Enhancements) Has(b Enhancements) bool { return e&b != 0 }

// Ladder returns the cumulative enhancement configurations of Table I, in
// paper order, with display labels. Each rung is declared by what it adds.
func Ladder() []struct {
	Label string
	Enh   Enhancements
} {
	rungs := []struct {
		Label string
		Enh   Enhancements
	}{
		{"Basic", 0},
		{"+ Clear IRQ count", EnhClearIRQCount},
		{"+ Enhanced with ReHype mechanisms", EnhReHypeMechanisms | EnhPFScan},
		{"+ Ensure consistency within scheduling metadata", EnhSchedConsistency},
		{"+ Reprogram hardware timer", EnhReprogramTimer},
		{"+ Unlock static locks", EnhUnlockStaticLocks},
		{"+ Reactivate recurring timer events", EnhReactivateTimers},
	}
	for i := 1; i < len(rungs); i++ {
		rungs[i].Enh |= rungs[i-1].Enh
	}
	return rungs
}

// DiscardScope selects which execution threads microreset discards — the
// design-choice ablation of §III-C.
type DiscardScope int

// Scopes.
const (
	// AllThreads discards every CPU's hypervisor execution thread (the
	// NiLiHype design choice).
	AllThreads DiscardScope = iota + 1
	// DetectingOnly discards only the detecting CPU's thread — the
	// rejected alternative: cross-CPU IPI waits and global-state changes
	// doom non-discarded threads (§III-C).
	DetectingOnly
)

// EscalationPolicy turns the engine into a multi-attempt recovery state
// machine: attempt i (0-based) uses Ladder[i], and a failure re-detected
// during an attempt's completion or within GraceWindow of its resume
// starts the next attempt instead of terminating the run, up to one
// attempt per rung. The zero value preserves the paper's model of one
// microreset/microreboot per fault.
type EscalationPolicy struct {
	// Ladder lists the mechanism used by each attempt, cheapest rung
	// first. Empty means one attempt with Config.Mechanism.
	Ladder []Mechanism
	// GraceWindow is how long after an attempt's resume a re-detection
	// still counts as that attempt's failure (and escalates). Detections
	// after the window are terminal post-recovery failures: the recovery
	// itself held, the system broke later.
	GraceWindow time.Duration
	// Audit enables the post-recovery invariant audit + repair pass
	// (internal/audit) after every rung's own repairs: remaining
	// structural damage is repaired in place, confined by sacrificing the
	// affected AppVM, or left to escalate the attempt.
	Audit bool
}

// Config parameterizes a recovery engine.
type Config struct {
	Mechanism    Mechanism
	Enhancements Enhancements
	Scope        DiscardScope

	// RepairCPUs > 1 partitions the repair and audit phases of non-reboot
	// rungs into recovery domains — per-CPU state, per-guest-domain state,
	// and a global domain with an explicit dependency order — and runs
	// independent domains concurrently, charging the latency as the max
	// over parallel domains plus the serialized global work on that many
	// simulated CPUs. It also shards the page-frame scan across that many
	// cores — the mitigation §VII-B suggests for large-memory hosts, where
	// the scan dominates NiLiHype's recovery latency: "use multiple cores
	// to perform the operation." 0/1 is one recovery CPU: every repair
	// step charged on its own, and the audit's plan charged as the sum of
	// its units.
	RepairCPUs int
	// Escalation enables multi-attempt recovery (zero value = one shot).
	Escalation EscalationPolicy
}

// MaxAttempts returns the total recovery attempts the configuration allows
// per fault: one per ladder rung, and at least 1.
func (c Config) MaxAttempts() int {
	return max(1, len(c.Escalation.Ladder))
}

// MechanismFor returns the mechanism attempt i (0-based, below
// MaxAttempts) uses.
func (c Config) MechanismFor(i int) Mechanism {
	if len(c.Escalation.Ladder) == 0 {
		return c.Mechanism
	}
	return c.Escalation.Ladder[i]
}

// DefaultConfig returns the full NiLiHype configuration.
func DefaultConfig() Config {
	return Config{Mechanism: Microreset, Enhancements: AllEnhancements, Scope: AllThreads}
}

// DefaultGraceWindow covers re-detection of a superficially successful
// attempt: the watchdog needs up to StaleChecks+1 periods (~400 ms) to
// declare a post-resume hang, and latent corruption detections trail
// activation by up to ~50 ms.
const DefaultGraceWindow = 500 * time.Millisecond

// FullLadderConfig returns the broadened-fault-surface escalation ladder:
// microreset first (fast path), microreboot second (re-initializes the
// state classes whose corruption dooms an in-place reset), and PrivVM
// restart last — the only rung that restores management service when the
// PrivVM itself crashed or hung. The post-recovery audit backstops every
// rung, repairing (among others) IO-APIC route damage.
func FullLadderConfig() Config {
	return Config{
		Mechanism:    Microreset,
		Enhancements: AllEnhancements,
		Scope:        AllThreads,
		Escalation: EscalationPolicy{
			Ladder:      []Mechanism{Microreset, Microreboot, PrivVMRestart},
			GraceWindow: DefaultGraceWindow,
			Audit:       true,
		},
	}
}

// HybridConfig returns the escalating configuration the hybrid experiment
// demonstrates: microreset first (fast path), microreboot if the failure
// is re-detected within the grace window — the reboot re-initializes
// exactly the state classes (static scratch, heap free list, domain list)
// whose corruption dooms an in-place microreset.
func HybridConfig() Config {
	return Config{
		Mechanism:    Microreset,
		Enhancements: AllEnhancements,
		Scope:        AllThreads,
		Escalation: EscalationPolicy{
			Ladder:      []Mechanism{Microreset, Microreboot},
			GraceWindow: DefaultGraceWindow,
		},
	}
}

// Preset is an escalating configuration a command line can ask for by
// name.
type Preset struct {
	Name, Alias string
	Config      func() Config
}

// LadderPresets lists the presets shortest ladder first — the columns of
// the fault-class recovery matrix.
var LadderPresets = [...]Preset{
	{"hybrid", "hybrid", HybridConfig},
	{"full-ladder", "full", FullLadderConfig},
}

// ParseConfig resolves a recovery configuration by name, ignoring case: a
// ladder preset, or a single mechanism with every enhancement on.
func ParseConfig(s string) (Config, error) {
	for _, p := range LadderPresets {
		if strings.EqualFold(s, p.Name) || strings.EqualFold(s, p.Alias) {
			return p.Config(), nil
		}
	}
	m, err := ParseMechanism(s)
	return Config{Mechanism: m, Enhancements: AllEnhancements}, err
}

// Status describes the engine's terminal state for one run.
type Status int

// Statuses.
const (
	// StatusIdle: no error was ever detected.
	StatusIdle Status = iota + 1
	// StatusRecovered: one recovery completed and the system kept
	// running to the end of the run.
	StatusRecovered
	// StatusFailed: recovery was attempted but the system failed
	// (either during recovery or afterwards).
	StatusFailed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusRecovered:
		return "recovered"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Attempt records one recovery attempt of a run. Escalating
// configurations produce one entry per ladder rung tried.
type Attempt struct {
	// Mechanism is the rung this attempt used.
	Mechanism Mechanism
	// Trigger is what started the attempt: the detection event for
	// attempt 1 and re-detection escalations, or the internal completion
	// failure that forced the escalation.
	Trigger string
	// StartedAt is the virtual time the attempt began.
	StartedAt time.Duration
	// ResumedAt is the virtual time the attempt's stable resume re-enabled
	// guest execution (0 if the attempt never got the system back up —
	// its outage window then extends into the next attempt or the end of
	// the run).
	ResumedAt time.Duration
	// Latency/Breakdown are the attempt's modeled recovery cost.
	Latency   time.Duration
	Breakdown []LatencyStep
	// FailReason and FailCause say why the attempt failed; empty for the
	// attempt that recovered the system (or one still in flight).
	FailReason string
	FailCause  hv.Cause
	// Audit is the attempt's audit report (nil unless
	// EscalationPolicy.Audit is set).
	Audit *audit.Report
	// Timing is the attempt's recovery-domain accounting — serial vs
	// parallel modeled latency, unit and domain counts, and per-domain
	// phase spans — combined over the attempt's repair and audit plans.
	// Zero unless Config.RepairCPUs > 1 on a non-reboot rung.
	Timing recdomain.Timing
}

// Engine is one run's recovery engine.
type Engine struct {
	H   *hv.Hypervisor
	Det *detect.Detector
	Cfg Config
	// Workspace is the storage the engine's audit and multi-lane repair
	// reuse; nil builds one for H on first use. A boot image shares one
	// across its runs' engines.
	Workspace *Workspace

	// FirstDetection is the event that triggered recovery (nil if none).
	FirstDetection *detect.Event
	// Attempts records every recovery attempt in order.
	Attempts []Attempt
	// Latency is the modeled recovery latency of the last attempt's
	// performed steps (TotalLatency sums all attempts).
	Latency time.Duration
	// Breakdown itemizes the last attempt's latency (Tables II/III).
	Breakdown []LatencyStep
	// FailReason is set when recovery or the post-recovery system fails
	// terminally (all attempts exhausted, or failure outside the grace
	// window), and FailCause names its cause.
	FailReason string
	FailCause  hv.Cause
	// AuditViolations/AuditRepaired total the audit findings across all
	// attempts; SacrificedVMs lists the domains the audit failed to
	// confine damage (in sacrifice order).
	AuditViolations int
	AuditRepaired   int
	SacrificedVMs   []int
	// RepairTiming accumulates the recovery-domain accounting across every
	// attempt that used the partitioned path (RepairCPUs > 1): what the
	// same repairs would have cost serialized vs what the parallel domains
	// were charged, plus distinct-domain counts and phase spans.
	RepairTiming recdomain.Timing

	// OnPause, if set, is invoked every time an attempt stops the world
	// (every rung pauses at its start, so escalating runs call it once
	// per attempt — consumers must be idempotent). Together with OnResume
	// it brackets the user-visible outage: pause is the instant service
	// stops answering, resume the instant it answers again.
	OnPause func()
	// OnResume, if set, is invoked at the end of every completed attempt
	// when the system resumes (the campaign layer annotates the NetBench
	// sender's exclusion window here — every attempt's outage is an
	// announced recovery gap).
	OnResume func()
	// OnRecovered, if set, is invoked once when recovery is stable: for
	// one-shot configurations immediately at resume; for escalating
	// configurations once the grace window expires with no re-detection
	// (the campaign layer starts the post-recovery VM-creation check
	// here).
	OnRecovered func()
	// OnPrivVMRestart, if set, is invoked when a PrivVM-restart attempt
	// re-enables the CPUs: the guest world re-arms Dom0's management
	// service against the freshly created domain.
	OnPrivVMRestart func()
	// OnAuditDegraded, if set, is invoked when an audit pass accepts one
	// or more degraded verdicts (sacrificed AppVMs) — the hook the
	// correlated fault-while-degraded re-injection arms itself from.
	OnAuditDegraded func()
	// PrivVMReattached counts the AppVM I/O rings the last PrivVM restart
	// re-attached.
	PrivVMReattached int

	recovering bool
	completing bool
	recovered  bool
	// graceUntil is the end of the current attempt's post-resume grace
	// window; a detection at or before it escalates.
	graceUntil time.Duration
	// lastEvent is the most recent detection (escalation attempts
	// triggered by internal completion failures reuse its CPU).
	lastEvent detect.Event
	// pending carries interrupted hypercalls across attempts: calls a
	// failed attempt never got to retry are merged with the next
	// attempt's discards.
	pending []*hv.PendingCall
	// privRestartErr stashes a PrivVM re-creation failure for complete()
	// to turn into an attempt failure (recover() must not recurse into
	// the escalation machinery mid-repair).
	privRestartErr error
}

// Window is one contiguous service outage caused by recovery: guest
// execution stopped at Start (the attempt's stop-the-world pause) and came
// back at End (its stable resume). End == 0 means the outage never closed
// — the run ended with the system down. Mechanism is the rung whose resume
// closed the window (for a still-open window, the last rung tried).
type Window struct {
	Mechanism Mechanism
	Start     time.Duration
	End       time.Duration
}

// RecoveryWindows derives the run's user-visible outage windows from the
// attempt records. An attempt that never resumed (escalation: its rung
// failed before re-enabling guests) does not open a new window — the
// outage simply continues until some later rung's resume, so consecutive
// non-resuming attempts merge into one window attributed to the rung that
// finally brought service back. This is the per-attempt export the traffic
// layer's arithmetic scoring consumes: microreset's ~2 ms, microreboot's
// ~713 ms, and a PrivVM restart's ~2 s become directly comparable
// user-seconds of degradation.
func (en *Engine) RecoveryWindows() []Window {
	var ws []Window
	open := -1 // index into ws of the still-open window, or -1
	for i := range en.Attempts {
		a := &en.Attempts[i]
		if open < 0 {
			ws = append(ws, Window{Mechanism: a.Mechanism, Start: a.StartedAt})
			open = len(ws) - 1
		} else {
			// Outage continues: re-attribute to the rung now trying.
			ws[open].Mechanism = a.Mechanism
		}
		if a.ResumedAt > 0 {
			ws[open].End = a.ResumedAt
			open = -1
		}
	}
	return ws
}

// NewEngine builds an engine over a booted hypervisor. Wire it to a
// detector with:
//
//	en := core.NewEngine(h, cfg)
//	det := detect.New(h, en.OnDetection)
//	en.Det = det
//	det.Start()
func NewEngine(h *hv.Hypervisor, cfg Config) *Engine {
	if cfg.Scope == 0 {
		cfg.Scope = AllThreads
	}
	return &Engine{H: h, Cfg: cfg}
}

// Status reports the engine's terminal state. A run that needed several
// attempts but ended recovered is StatusRecovered; exhausting the ladder
// (or failing outside the grace window) is StatusFailed.
func (en *Engine) Status() Status {
	switch {
	case en.FailReason != "":
		return StatusFailed
	case en.recovered:
		return StatusRecovered
	case len(en.Attempts) > 0:
		return StatusFailed
	default:
		return StatusIdle
	}
}

// Recovered reports whether recovery completed successfully (system
// still running).
func (en *Engine) Recovered() bool { return en.recovered && en.FailReason == "" }

// Escalated reports whether recovery needed more than one attempt.
func (en *Engine) Escalated() bool { return len(en.Attempts) > 1 }

// TotalLatency sums the modeled latency of every attempt — the run's
// total recovery service time (Engine.Latency is the last attempt's).
// Grace-window uptime between attempts is not recovery work and is not
// included.
func (en *Engine) TotalLatency() time.Duration {
	var sum time.Duration
	for i := range en.Attempts {
		sum += en.Attempts[i].Latency
	}
	return sum
}

// OnDetection is the detector hook and the state machine's transition
// function. The first detection starts attempt 1. While an attempt's
// repairs run (recovering) further detections are watchdog noise — the
// soft tick counters are legitimately frozen. A detection during an
// attempt's completion, or within the grace window after its resume, is
// that attempt's failure: the next ladder rung starts, until MaxAttempts
// is exhausted. A detection after the grace window is a terminal
// post-recovery failure (the paper's one-recovery-per-fault model is the
// MaxAttempts=1 special case).
func (en *Engine) OnDetection(e detect.Event) {
	if en.recovering {
		return
	}
	en.lastEvent = e
	if len(en.Attempts) == 0 {
		ev := e
		en.FirstDetection = &ev
		en.beginAttempt(e.String())
		return
	}
	if en.completing || e.At <= en.graceUntil {
		en.attemptFailed(e.Cause, "post-recovery failure: "+e.Reason)
		return
	}
	en.fail(e.Cause, "post-recovery failure: "+e.Reason)
}

// beginAttempt opens the next Attempt record and runs the recovery
// protocol with its ladder rung.
func (en *Engine) beginAttempt(trigger string) {
	mech := en.Cfg.MechanismFor(len(en.Attempts))
	en.H.Tel.Counters[telemetry.CtrRecoveryAttempts]++
	en.H.Tel.Record(en.lastEvent.CPU, telemetry.EvAttemptBegin, en.H.Tel.Intern(mech.String()))
	en.H.Jrn.Attempt(en.H.Clock.Now(), en.lastEvent.CPU, mech.String(), len(en.Attempts)+1)
	en.Attempts = append(en.Attempts, Attempt{
		Mechanism: mech,
		Trigger:   trigger,
		StartedAt: en.H.Clock.Now(),
	})
	en.recovered = false
	en.completing = false
	en.recover(en.lastEvent, mech)
}

// attemptFailed records the current attempt's failure and escalates to the
// next ladder rung — or fails the run terminally when the ladder is
// exhausted.
func (en *Engine) attemptFailed(cause hv.Cause, reason string) {
	cur := &en.Attempts[len(en.Attempts)-1]
	if cur.FailReason == "" {
		cur.FailReason, cur.FailCause = reason, cause
	}
	en.H.Tel.Record(en.lastEvent.CPU, telemetry.EvAttemptFail, en.H.Tel.Intern(reason))
	en.H.Jrn.AttemptFail(en.H.Clock.Now(), en.lastEvent.CPU, reason)
	if len(en.Attempts) >= en.Cfg.MaxAttempts() {
		en.fail(cause, reason)
		return
	}
	en.H.Tel.Counters[telemetry.CtrEscalations]++
	en.H.Tel.Record(en.lastEvent.CPU, telemetry.EvEscalate,
		en.H.Tel.Intern(en.Cfg.MechanismFor(len(en.Attempts)).String()))
	en.H.Jrn.Escalate(en.H.Clock.Now(), en.lastEvent.CPU, en.Cfg.MechanismFor(len(en.Attempts)).String())
	// The failed attempt may already have marked the hypervisor failed
	// (e.g. a panic path with no recovery hook); the next rung needs a
	// live simulation to repair.
	if failed, _ := en.H.Failed(); failed {
		en.H.ClearFailed()
	}
	en.beginAttempt(reason)
}

// fail records terminal failure.
func (en *Engine) fail(cause hv.Cause, reason string) {
	if en.FailReason == "" {
		en.FailReason, en.FailCause = reason, cause
	}
	if n := len(en.Attempts); n > 0 && en.Attempts[n-1].FailReason == "" {
		en.Attempts[n-1].FailReason, en.Attempts[n-1].FailCause = reason, cause
		// Attempt failures routed through attemptFailed already recorded
		// their flight event; this branch covers direct terminal paths.
		en.H.Tel.Record(en.lastEvent.CPU, telemetry.EvAttemptFail, en.H.Tel.Intern(reason))
		en.H.Jrn.AttemptFail(en.H.Clock.Now(), en.lastEvent.CPU, reason)
	}
	en.H.MarkFailed(cause, reason)
}
