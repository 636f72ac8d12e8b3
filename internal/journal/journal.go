// Package journal is the causal recovery event journal: a structured,
// deterministic account of every run's recovery story — fault injected,
// detection criterion fired, attempt N paused/repaired/audited/resumed,
// final disposition — with span and cause links tying each attempt to the
// detection that triggered it and the audit verdict that judged it.
//
// Where the telemetry flight recorder answers "what was the system doing?"
// (a high-rate ring of dispatches, IRQs and scheduler events), the journal
// answers "why did the recovery go the way it did?": a low-rate, loss-free
// sequence of recovery-salient events whose links a forensic classifier
// can walk.
//
// Design contract, shared with internal/telemetry:
//
//   - Zero-alloc in steady state: events are fixed-size pointer-free
//     structs appended into a backing array that survives snapshot
//     restores, and variable strings are interned into a table whose
//     truncate-on-restore leaves map buckets and slice capacity in place.
//     A campaign's steady state re-records every run's journal without
//     allocating.
//   - Snapshot/restore-aware: Snapshot captures the boot-time events,
//     strings and causal cursors; Restore cuts back, so a forked run assigns
//     the same sequence numbers and intern IDs a cold boot would and the
//     event stream is bit-identical either way.
//   - Deterministic: the simulation is single-threaded and virtual-time
//     driven, so sequence numbers, timestamps and links depend only on the
//     seed.
//
// journal depends only on the standard library and internal/snap (itself
// stdlib-only), so every layer of the simulator can import it without
// cycles.
package journal

import (
	"slices"
	"time"

	"nilihype/internal/snap"
)

// Kind classifies journal events — the stations of the recovery story.
type Kind uint8

// Event kinds, in the order the story visits them.
const (
	// KindFault: a fault trigger fired. Detail is the fault description;
	// Aux is the interned trigger name ("primary", "burst",
	// "during-recovery", "correlated").
	KindFault Kind = iota + 1
	// KindCorruption: a latent structural corruption was applied. Detail
	// is the corruption-cell label; caused by the most recent fault.
	KindCorruption
	// KindDetect: a detection criterion fired. Detail is the detection
	// reason; caused by the most recent fault (if any).
	KindDetect
	// KindAttempt: a recovery attempt began. Detail is the mechanism
	// name; Aux is the attempt number (1-based). The event's Seq is the
	// attempt's span ID; its Cause links the detection (or the previous
	// attempt's failure) that started it.
	KindAttempt
	// KindPause: the attempt stopped the world. Span = owning attempt.
	KindPause
	// KindAudit: the attempt's post-recovery audit completed. Span =
	// owning attempt; Aux packs the verdict counts (AuditAux).
	KindAudit
	// KindResume: the attempt stably re-enabled guest execution. Span =
	// owning attempt.
	KindResume
	// KindAttemptFail: the attempt failed. Detail is the reason; Span =
	// owning attempt.
	KindAttemptFail
	// KindEscalate: the ladder moved to its next rung. Detail is the next
	// mechanism; caused by the failed attempt.
	KindEscalate
	// KindDisposition: the run's final disposition. Detail is the engine
	// status ("idle", "recovered", "failed"); Aux is the interned terminal
	// failure reason (0 = none).
	KindDisposition
)

// String returns the kind's short name.
func (k Kind) String() string {
	names := [...]string{
		KindFault: "fault", KindCorruption: "corruption", KindDetect: "detect",
		KindAttempt: "attempt", KindPause: "pause", KindAudit: "audit",
		KindResume: "resume", KindAttemptFail: "attempt-fail",
		KindEscalate: "escalate", KindDisposition: "disposition",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return "kind(" + itoa(int(k)) + ")"
}

// Event is one journal entry: fixed-size and pointer-free, so the event
// array is a flat slab the GC never scans into. Strings travel as intern
// IDs resolved through the owning Journal.
type Event struct {
	At     time.Duration // virtual time
	Aux    uint64        // kind-specific payload (see Kind docs)
	Seq    uint32        // 1-based per-run sequence number
	Span   uint32        // owning attempt's Seq (0 = run-scope)
	Cause  uint32        // Seq of the causally-preceding event (0 = none)
	Detail uint32        // interned string ID (Journal.Str)
	CPU    int16
	Kind   Kind
}

// AuditAux packs an audit verdict's counts into an Event.Aux: violations,
// repairs, sacrificed AppVMs, and escalate verdicts, 16 bits each.
func AuditAux(violations, repaired, sacrificed, escalations int) uint64 {
	c := func(v int) uint64 {
		if v < 0 {
			return 0
		}
		if v > 0xffff {
			return 0xffff
		}
		return uint64(v)
	}
	return c(violations)<<48 | c(repaired)<<32 | c(sacrificed)<<16 | c(escalations)
}

// UnpackAuditAux splits an AuditAux payload.
func UnpackAuditAux(aux uint64) (violations, repaired, sacrificed, escalations int) {
	return int(aux >> 48 & 0xffff), int(aux >> 32 & 0xffff),
		int(aux >> 16 & 0xffff), int(aux & 0xffff)
}

// Journal is one simulation's recovery event journal. It is
// single-threaded like the simulation itself; campaign workers each own a
// private instance (inside their hypervisor).
type Journal struct {
	journalState

	// strIDs indexes strs; a restore cuts it back with the table.
	strIDs map[string]uint32
}

// journalState is the event array, the intern table and the causal
// cursors.
type journalState struct {
	events []Event

	// String interning, mirroring telemetry's: IDs are assigned in
	// first-use order (deterministic because the simulation is), and
	// Restore truncates the table back so forked runs re-assign the same
	// IDs a cold boot would.
	strs []string

	// Causal cursors: the Seqs the next event of each kind links back to.
	lastFault   uint32
	lastDetect  uint32
	lastAttempt uint32
	lastFail    uint32
}

// DefaultCapacity pre-sizes the event array for the deepest ladder run:
// a full three-rung escalation with adversarial re-injection stays well
// under 64 events.
const DefaultCapacity = 64

// New builds a journal with room for capacity events before the backing
// array first grows (growth is permanent: restores keep the capacity, so
// a campaign's steady state never re-allocates).
func New(capacity int) *Journal {
	if capacity < 8 {
		capacity = 8
	}
	j := &Journal{journalState{events: make([]Event, 0, capacity), strs: make([]string, 0, 32)},
		make(map[string]uint32, 32)}
	// ID 0 is reserved so a zero Detail decodes to "".
	j.strs = append(j.strs, "")
	j.strIDs[""] = 0
	return j
}

// Intern returns a stable ID for s, assigning one on first sight.
func (j *Journal) Intern(s string) uint32 {
	if j == nil {
		return 0
	}
	if id, ok := j.strIDs[s]; ok {
		return id
	}
	id := uint32(len(j.strs))
	j.strs = append(j.strs, s)
	j.strIDs[s] = id
	return id
}

// Str resolves an interned ID (empty string for unknown IDs).
func (j *Journal) Str(id uint32) string {
	if j == nil || id >= uint32(len(j.strs)) {
		return ""
	}
	return j.strs[id]
}

// record appends one event and returns its Seq.
func (j *Journal) record(e Event) uint32 {
	e.Seq = uint32(len(j.events) + 1)
	j.events = append(j.events, e)
	return e.Seq
}

// Fault records a fault trigger firing. desc describes the fault, trigger
// names which trigger fired ("primary", "burst", ...).
func (j *Journal) Fault(at time.Duration, cpu int, desc, trigger string) {
	if j == nil {
		return
	}
	j.lastFault = j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindFault,
		Detail: j.Intern(desc), Aux: uint64(j.Intern(trigger)),
	})
}

// Corruption records a latent structural corruption landing in the cell
// named by label, caused by the most recent fault.
func (j *Journal) Corruption(at time.Duration, cpu int, label string) {
	if j == nil {
		return
	}
	j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindCorruption,
		Cause: j.lastFault, Detail: j.Intern(label),
	})
}

// Detect records a detection criterion firing, caused by the most recent
// fault (if any — a spurious detection carries Cause 0).
func (j *Journal) Detect(at time.Duration, cpu int, reason string) {
	if j == nil {
		return
	}
	j.lastDetect = j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindDetect,
		Cause: j.lastFault, Detail: j.Intern(reason),
	})
}

// Attempt records recovery attempt n (1-based) beginning with the given
// mechanism. Its cause is whichever came later: the most recent detection
// or the previous attempt's failure (escalations triggered by internal
// completion failures have no fresh detection). The event's own Seq
// becomes the attempt's span ID for the Pause/Audit/Resume/AttemptFail
// events that follow.
func (j *Journal) Attempt(at time.Duration, cpu int, mechanism string, n int) {
	if j == nil {
		return
	}
	cause := j.lastDetect
	if j.lastFail > cause {
		cause = j.lastFail
	}
	seq := j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindAttempt,
		Cause: cause, Detail: j.Intern(mechanism), Aux: uint64(n),
	})
	j.lastAttempt = seq
	// The span root points at itself: events in the span share its Seq.
	j.events[len(j.events)-1].Span = seq
}

// Pause records the current attempt stopping the world.
func (j *Journal) Pause(at time.Duration, cpu int) {
	if j == nil {
		return
	}
	j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindPause,
		Span: j.lastAttempt, Cause: j.lastAttempt,
	})
}

// Audit records the current attempt's audit verdict.
func (j *Journal) Audit(at time.Duration, cpu int, violations, repaired, sacrificed, escalations int) {
	if j == nil {
		return
	}
	j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindAudit,
		Span: j.lastAttempt, Cause: j.lastAttempt,
		Aux: AuditAux(violations, repaired, sacrificed, escalations),
	})
}

// Resume records the current attempt stably re-enabling guest execution.
func (j *Journal) Resume(at time.Duration, cpu int) {
	if j == nil {
		return
	}
	j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindResume,
		Span: j.lastAttempt, Cause: j.lastAttempt,
	})
}

// AttemptFail records the current attempt failing for the given reason.
func (j *Journal) AttemptFail(at time.Duration, cpu int, reason string) {
	if j == nil {
		return
	}
	j.lastFail = j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindAttemptFail,
		Span: j.lastAttempt, Cause: j.lastAttempt, Detail: j.Intern(reason),
	})
}

// Escalate records the ladder moving to its next rung, caused by the
// failed attempt.
func (j *Journal) Escalate(at time.Duration, cpu int, next string) {
	if j == nil {
		return
	}
	j.record(Event{
		At: at, CPU: int16(cpu), Kind: KindEscalate,
		Cause: j.lastFail, Detail: j.Intern(next),
	})
}

// Disposition records the run's final disposition: the engine status and,
// for failed runs, the terminal reason. Its cause is the last recorded
// event — the end of the causal chain.
func (j *Journal) Disposition(at time.Duration, status, reason string) {
	if j == nil {
		return
	}
	var cause uint32
	if n := len(j.events); n > 0 {
		cause = j.events[n-1].Seq
	}
	var aux uint64
	if reason != "" {
		aux = uint64(j.Intern(reason))
	}
	j.record(Event{
		At: at, Kind: KindDisposition,
		Cause: cause, Detail: j.Intern(status), Aux: aux,
	})
}

// Snapshot is captured journal state for later Restore.
type Snapshot struct{ journalState }

// Snapshot captures the journal state. The campaign layer snapshots at
// boot-complete (before any fault), so the captured events and intern
// table are the pristine baseline every forked run truncates back to.
func (j *Journal) Snapshot() *Snapshot {
	s := j.journalState
	s.events, s.strs = slices.Clone(s.events), slices.Clone(s.strs)
	return &Snapshot{s}
}

// Restore rewinds to a snapshot taken on this instance without
// allocating: the event array and the intern table cut back in place (map
// buckets and slice capacity stay, so the next run re-interns into
// existing storage).
func (j *Journal) Restore(s *Snapshot) {
	j.journalState, j.events, j.strs = s.journalState,
		snap.Slice(j.events, s.events), snap.Truncate(j.strs, j.strIDs, len(s.strs))
}

// itoa is a minimal integer formatter (keeps the name paths free of
// fmt/strconv imports and allocation-predictable).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
