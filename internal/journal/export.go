package journal

import (
	"fmt"
	"time"

	"nilihype/internal/telemetry"
)

// Entry is one journal event with its interned strings resolved — the
// exportable form a Result carries and the JSONL/trace renderers consume.
// All fields are value types, so entries survive the journal's restore and
// compare with reflect.DeepEqual.
type Entry struct {
	Seq    uint32        `json:"seq"`
	Span   uint32        `json:"span,omitempty"`
	Cause  uint32        `json:"cause,omitempty"`
	At     time.Duration `json:"at_ns"`
	CPU    int16         `json:"cpu"`
	Kind   string        `json:"kind"`
	Detail string        `json:"detail,omitempty"`
	Aux    uint64        `json:"aux,omitempty"`
	// AuxText resolves Aux for kinds whose payload is an interned string
	// (fault trigger names, disposition reasons) or packed counts (audit
	// verdicts) — the human-readable companion to the raw value.
	AuxText string `json:"aux_text,omitempty"`
}

// String renders the entry as a timeline line.
func (e Entry) String() string {
	s := fmt.Sprintf("[%10.3fms] cpu%-2d #%-3d %-12s", float64(e.At)/float64(time.Millisecond), e.CPU, e.Seq, e.Kind)
	if e.Span != 0 && e.Span != e.Seq {
		s += fmt.Sprintf(" span=#%d", e.Span)
	}
	if e.Cause != 0 {
		s += fmt.Sprintf(" cause=#%d", e.Cause)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.AuxText != "" {
		s += " (" + e.AuxText + ")"
	}
	return s
}

// export resolves one event into an Entry.
func (j *Journal) export(e Event) Entry {
	out := Entry{
		Seq: e.Seq, Span: e.Span, Cause: e.Cause,
		At: e.At, CPU: e.CPU,
		Kind: e.Kind.String(), Detail: j.Str(e.Detail), Aux: e.Aux,
	}
	switch e.Kind {
	case KindFault:
		out.AuxText = j.Str(uint32(e.Aux))
	case KindAttempt:
		out.AuxText = "attempt " + itoa(int(e.Aux))
	case KindAudit:
		v, r, s, esc := UnpackAuditAux(e.Aux)
		out.AuxText = fmt.Sprintf("violations=%d repaired=%d sacrificed=%d escalate=%d", v, r, s, esc)
	case KindDisposition:
		if e.Aux != 0 {
			out.AuxText = j.Str(uint32(e.Aux))
		}
	}
	return out
}

// Export resolves every recorded event. It returns nil (not an empty
// slice) for an empty journal, so Results assembled in recycled scratch
// stay bit-identical to cold ones.
func (j *Journal) Export() []Entry {
	if j == nil || len(j.events) == 0 {
		return nil
	}
	out := make([]Entry, len(j.events))
	for i, e := range j.events {
		out[i] = j.export(e)
	}
	return out
}

// TraceLaneTID is the journal's thread ID in the merged Chrome trace view,
// above the per-CPU lanes (0..N) and the recovery-phase lane (1000).
const TraceLaneTID = 2000

// TraceLane renders the journal as an extra Chrome-trace lane for
// telemetry.WriteChromeTraceLanes: one instant marker per event, plus one
// span per attempt stretching from its begin to its resume (or its
// failure, for attempts that never got the system back up).
func TraceLane(entries []Entry) telemetry.ExtraLane {
	lane := telemetry.ExtraLane{TID: TraceLaneTID, Name: "journal"}
	// Attempt spans: begin → resume/fail within the same span ID.
	spanEnd := make(map[uint32]time.Duration, 4)
	for _, e := range entries {
		if (e.Kind == "resume" || e.Kind == "attempt-fail") && e.Span != 0 {
			if _, seen := spanEnd[e.Span]; !seen {
				spanEnd[e.Span] = e.At
			}
		}
	}
	for _, e := range entries {
		name := e.Kind
		if e.Detail != "" {
			name += ":" + e.Detail
		}
		detail := e.AuxText
		if e.Cause != 0 {
			if detail != "" {
				detail += "; "
			}
			detail += "cause=#" + itoa(int(e.Cause))
		}
		m := telemetry.TraceMarker{Name: name, At: e.At, Detail: detail}
		if e.Kind == "attempt" {
			if end, ok := spanEnd[e.Seq]; ok && end > e.At {
				m.Dur = end - e.At
			}
		}
		lane.Markers = append(lane.Markers, m)
	}
	return lane
}
