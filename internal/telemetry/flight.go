package telemetry

import (
	"fmt"
	"time"
)

// EventCode classifies flight-recorder events.
type EventCode uint16

// Flight-recorder event codes. Arg semantics per code are documented
// inline; "interned" means the arg is an Intern ID resolved via Str.
const (
	EvDispatch     EventCode = iota + 1 // arg: hypercall op code
	EvComplete                          // arg: hypercall op code
	EvIRQEnter                          // arg: interned activity ("timer", "nic", ...)
	EvPanic                             // arg: interned reason
	EvSpin                              // arg: interned lock name
	EvWedge                             // arg: unused
	EvInject                            // arg: interned fault description
	EvDetect                            // arg: interned detection reason
	EvPause                             // arg: unused (recovery paused the hypervisor)
	EvDiscard                           // arg: CPU whose thread was discarded
	EvAttemptBegin                      // arg: interned mechanism name
	EvPhase                             // arg: interned phase name <<40 | duration µs
	EvAttemptFail                       // arg: interned failure reason
	EvEscalate                          // arg: interned next mechanism name
	EvResume                            // arg: unused (guests resumed)
	EvRetry                             // arg: hypercall op code of the retried call
	EvDrop                              // arg: hypercall op code of the dropped call
	EvRecovered                         // arg: attempt number
	EvAudit                             // arg: violations <<16 | repairs <<8 | verdict
	EvNMI                               // arg: unused (watchdog NMI delivered)
)

// String returns the code's short name.
func (c EventCode) String() string {
	names := [...]string{
		EvDispatch: "dispatch", EvComplete: "complete", EvIRQEnter: "irq",
		EvPanic: "panic", EvSpin: "spin", EvWedge: "wedge",
		EvInject: "inject", EvDetect: "detect", EvPause: "pause",
		EvDiscard: "discard", EvAttemptBegin: "attempt", EvPhase: "phase",
		EvAttemptFail: "attempt-fail", EvEscalate: "escalate",
		EvResume: "resume", EvRetry: "retry", EvDrop: "drop",
		EvRecovered: "recovered", EvAudit: "audit", EvNMI: "nmi",
	}
	if int(c) < len(names) && names[c] != "" {
		return names[c]
	}
	return "ev." + itoa(int(c))
}

// PhaseArg packs a phase-span flight argument: the interned phase name and
// the span duration. Durations cap at 2^40-1 µs (~13 days of simulated
// time), far beyond any recovery latency.
func PhaseArg(nameID uint64, d time.Duration) uint64 {
	us := uint64(d / time.Microsecond)
	if us >= 1<<40 {
		us = 1<<40 - 1
	}
	return nameID<<40 | us
}

// UnpackPhaseArg splits a PhaseArg back into name ID and duration.
func UnpackPhaseArg(arg uint64) (nameID uint64, d time.Duration) {
	return arg >> 40, time.Duration(arg&(1<<40-1)) * time.Microsecond
}

// AuditArg packs an audit-report flight argument.
func AuditArg(violations, repairs, verdict int) uint64 {
	clamp := func(v, max int) uint64 {
		if v < 0 {
			return 0
		}
		if v > max {
			return uint64(max)
		}
		return uint64(v)
	}
	return clamp(violations, 0xffff)<<16 | clamp(repairs, 0xff)<<8 | clamp(verdict, 0xff)
}

// Event is one flight-recorder entry: 24 bytes, no pointers, so the ring
// is a flat slab the GC never scans into.
type Event struct {
	At   int64 // simulated time, ns
	Arg  uint64
	Code EventCode
	CPU  int16
}

// Ring is the flight recorder's fixed-size power-of-two event ring. next
// counts every event ever recorded; next & mask indexes the slot, so the
// ring always holds the most recent len(buf) events.
type Ring struct {
	buf  []Event
	mask uint64
	next uint64
}

// Len returns how many events the ring currently holds.
func (r *Ring) Len() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Tail appends the newest n events (oldest-first) to dst and returns it.
// n larger than the ring's contents yields everything retained.
func (r *Ring) Tail(dst []Event, n int) []Event {
	held := uint64(r.Len())
	if uint64(n) < held {
		held = uint64(n)
	}
	for i := r.next - held; i < r.next; i++ {
		dst = append(dst, r.buf[i&r.mask])
	}
	return dst
}

// Events returns all retained events, oldest-first.
func (r *Ring) Events() []Event {
	return r.Tail(make([]Event, 0, r.Len()), r.Len())
}

// FormatEvent renders a flight event as a timeline line, resolving
// interned args through the telemetry instance that recorded it.
func (t *Telemetry) FormatEvent(e Event) string {
	return fmt.Sprintf("[%10.3fms] cpu%-2d %-12s %s",
		float64(e.At)/float64(time.Millisecond), e.CPU, e.Code, t.EventDetail(e))
}

// EventDetail decodes an event's arg into human-readable detail.
func (t *Telemetry) EventDetail(e Event) string {
	switch e.Code {
	case EvDispatch, EvComplete, EvRetry, EvDrop:
		return t.opName(e.Arg)
	case EvIRQEnter, EvPanic, EvSpin, EvInject, EvDetect, EvAttemptBegin,
		EvAttemptFail, EvEscalate:
		return t.Str(e.Arg)
	case EvPhase:
		nameID, d := UnpackPhaseArg(e.Arg)
		return fmt.Sprintf("%s (%.3fms)", t.Str(nameID), float64(d)/float64(time.Millisecond))
	case EvDiscard:
		return "cpu" + itoa(int(e.Arg))
	case EvRecovered:
		return "attempt " + itoa(int(e.Arg))
	case EvAudit:
		return fmt.Sprintf("violations=%d repairs=%d verdict=%d",
			e.Arg>>16&0xffff, e.Arg>>8&0xff, e.Arg&0xff)
	default:
		if e.Arg != 0 {
			return "arg=" + itoa(int(e.Arg))
		}
		return ""
	}
}

// opName resolves a hypercall op code through the boot-installed name
// table.
func (t *Telemetry) opName(op uint64) string {
	if t != nil && op < uint64(len(t.OpNames)) && t.OpNames[op] != "" {
		return t.OpNames[op]
	}
	return "op." + itoa(int(op))
}

// FlightTail formats the newest n flight events as timeline lines —
// the forensic record a failed campaign run carries in its Result.
func (t *Telemetry) FlightTail(n int) []string {
	if t == nil {
		return nil
	}
	events := t.Flight.Tail(make([]Event, 0, n), n)
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = t.FormatEvent(e)
	}
	return out
}
