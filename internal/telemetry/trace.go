package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto "legacy JSON"). ts/dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// recoveryLaneOffset places recovery-engine spans on their own lanes,
// above the per-CPU lanes, in the chrome trace.
const recoveryLaneOffset = 1000

// TraceMarker is one externally-supplied trace entry merged into the
// Chrome trace view via WriteChromeTraceLanes — an instant when Dur is
// zero, a span otherwise.
type TraceMarker struct {
	Name   string
	At     time.Duration
	Dur    time.Duration
	Detail string
}

// ExtraLane is an additional named lane of externally-supplied markers
// (e.g. the recovery journal) merged into the Chrome trace view.
type ExtraLane struct {
	TID     int
	Name    string
	Markers []TraceMarker
}

// WriteChromeTraceLanes renders the flight recorder's retained events as a
// Chrome trace_event JSON document: per-CPU instant lanes for hypervisor
// activity, span ("X") events for recovery phases, and instant markers for
// injection, detection, and recovery milestones. Extra lanes merge in on
// their own named tracks — the recovery journal's causal event stream
// renders alongside the flight recorder's raw activity. Load the output in
// chrome://tracing or https://ui.perfetto.dev.
func (t *Telemetry) WriteChromeTraceLanes(w io.Writer, numCPUs int, lanes ...ExtraLane) error {
	events := t.Flight.Events()
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events)+numCPUs+4)}

	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "hyperrecover"},
	})
	for cpu := 0; cpu < numCPUs; cpu++ {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: cpu,
			Args: map[string]any{"name": fmt.Sprintf("cpu%d", cpu)},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "thread_name", Phase: "M", PID: 1, TID: recoveryLaneOffset,
		Args: map[string]any{"name": "recovery"},
	})

	for _, e := range events {
		ts := float64(e.At) / float64(time.Microsecond)
		switch e.Code {
		case EvPhase:
			nameID, d := UnpackPhaseArg(e.Arg)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: t.Str(nameID), Phase: "X",
				TS: ts, Dur: float64(d) / float64(time.Microsecond),
				PID: 1, TID: recoveryLaneOffset,
				Args: map[string]any{"cpu": int(e.CPU)},
			})
		case EvAttemptBegin, EvAttemptFail, EvEscalate, EvRecovered,
			EvPause, EvResume, EvAudit, EvDetect:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: t.markerName(e), Phase: "i", TS: ts,
				PID: 1, TID: recoveryLaneOffset, Scope: "p",
				Args: map[string]any{"cpu": int(e.CPU), "detail": t.EventDetail(e)},
			})
		case EvInject, EvPanic, EvSpin, EvWedge, EvNMI:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: t.markerName(e), Phase: "i", TS: ts,
				PID: 1, TID: int(e.CPU), Scope: "t",
				Args: map[string]any{"detail": t.EventDetail(e)},
			})
		default:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: t.markerName(e), Phase: "i", TS: ts,
				PID: 1, TID: int(e.CPU), Scope: "t",
			})
		}
	}

	for _, lane := range lanes {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: lane.TID,
			Args: map[string]any{"name": lane.Name},
		})
		for _, m := range lane.Markers {
			ev := chromeEvent{
				Name: m.Name, TS: float64(m.At) / float64(time.Microsecond),
				PID: 1, TID: lane.TID,
			}
			if m.Detail != "" {
				ev.Args = map[string]any{"detail": m.Detail}
			}
			if m.Dur > 0 {
				ev.Phase = "X"
				ev.Dur = float64(m.Dur) / float64(time.Microsecond)
			} else {
				ev.Phase = "i"
				ev.Scope = "p"
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// markerName builds the display name for a non-span event.
func (t *Telemetry) markerName(e Event) string {
	switch e.Code {
	case EvDispatch, EvComplete, EvRetry, EvDrop:
		return e.Code.String() + ":" + t.opName(e.Arg)
	case EvInject:
		return "inject:" + t.Str(e.Arg)
	case EvDetect:
		return "detect:" + t.Str(e.Arg)
	case EvAttemptBegin:
		return "attempt:" + t.Str(e.Arg)
	case EvEscalate:
		return "escalate:" + t.Str(e.Arg)
	case EvIRQEnter:
		return "irq:" + t.Str(e.Arg)
	default:
		return e.Code.String()
	}
}

// WriteTextTimeline renders the retained flight events as plain timeline
// lines, one per event, oldest first.
func (t *Telemetry) WriteTextTimeline(w io.Writer) error {
	for _, e := range t.Flight.Events() {
		if _, err := fmt.Fprintln(w, t.FormatEvent(e)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics renders every non-zero counter, gauge, and histogram as
// "name value" lines, sorted by name — a stable, diffable metrics dump.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	var lines []string
	for c := Counter(0); c < Counter(ctrOpBase); c++ {
		if t.Counters[c] != 0 {
			lines = append(lines, fmt.Sprintf("%s %d", c.Name(), t.Counters[c]))
		}
	}
	for op := 0; op < MaxOps; op++ {
		v := t.Counters[CtrOp(op)]
		if v == 0 {
			continue
		}
		name := "hypercall.op." + t.opName(uint64(op))
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if t.Gauges[g] != 0 {
			lines = append(lines, fmt.Sprintf("%s %d", g.Name(), t.Gauges[g]))
		}
	}
	for id := HistID(0); id < NumHists; id++ {
		h := &t.Hists[id]
		if h.Count == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s count=%d mean=%.1f p50=%d p99=%d max=%d",
			id.Name(), h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
