package journal

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// emitEpisode writes one representative recovery episode into j.
func emitEpisode(j *Journal) {
	j.Fault(1*time.Millisecond, 0, "Failstop", "primary")
	j.Corruption(1*time.Millisecond, 0, "heap-freelist")
	j.Detect(2*time.Millisecond, 1, "panic: fatal page fault")
	j.Attempt(2*time.Millisecond, 1, "NiLiHype", 1)
	j.Pause(2*time.Millisecond, 1)
	j.Audit(2*time.Millisecond, 1, 3, 2, 1, 0)
	j.Resume(4*time.Millisecond, 1)
	j.Disposition(10*time.Millisecond, "recovered", "")
}

func TestCausalLinks(t *testing.T) {
	j := New(0)
	emitEpisode(j)
	ev := j.events
	if len(ev) != 8 {
		t.Fatalf("got %d events, want 8", len(ev))
	}
	fault, corr, det, att := ev[0], ev[1], ev[2], ev[3]
	pause, aud, res, disp := ev[4], ev[5], ev[6], ev[7]

	if corr.Cause != fault.Seq {
		t.Errorf("corruption cause = #%d, want fault #%d", corr.Cause, fault.Seq)
	}
	if det.Cause != fault.Seq {
		t.Errorf("detect cause = #%d, want fault #%d", det.Cause, fault.Seq)
	}
	if att.Cause != det.Seq {
		t.Errorf("attempt cause = #%d, want detect #%d", att.Cause, det.Seq)
	}
	if att.Span != att.Seq {
		t.Errorf("attempt span = #%d, want its own seq #%d", att.Span, att.Seq)
	}
	for _, e := range []Event{pause, aud, res} {
		if e.Span != att.Seq {
			t.Errorf("%v span = #%d, want attempt #%d", e.Kind, e.Span, att.Seq)
		}
	}
	if disp.Cause != res.Seq {
		t.Errorf("disposition cause = #%d, want last event #%d", disp.Cause, res.Seq)
	}
	if v, r, s, esc := UnpackAuditAux(aud.Aux); v != 3 || r != 2 || s != 1 || esc != 0 {
		t.Errorf("audit aux unpacked to %d/%d/%d/%d, want 3/2/1/0", v, r, s, esc)
	}
}

func TestEscalationChain(t *testing.T) {
	j := New(0)
	j.Detect(1*time.Millisecond, 0, "hang")
	j.Attempt(1*time.Millisecond, 0, "NiLiHype", 1)
	j.AttemptFail(3*time.Millisecond, 0, "post-recovery hang")
	j.Escalate(3*time.Millisecond, 0, "ReHype")
	j.Attempt(3*time.Millisecond, 0, "ReHype", 2)
	ev := j.events
	det, att1, fail, esc, att2 := ev[0], ev[1], ev[2], ev[3], ev[4]
	if att1.Cause != det.Seq {
		t.Errorf("first attempt cause = #%d, want detect #%d", att1.Cause, det.Seq)
	}
	if fail.Span != att1.Seq {
		t.Errorf("attempt-fail span = #%d, want attempt #%d", fail.Span, att1.Seq)
	}
	if esc.Cause != fail.Seq {
		t.Errorf("escalate cause = #%d, want fail #%d", esc.Cause, fail.Seq)
	}
	if att2.Cause != fail.Seq {
		t.Errorf("second attempt cause = #%d, want fail #%d (not the stale detect)", att2.Cause, fail.Seq)
	}
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	j := New(0)
	j.Fault(1*time.Millisecond, 0, "boot-noise", "primary")
	snap := j.Snapshot()
	want := append([]Event(nil), j.events...)

	emitEpisode(j)
	first := j.Export()
	j.Restore(snap)
	if !reflect.DeepEqual(j.events, want) {
		t.Fatalf("restore did not truncate to snapshot: %v", j.events)
	}

	// Replaying the same episode after restore must reproduce the export
	// exactly — same seqs, same interned strings, same causal links.
	emitEpisode(j)
	if !reflect.DeepEqual(j.Export(), first) {
		t.Fatalf("post-restore replay diverged:\n%v\nvs\n%v", j.Export(), first)
	}
}

func TestRestoredJournalRecordsAllocationFree(t *testing.T) {
	j := New(0)
	snap := j.Snapshot()
	// Warm up the arrays and intern table.
	emitEpisode(j)
	j.Restore(snap)

	allocs := testing.AllocsPerRun(100, func() {
		emitEpisode(j)
		j.Restore(snap)
	})
	if allocs > 0 {
		t.Errorf("steady-state emit+restore allocates %.1f/op, want 0", allocs)
	}
}

func TestExportJSONL(t *testing.T) {
	j := New(0)
	emitEpisode(j)
	// The postmortem bundle's JSON form: one encoded Entry per line.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range j.Export() {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(j.events) {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), len(j.events))
	}
	var first Entry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if first.Kind != "fault" || first.AuxText != "primary" || first.Detail != "Failstop" {
		t.Errorf("unexpected first entry: %+v", first)
	}
}

func TestExportEmptyIsNil(t *testing.T) {
	if got := New(0).Export(); got != nil {
		t.Errorf("empty journal Export = %v, want nil", got)
	}
	var nilJ *Journal
	if got := nilJ.Export(); got != nil {
		t.Errorf("nil journal Export = %v, want nil", got)
	}
}

func TestNilJournalEmittersAreNoOps(t *testing.T) {
	var j *Journal
	// Must not panic.
	emitEpisode(j)
	j.AttemptFail(0, 0, "x")
	j.Escalate(0, 0, "x")
	if j.Export() != nil {
		t.Error("nil journal exported entries")
	}
}

func TestTraceLaneSpans(t *testing.T) {
	j := New(0)
	emitEpisode(j)
	lane := TraceLane(j.Export())
	if lane.TID != TraceLaneTID || lane.Name != "journal" {
		t.Fatalf("unexpected lane identity: %+v", lane)
	}
	if len(lane.Markers) != len(j.events) {
		t.Fatalf("got %d markers, want %d", len(lane.Markers), len(j.events))
	}
	var spans int
	for _, m := range lane.Markers {
		if m.Dur > 0 {
			spans++
			if m.Dur != 2*time.Millisecond { // attempt at 2ms, resume at 4ms
				t.Errorf("attempt span dur = %v, want 2ms", m.Dur)
			}
		}
	}
	if spans != 1 {
		t.Errorf("got %d spans, want 1 (the attempt)", spans)
	}
}
