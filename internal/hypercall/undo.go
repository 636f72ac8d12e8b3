package hypercall

import (
	"nilihype/internal/dom"
	"nilihype/internal/grant"
	"nilihype/internal/mm"
)

// UndoKind selects a data-driven undo action. The hot handlers (MMU
// pin/unpin, memory_op, grant map/unmap, EPT populate/unmap) log one undo
// record per critical write on the campaign fast path; closure-based
// records would allocate a capture per write, so every reversal is encoded
// as plain data applied by UndoRecord.apply instead.
type UndoKind uint8

// Undo record kinds.
const (
	// UndoFrameUseDelta adds Arg to Frame.UseCount (raw counter reversal,
	// deliberately bypassing the IncUse/DecUse assertions: rollback must
	// restore state even when the forward path's invariants no longer
	// hold).
	UndoFrameUseDelta UndoKind = iota + 1
	// UndoFrameRevalidate sets Frame.Validated back to true.
	UndoFrameRevalidate
	// UndoTotPagesDelta adds Arg to Dom.TotPages.
	UndoTotPagesDelta
	// UndoMaptrackUnmap reverses a grant map: Dom.Maptrack.Unmap(Arg,
	// Dom.GrantTab) with Arg holding the map handle.
	UndoMaptrackUnmap
	// UndoMaptrackMap reverses a grant unmap: Dom.Maptrack.Map(Dom.GrantTab,
	// Arg) with Arg holding the grant ref.
	UndoMaptrackMap
	// UndoDomctlCreate reverses domctl_create's insert: destroy domain Arg
	// if it exists and clear Env's created scratch, so the retry inserts
	// again.
	UndoDomctlCreate
)

// UndoRecord is one logged critical-variable write. Kind selects how the
// write is reversed; the pointer/Arg fields carry the target state.
type UndoRecord struct {
	Desc string
	Kind UndoKind

	Frame *mm.PageFrame
	Dom   *dom.Domain
	Env   *Env
	Arg   int
}

// apply performs the reversal.
func (r *UndoRecord) apply() {
	switch r.Kind {
	case UndoFrameUseDelta:
		r.Frame.UseCount += int32(r.Arg)
	case UndoFrameRevalidate:
		r.Frame.Validated = true
	case UndoTotPagesDelta:
		r.Dom.TotPages += r.Arg
	case UndoMaptrackUnmap:
		r.Dom.Maptrack.Unmap(grant.Handle(r.Arg), r.Dom.GrantTab)
	case UndoMaptrackMap:
		r.Dom.Maptrack.Map(r.Dom.GrantTab, r.Arg)
	case UndoDomctlCreate:
		if _, err := r.Env.Domains.ByID(r.Arg); err == nil {
			_ = r.Env.DestroyDomain(r.Arg)
		}
		r.Env.scr.created = false
	}
}

// UndoLog holds the undo records of the call currently executing on one
// CPU. The mitigation protocol (§IV) is:
//
//   - During a hypercall, each critical write is logged just before it is
//     performed.
//   - If the hypercall completes, the log is discarded — nothing to undo.
//   - If recovery interrupts the hypercall, the records are applied in
//     reverse order *before* the hypercall is retried, so the retry starts
//     from consistent state instead of re-applying non-idempotent updates.
type UndoLog struct {
	records []UndoRecord

	// Writes counts records ever logged (overhead accounting/tests).
	Writes uint64
	// Rollbacks counts recovery-time rollbacks performed.
	Rollbacks uint64
}

// NewUndoLog returns an empty log.
func NewUndoLog() *UndoLog { return &UndoLog{} }

// RecordData appends an undo record.
func (u *UndoLog) RecordData(r UndoRecord) {
	u.records = append(u.records, r)
	u.Writes++
}

// Len returns the number of pending records.
func (u *UndoLog) Len() int { return len(u.records) }

// Clear discards all records (call completed successfully). Capacity is
// kept: the log belongs to a per-CPU Env that lives for the whole run.
func (u *UndoLog) Clear() {
	for i := range u.records {
		u.records[i] = UndoRecord{}
	}
	u.records = u.records[:0]
}

// Rollback applies all records in reverse order and clears the log.
// Returns the number of records applied.
func (u *UndoLog) Rollback() int {
	n := len(u.records)
	for i := n - 1; i >= 0; i-- {
		u.records[i].apply()
	}
	u.Clear()
	if n > 0 {
		u.Rollbacks++
	}
	return n
}
