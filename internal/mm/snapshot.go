package mm

import (
	"slices"

	"nilihype/internal/snap"
)

// FrameTableSnapshot is a copy of the page frame descriptor table,
// immutable once captured. The frame table is the one component not
// restored by assigning a state value back: at 8 GB it holds 2 M
// descriptors, and its dirty-chunk overlay copies back only what a run
// touched. It stores the segments the table had
// materialized and leaves the rest nil, so it costs what boot wrote (one
// 2 MB segment at 8 GB or 64 GB), not the size of memory. Restoring the
// snapshot the table's dirty set is relative to — its base, see
// FrameTable — copies back only the chunks touched since, so a campaign's
// run-after-run restore costs what the run dirtied (a few thousand
// descriptors), not the size of memory, and allocates nothing.
type FrameTableSnapshot struct {
	frames frameStore

	// inconsistent lists the descriptors that were inconsistent at
	// capture. A snapshot need not be consistent, and the scans look only
	// at dirty chunks, so Restore re-marks theirs after clearing the rest.
	inconsistent []int
}

// Snapshot captures every materialized segment and makes the capture the
// table's base. A table that still equals its base returns that base
// instead of copying again.
func (ft *FrameTable) Snapshot() *FrameTableSnapshot {
	if ft.equalsBase() {
		return ft.base
	}
	s := &FrameTableSnapshot{
		frames:       newFrameStore(ft.n),
		inconsistent: ft.InconsistentFrames(),
	}
	for k, seg := range ft.frames {
		if seg != nil {
			s.frames[k] = slices.Clone(seg)
		}
	}
	ft.rebase(s)
	return s
}

// equalsBase reports whether the table has a base and every descriptor
// equals it; only dirty chunks can differ.
func (ft *FrameTable) equalsBase() bool {
	if ft.base == nil {
		return false
	}
	equal := true
	ft.eachDirtyChunk(func(lo, hi int) {
		equal = equal && slices.Equal(ft.frames.span(lo, hi), ft.base.frames.span(lo, hi))
	})
	return equal
}

// rebase makes s, whose contents the table now equals, the base: nothing
// is dirty except the chunks holding s's own inconsistent descriptors.
func (ft *FrameTable) rebase(s *FrameTableSnapshot) {
	ft.base = s
	clear(ft.dirty)
	for _, i := range s.inconsistent {
		ft.markChunk(i >> chunkShift)
	}
}

// Restore rewinds the table to s, which must be a snapshot of this table.
// When s is the table's base only the dirty chunks are copied back; any
// other snapshot is copied in full and becomes the base. No segment is
// ever dropped: a stored segment s does not store is reset to pristine in
// place, and one neither stores stays unstored.
func (ft *FrameTable) Restore(s *FrameTableSnapshot) {
	if s == ft.base {
		ft.eachDirtyChunk(func(lo, hi int) { copy(ft.frames.span(lo, hi), s.frames.span(lo, hi)) })
	} else {
		for k, src := range s.frames {
			if src != nil {
				copy(ft.frames[k], src)
			} else if ft.frames[k] != nil {
				resetPristine(ft.frames[k])
			}
		}
	}
	ft.rebase(s)
}

// HeapSnapshot captures the heap allocator: its state value and the
// live-object set in ID order, each object with its contents. Domains and
// other structures hold references to their objects, so restore revives
// the same objects in place.
type HeapSnapshot struct {
	heapState
	objects []snap.Obj[Object, objectState]
}

// Snapshot captures the heap state.
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{heapState: h.heapState}
	s.free = slices.Clone(s.free)
	for id := uint64(0); id < h.nextID; id++ {
		if o, ok := h.objects[id]; ok {
			st := o.objectState
			st.Pages, st.locks = slices.Clone(st.Pages), slices.Clone(st.locks)
			s.objects = append(s.objects, snap.Obj[Object, objectState]{P: o, S: st})
		}
	}
	return s
}

// Restore rewinds the heap to the snapshot: the free list regains its
// saved LIFO order (allocation order after a restore is bit-identical to
// allocation order after a fresh boot), objects allocated since the
// snapshot drop out of the object map, and snapshot objects — freed,
// corrupted, or mutated since — are revived in place with their saved
// contents.
func (h *Heap) Restore(s *HeapSnapshot) {
	h.heapState, h.free = s.heapState, snap.Slice(h.free, s.free)
	clear(h.objects)
	for i := range s.objects {
		o, st := s.objects[i].P, &s.objects[i].S
		o.objectState, o.Pages, o.locks = *st, snap.Slice(o.Pages, st.Pages), snap.Slice(o.locks, st.locks)
		h.objects[o.ID] = o
	}
}
