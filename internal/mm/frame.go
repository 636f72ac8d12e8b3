// Package mm models the hypervisor's memory-management state: the page
// frame descriptor table (Xen's struct page_info array), the hypervisor
// heap allocator, and guest page-table accounting.
//
// Two pieces of this state drive the paper's results directly:
//
//   - Each page frame descriptor holds a validation bit and a use counter
//     that hypercall handlers update separately. A fault between the two
//     updates leaves them inconsistent; the recovery-time consistency scan
//     (both mechanisms run it) walks every descriptor and repairs the
//     mismatch. The scan dominates NiLiHype's 22 ms recovery latency
//     (Table III) and scales with memory size (§VII-B).
//
//   - The heap's allocated-page set is what ReHype must record and
//     re-integrate across reboot (Table II "Memory initialization").
package mm

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// FrameType classifies a physical page frame.
type FrameType uint8

// Frame types.
const (
	FrameFree      FrameType = iota + 1 // on the heap free list
	FrameHeap                           // allocated from the hypervisor heap
	FrameGuest                          // owned by a guest as ordinary RAM
	FramePageTable                      // validated as a guest page table
)

// String returns the frame type name.
func (t FrameType) String() string {
	switch t {
	case FrameFree:
		return "free"
	case FrameHeap:
		return "heap"
	case FrameGuest:
		return "guest"
	case FramePageTable:
		return "pagetable"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// NoDomain marks a frame with no owning domain.
const NoDomain = -1

// PageFrame is one page frame descriptor. UseCount and Validated are the
// two components the paper calls out as separately updated and therefore
// vulnerable to being left inconsistent by a partially executed hypercall
// (§VII-B). The fields are packed into 8 bytes: an 8 GB host has 2 M of
// these, but a table stores only the segments something has written (see
// frameStore), so host memory follows what was written, not RAM size.
type PageFrame struct {
	Type      FrameType
	Validated bool
	Owner     int16 // owning domain, NoDomain if none
	UseCount  int32 // reference/type count
}

// consistent reports whether the descriptor satisfies the invariant the
// recovery scan enforces: a validated page-table frame must be referenced,
// and a referenced page-table frame must be validated.
func (f *PageFrame) consistent() bool {
	if f.Type != FramePageTable {
		return true
	}
	return (f.UseCount > 0) == f.Validated
}

// chunkFrames is the dirty-tracking granularity: one dirty bit covers this
// many consecutive descriptors (512 bytes of table).
const (
	chunkShift  = 6
	chunkFrames = 1 << chunkShift
)

// frameStore holds n descriptors as segments of segFrames, the last one
// shorter, rather than as one array. A segment nothing has written is nil
// and reads as the pristine descriptor {FrameFree, NoDomain}, served from
// one shared read-only chunk; the first write through FrameTable.Frame
// materializes the segment with pristine contents, and it stays
// materialized for the life of the table. Boot writes only the first
// ~65 k descriptors (the 128 MB heap and the guests), so a boot image at
// 8 GB stores one 2 MB segment, not 16 MB, and at 64 GB one, not 128 MB.
// The live table of a forked run grows past that only where the run
// writes outside those segments, which in practice is a corrupted
// descriptor (CorruptRandomDescriptor draws its frame from all of
// memory): such a run materializes a segment, and the table keeps it.
//
// Segments also bound what a fragmented Go heap costs a process that
// builds image after image (a campaign per configuration, a benchmark's
// set-up repetitions): a collected block is reused only while nothing at
// all has been allocated inside it, and with segments that accident costs
// one segment, not one whole table.
//
// A segment is 2 MB: the whole table of a 1 GB host, whose allocation
// pattern is therefore what it was. Smaller segments were measured (1 MB,
// 256 KB, 64 KB) and spread the 1 GB workloads' peak RSS or runs/s wider.
type frameStore [][]PageFrame

const (
	segShift  = 18
	segFrames = 1 << segShift
)

// pristine is what every descriptor of a nil segment reads as. It is
// shared by all tables and never written: at returns copies, and span
// hands out slices of it only to readers and to the repair scan, which
// writes nothing into a consistent descriptor.
var pristine = func() (c [chunkFrames]PageFrame) {
	for i := range c {
		c[i] = PageFrame{Type: FrameFree, Owner: NoDomain}
	}
	return c
}()

// newFrameStore returns n descriptors, all pristine and none stored.
func newFrameStore(n int) frameStore { return make(frameStore, (n+segFrames-1)>>segShift) }

// materialize stores segment k of a store of n with pristine contents.
func (s frameStore) materialize(k, n int) {
	s[k] = make([]PageFrame, min(segFrames, n-k<<segShift))
	resetPristine(s[k])
}

// resetPristine overwrites seg with pristine descriptors.
func resetPristine(seg []PageFrame) {
	for lo := 0; lo < len(seg); lo += chunkFrames {
		copy(seg[lo:], pristine[:])
	}
}

// at returns a copy of descriptor i.
func (s frameStore) at(i int) PageFrame {
	seg := s[i>>segShift]
	if seg == nil {
		return pristine[i&(chunkFrames-1)]
	}
	return seg[i&(segFrames-1)]
}

// span returns descriptors [lo, hi), which must lie in one chunk starting
// at lo; a dirty chunk always does, and never straddles segments, since
// segFrames is a multiple of chunkFrames.
func (s frameStore) span(lo, hi int) []PageFrame {
	seg := s[lo>>segShift]
	if seg == nil {
		return pristine[:hi-lo]
	}
	return seg[lo&(segFrames-1) : (hi-1)&(segFrames-1)+1]
}

// FrameTable is the array of page frame descriptors covering physical
// memory, plus one dirty set: a bitmap with one bit per chunk of
// chunkFrames descriptors. The invariant is
//
//	a clear bit means every descriptor in the chunk equals the base
//	snapshot and is consistent.
//
// Restore and the consistency scans rely on it to visit only dirty chunks,
// so their host cost follows what a run touched rather than the size of
// memory. (The simulated cost the caller charges still follows Len(): the
// modelled hypervisor scans every descriptor.)
//
// The base is the snapshot most recently captured from or restored into
// the table; before the first Snapshot there is none and every chunk is
// dirty. Every write goes through Frame, which marks (AssignRange and
// CorruptRandomDescriptor included). Readers use At, which does not.
//
// Marking writes a bitmap word shared by 4096 frames, so unlike plain
// descriptor writes, two goroutines mutating different frames race. The
// rule is that only one goroutine at a time calls Frame, a method that
// writes, Snapshot or Restore. Recovery observes it: the PF-scan enhancement runs inline on
// the engine goroutine, and the two audit units that mutate descriptors
// (heap-freelist, pf-descriptors) both belong to the Global recovery
// domain, which is a single lane.
//
// Storage is sparse (see frameStore): a segment nothing has written is
// nil in the table and in every snapshot taken of it. Two more invariants
// link storage to snapshots and to the dirty set:
//
//	a segment materialized in the base (or in any snapshot of the
//	table) is materialized in the table;
//
//	once the table has a base, every dirty chunk lies in a
//	materialized segment.
//
// The first holds because Snapshot copies exactly the table's
// materialized segments and no segment is ever dropped; the second
// because Frame materializes the segment of every chunk it marks, and a
// rebase clears the rest and marks only inconsistent descriptors, which
// pristine ones are not.
// So Restore copies into materialized segments only and never writes the
// shared pristine chunk: from the base, into the dirty chunks; from
// another snapshot, into each segment that snapshot stores or the table
// does.
type FrameTable struct {
	n      int
	frames frameStore
	dirty  []uint64
	base   *FrameTableSnapshot
}

// NewFrameTable builds a table of n free frames, none of them stored yet.
func NewFrameTable(n int) *FrameTable {
	chunks := (n + chunkFrames - 1) >> chunkShift
	ft := &FrameTable{
		n:      n,
		frames: newFrameStore(n),
		dirty:  make([]uint64, (chunks+63)/64),
	}
	for c := 0; c < chunks; c++ {
		ft.markChunk(c)
	}
	return ft
}

// Len returns the number of page frames.
func (ft *FrameTable) Len() int { return ft.n }

func (ft *FrameTable) markChunk(c int) { ft.dirty[c>>6] |= 1 << (c & 63) }

// Frame returns descriptor i for mutation and marks its chunk dirty:
// handing out the pointer is the dirtying event, because callers (undo
// records among them) keep the pointer and write through it later. The
// pointer may be written until the next Snapshot or Restore, which reset
// the dirty set; after that, fetch it again. Read-only callers use At.
// The first Frame into a segment materializes it.
func (ft *FrameTable) Frame(i int) *PageFrame {
	ft.markChunk(i >> chunkShift)
	k := i >> segShift
	if ft.frames[k] == nil {
		ft.frames.materialize(k, ft.n)
	}
	return &ft.frames[k][i&(segFrames-1)]
}

// At returns a copy of descriptor i without dirtying its chunk.
func (ft *FrameTable) At(i int) PageFrame { return ft.frames.at(i) }

// eachDirtyChunk calls fn with the frame range [lo, hi) of every dirty
// chunk, in ascending order.
func (ft *FrameTable) eachDirtyChunk(fn func(lo, hi int)) {
	for w, word := range ft.dirty {
		for ; word != 0; word &= word - 1 {
			lo := (w<<6 | bits.TrailingZeros64(word)) << chunkShift
			fn(lo, min(lo+chunkFrames, ft.n))
		}
	}
}

// InconsistentFrames returns the indices of descriptors violating the
// validation-bit/use-counter invariant, in ascending order. Only dirty
// chunks can hold one.
func (ft *FrameTable) InconsistentFrames() []int {
	var out []int
	ft.eachDirtyChunk(func(lo, hi int) {
		for i, f := range ft.frames.span(lo, hi) {
			if !f.consistent() {
				out = append(out, lo+i)
			}
		}
	})
	return out
}

// ScanAndRepair is the recovery-time consistency scan: it repairs every
// validation-bit/use-counter mismatch, returning the number repaired. It
// visits dirty chunks only (a clean chunk has nothing to repair); the
// caller charges simulated time proportional to Len() (Table III: 21 ms
// for the 2M descriptors of an 8 GB host). A repaired chunk was already
// dirty, so the scan itself marks nothing; a chunk of a nil segment reads
// as pristine, which is consistent, so the scan never writes into it.
func (ft *FrameTable) ScanAndRepair() int {
	repaired := 0
	ft.eachDirtyChunk(func(lo, hi int) {
		chunk := ft.frames.span(lo, hi)
		for i := range chunk {
			f := &chunk[i]
			if f.consistent() {
				continue
			}
			// Repair direction mirrors Xen: trust the use counter when
			// it is positive (a reference exists, so finish the
			// validation); otherwise drop the stale validation.
			f.Validated = f.UseCount > 0
			repaired++
		}
	})
	return repaired
}

// CorruptRandomDescriptor flips one descriptor into an inconsistent state,
// modeling error propagation into the frame table. It returns the frame
// index.
func (ft *FrameTable) CorruptRandomDescriptor(rng *rand.Rand) int {
	i := rng.IntN(ft.n)
	f := ft.Frame(i)
	f.Type = FramePageTable
	if rng.IntN(2) == 0 {
		f.UseCount = int32(1 + rng.IntN(3))
		f.Validated = false
	} else {
		f.UseCount = 0
		f.Validated = true
	}
	return i
}
