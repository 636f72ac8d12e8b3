package mm

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"nilihype/internal/locking"
)

// objectCanarySalt seeds the per-object canary word. The canary models the
// integrity of an allocated heap object's contents: error propagation that
// scribbles over a live object flips canary bits, and the post-recovery
// audit (or the §VII-A failure path) discovers the mismatch.
const objectCanarySalt = 0x9e3779b97f4a7c15

func canaryFor(id uint64) uint64 { return id*objectCanarySalt ^ 0x5ca1ab1e }

// Object is one allocation from the hypervisor heap. Objects may embed
// spinlocks (registered with the lock registry as heap locks), mirroring
// Xen structures such as struct domain.
type Object struct {
	ID uint64
	objectState
}

// objectState is an object's contents.
type objectState struct {
	Tag   string
	Pages []int // frame indices backing the object

	locks  []*locking.Lock
	freed  bool
	canary uint64
}

// Damaged reports whether the object's contents have been corrupted (its
// canary no longer matches). Both microreset and microreboot preserve live
// objects in place, so this damage survives every ladder rung (§VII-A's
// "corrupted allocated object" class) unless the audit repairs it.
func (o *Object) Damaged() bool { return o.canary != canaryFor(o.ID) }

// Corrupt flips a random canary bit, modeling error propagation into the
// object's contents.
func (o *Object) Corrupt(rng *rand.Rand) {
	o.canary ^= 1 << uint(rng.IntN(64))
}

// Repair re-initializes the object's contents to a known-good fixed state.
// The object is no longer damaged, but whatever guest state it encoded is
// gone — callers sacrifice the owning VM when one exists.
func (o *Object) Repair() { o.canary = canaryFor(o.ID) }

// checkWindow is how many entries at the hot (LIFO) end of the free list
// the cheap Check walk validates. Allocator hypercall paths call Check, so
// it must stay O(1)-ish; the full-list walk is ValidateFreeList.
const checkWindow = 8

// corruptDepth bounds how deep from the LIFO end CorruptFreeList damages an
// entry: near-term allocations traverse the damage, so the fault manifests
// within the run rather than lying dormant at the bottom of the list.
const corruptDepth = 16

// Heap is the hypervisor heap allocator over the frame table. Its free
// list is the "linked list or the heap" data structure whose corruption is
// the paper's third leading cause of recovery failure (§VII-A). Corruption
// is structural: CorruptFreeList damages real entries, Check/Alloc validate
// the hot end, and ValidateFreeList performs the full audit walk.
type Heap struct {
	ft    *FrameTable
	locks *locking.Registry

	start, count int // frame range owned by the heap

	heapState
	// objects is the live-object set; a snapshot saves it object by
	// object.
	objects map[uint64]*Object

	// seen and seenOutside are ValidateFreeList's scratch: one bit per
	// frame of the heap's own range, and the (rare) list entries that
	// name a frame outside it.
	seen        []uint64
	seenOutside []int
}

// heapState is the allocator's free list and ID counter.
type heapState struct {
	free   []int // free frame indices (LIFO free list)
	nextID uint64
}

// NewHeap builds a heap owning the frames [start, start+count) of ft.
func NewHeap(ft *FrameTable, locks *locking.Registry, start, count int) *Heap {
	h := &Heap{
		ft:      ft,
		locks:   locks,
		start:   start,
		count:   count,
		objects: make(map[uint64]*Object),
		seen:    make([]uint64, (count+63)/64),
	}
	// LIFO order: push high frames first so low frames allocate first.
	for i := start + count - 1; i >= start; i-- {
		h.free = append(h.free, i)
	}
	return h
}

// entryValid reports whether the free-list entry at depth i from the LIFO
// end names an in-range frame that is actually free and not a duplicate of
// a shallower entry.
func (h *Heap) entryValid(i int) bool {
	fi := h.free[len(h.free)-1-i]
	if fi < 0 || fi >= h.ft.Len() || h.ft.At(fi).Type != FrameFree {
		return false
	}
	for j := 0; j < i; j++ {
		if h.free[len(h.free)-1-j] == fi {
			return false
		}
	}
	return true
}

// Alloc allocates an object of the given page count. It validates the
// free-list entries it is about to hand out and returns nil — without
// popping anything — if the heap is exhausted or an entry is damaged (the
// caller treats nil as a fatal hypervisor error).
func (h *Heap) Alloc(pages int, tag string) *Object {
	if pages > len(h.free) {
		return nil
	}
	for i := 0; i < pages; i++ {
		if !h.entryValid(i) {
			return nil
		}
	}
	o := &Object{ID: h.nextID, objectState: objectState{Tag: tag}}
	o.canary = canaryFor(o.ID)
	h.nextID++
	for i := 0; i < pages; i++ {
		fi := h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		h.ft.Frame(fi).Type = FrameHeap
		o.Pages = append(o.Pages, fi)
	}
	h.objects[o.ID] = o
	return o
}

// AddLock embeds a new heap spinlock in the object.
func (h *Heap) AddLock(o *Object, name string) *locking.Lock {
	l := h.locks.NewHeap(fmt.Sprintf("%s.%s", o.Tag, name))
	o.locks = append(o.locks, l)
	return l
}

// Free releases the object's pages back to the free list and drops its
// locks from the registry. Double-free panics (hypervisor bug).
func (h *Heap) Free(o *Object) {
	if o.freed {
		panic(fmt.Sprintf("mm: double free of object %d (%s)", o.ID, o.Tag))
	}
	o.freed = true
	delete(h.objects, o.ID)
	for _, fi := range o.Pages {
		h.ft.Frame(fi).Type = FrameFree
		h.free = append(h.free, fi)
	}
	for _, l := range o.locks {
		h.locks.DropHeap(l)
	}
}

// AllocatedPages returns the frame indices of every live object, in object
// ID order. ReHype's "record allocated pages of old heap" step walks this
// set so the reboot can preserve their contents (Table II).
func (h *Heap) AllocatedPages() []int {
	var out []int
	// Deterministic order: iterate IDs from 0 to nextID.
	for id := uint64(0); id < h.nextID; id++ {
		if o, ok := h.objects[id]; ok {
			out = append(out, o.Pages...)
		}
	}
	return out
}

// Rebuild reconstructs the free list from the frame table, preserving live
// objects. This is ReHype's "recreate the new heap" step (Table II, 211 ms
// at 8 GB); rebuilding discards any free-list damage — the reason
// microreboot survives some heap-corrupting faults that microreset does
// not.
func (h *Heap) Rebuild() {
	h.free = h.free[:0]
	allocated := make(map[int]bool)
	for _, o := range h.objects {
		for _, fi := range o.Pages {
			allocated[fi] = true
		}
	}
	// Walk only the heap's own range: free frames elsewhere in the
	// machine (unallocated guest memory) are not the heap's to hand out.
	// Reading by value keeps the untouched part of the range clean; only a
	// leaked frame is fetched for writing.
	for i := h.start + h.count - 1; i >= h.start; i-- {
		t := h.ft.At(i).Type
		if t == FrameHeap && !allocated[i] {
			h.ft.Frame(i).Type = FrameFree
			t = FrameFree
		}
		if t == FrameFree {
			h.free = append(h.free, i)
		}
	}
}

// ErrFreeListCorrupted is returned when Check finds a damaged free-list
// entry. The hypervisor treats it as a fatal error (panic).
var ErrFreeListCorrupted = errors.New("mm: heap free list corrupted")

// Check validates the hot end of the free list — the entries the allocator
// will hand out next. Hypervisor code paths that touch the allocator call
// this; the error becomes a panic (detected failure) in the hypervisor
// model. O(checkWindow), so allocator hot paths stay cheap.
func (h *Heap) Check() error {
	k := len(h.free)
	if k > checkWindow {
		k = checkWindow
	}
	for i := 0; i < k; i++ {
		if !h.entryValid(i) {
			fi := h.free[len(h.free)-1-i]
			return fmt.Errorf("%w: entry %d (frame %d)", ErrFreeListCorrupted, i, fi)
		}
	}
	return nil
}

// CorruptFreeList structurally damages a free-list entry within
// corruptDepth of the LIFO end: out-of-range garbage, a cross-link to an
// allocated frame, or a duplicate of another entry. It returns a short
// description of the damage, or a note when the list is empty.
func (h *Heap) CorruptFreeList(rng *rand.Rand) string {
	if len(h.free) == 0 {
		return "free list empty; nothing to damage"
	}
	span := len(h.free)
	if span > corruptDepth {
		span = corruptDepth
	}
	idx := len(h.free) - 1 - rng.IntN(span)
	switch rng.IntN(3) {
	case 0: // out-of-range garbage pointer
		h.free[idx] = h.ft.Len() + 1 + rng.IntN(1024)
		return fmt.Sprintf("entry %d points out of range (%d)", idx, h.free[idx])
	case 1: // cross-link to a frame that is still allocated
		if pages := h.AllocatedPages(); len(pages) > 0 {
			h.free[idx] = pages[rng.IntN(len(pages))]
			return fmt.Sprintf("entry %d cross-linked to allocated frame %d", idx, h.free[idx])
		}
		h.free[idx] = -1
		return fmt.Sprintf("entry %d points out of range (-1)", idx)
	default: // duplicate another entry
		other := idx - 1
		if other < 0 {
			other = idx + 1
		}
		if other >= len(h.free) {
			h.free[idx] = -1
			return fmt.Sprintf("entry %d points out of range (-1)", idx)
		}
		h.free[idx] = h.free[other]
		return fmt.Sprintf("entry %d duplicates frame %d", idx, h.free[idx])
	}
}

// ValidateFreeList performs the full free-list audit walk: every entry must
// be an in-range free frame, no frame may appear twice, and every free
// frame in the heap's range must be on the list (no leaks). It returns one
// description per violation, empty when the list is intact; a walk that
// finds nothing allocates nothing.
func (h *Heap) ValidateFreeList() []string {
	var out []string
	clear(h.seen)
	h.seenOutside = h.seenOutside[:0]
	for i := len(h.free) - 1; i >= 0; i-- {
		fi := h.free[i]
		if fi < 0 || fi >= h.ft.Len() {
			out = append(out, fmt.Sprintf("entry %d out of range (%d)", i, fi))
			continue
		}
		if h.markSeen(fi) {
			out = append(out, fmt.Sprintf("frame %d on free list twice", fi))
			continue
		}
		if t := h.ft.At(fi).Type; t != FrameFree {
			out = append(out, fmt.Sprintf("frame %d on free list but not free (%v)", fi, t))
		}
	}
	for i := 0; i < h.count; i++ {
		if h.ft.At(h.start+i).Type == FrameFree && h.seen[i>>6]&(1<<(i&63)) == 0 {
			out = append(out, fmt.Sprintf("free frame %d leaked off the list", h.start+i))
		}
	}
	return out
}

// markSeen records that the current ValidateFreeList walk met frame fi and
// reports whether it had met it before.
func (h *Heap) markSeen(fi int) bool {
	if i := fi - h.start; i >= 0 && i < h.count {
		dup := h.seen[i>>6]&(1<<(i&63)) != 0
		h.seen[i>>6] |= 1 << (i & 63)
		return dup
	}
	if slices.Contains(h.seenOutside, fi) {
		return true
	}
	h.seenOutside = append(h.seenOutside, fi)
	return false
}

// CorruptRandomObject flips a canary bit in a random live object (picked in
// ID order for determinism), modeling error propagation into an allocated
// heap object's contents. Returns the victim's tag, or a note when no
// objects are live.
func (h *Heap) CorruptRandomObject(rng *rand.Rand) string {
	var live []*Object
	for id := uint64(0); id < h.nextID; id++ {
		if o, ok := h.objects[id]; ok {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		return "no live objects"
	}
	o := live[rng.IntN(len(live))]
	o.Corrupt(rng)
	return o.Tag
}

// DamagedObjects returns the live objects whose canaries no longer match,
// in ID order.
func (h *Heap) DamagedObjects() []*Object {
	var out []*Object
	for id := uint64(0); id < h.nextID; id++ {
		if o, ok := h.objects[id]; ok && o.Damaged() {
			out = append(out, o)
		}
	}
	return out
}
