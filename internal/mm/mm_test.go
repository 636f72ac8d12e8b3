package mm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"nilihype/internal/locking"
)

// CountType returns how many frames have the given type: the full-table
// reference count the dirty-chunk tests compare against.
func (ft *FrameTable) CountType(t FrameType) int {
	n := 0
	for i := range ft.Len() {
		if ft.At(i).Type == t {
			n++
		}
	}
	return n
}

// PinAsPageTable validates the frame as a guest page table: the mmu_update
// pin's two steps (take the reference, then set the validation bit) run
// uninterrupted.
func (f *PageFrame) PinAsPageTable() {
	f.Type = FramePageTable
	f.IncUse()         // step 1: reference taken
	f.Validated = true // step 2: validation completed
}

// UnpinPageTable reverses PinAsPageTable, again as two steps (clear the
// validation bit, then drop the reference).
func (f *PageFrame) UnpinPageTable() error {
	f.Validated = false
	if err := f.DecUse(); err != nil {
		return err
	}
	if f.UseCount == 0 {
		f.Type = FrameGuest
	}
	return nil
}

func TestNewFrameTableAllFree(t *testing.T) {
	ft := NewFrameTable(100)
	if ft.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", ft.Len())
	}
	if got := ft.CountType(FrameFree); got != 100 {
		t.Fatalf("free frames = %d, want 100", got)
	}
	if ft.Frame(0).Owner != NoDomain {
		t.Fatal("new frame has an owner")
	}
}

func TestFrameTypeString(t *testing.T) {
	tests := []struct {
		ft   FrameType
		want string
	}{
		{FrameFree, "free"},
		{FrameHeap, "heap"},
		{FrameGuest, "guest"},
		{FramePageTable, "pagetable"},
		{FrameType(42), "type(42)"},
	}
	for _, tt := range tests {
		if got := tt.ft.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", int(tt.ft), got, tt.want)
		}
	}
}

func TestAssignRange(t *testing.T) {
	ft := NewFrameTable(64)
	if err := ft.AssignRange(16, 8, 3, FrameGuest); err != nil {
		t.Fatal(err)
	}
	for i := 16; i < 24; i++ {
		f := ft.Frame(i)
		if f.Type != FrameGuest || f.Owner != 3 {
			t.Fatalf("frame %d = %+v, want guest owned by dom3", i, *f)
		}
	}
	if err := ft.AssignRange(60, 8, 0, FrameGuest); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
	if err := ft.AssignRange(-1, 2, 0, FrameGuest); err == nil {
		t.Fatal("negative range accepted")
	}
}

func TestUseCountUnderflow(t *testing.T) {
	ft := NewFrameTable(4)
	f := ft.Frame(0)
	f.IncUse()
	if err := f.DecUse(); err != nil {
		t.Fatal(err)
	}
	if err := f.DecUse(); err != ErrUseCountUnderflow {
		t.Fatalf("err = %v, want ErrUseCountUnderflow", err)
	}
}

func TestPinUnpinPageTable(t *testing.T) {
	ft := NewFrameTable(4)
	f := ft.Frame(1)
	f.Type = FrameGuest
	f.Owner = 1
	f.PinAsPageTable()
	if f.Type != FramePageTable || !f.Validated || f.UseCount != 1 {
		t.Fatalf("after pin: %+v", *f)
	}
	if !f.consistent() {
		t.Fatal("pinned frame inconsistent")
	}
	if err := f.UnpinPageTable(); err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameGuest || f.Validated || f.UseCount != 0 {
		t.Fatalf("after unpin: %+v", *f)
	}
}

func TestScanAndRepairFixesBothDirections(t *testing.T) {
	ft := NewFrameTable(10)
	// Counted but not validated (fault between IncUse and Validated).
	a := ft.Frame(2)
	a.Type = FramePageTable
	a.UseCount = 1
	a.Validated = false
	// Validated but not counted (fault during unpin).
	b := ft.Frame(7)
	b.Type = FramePageTable
	b.UseCount = 0
	b.Validated = true

	if got := ft.InconsistentFrames(); len(got) != 2 {
		t.Fatalf("InconsistentFrames = %v, want 2 entries", got)
	}
	if repaired := ft.ScanAndRepair(); repaired != 2 {
		t.Fatalf("repaired = %d, want 2", repaired)
	}
	if !a.Validated {
		t.Fatal("counted frame not re-validated")
	}
	if b.Validated {
		t.Fatal("uncounted frame still validated")
	}
	if len(ft.InconsistentFrames()) != 0 {
		t.Fatal("inconsistencies remain after scan")
	}
	if ft.ScanAndRepair() != 0 {
		t.Fatal("second scan repaired something")
	}
}

func TestCorruptRandomDescriptorCreatesInconsistency(t *testing.T) {
	ft := NewFrameTable(50)
	rng := rand.New(rand.NewPCG(1, 2))
	i := ft.CorruptRandomDescriptor(rng)
	if ft.Frame(i).consistent() {
		t.Fatal("corrupted descriptor is consistent")
	}
	if len(ft.InconsistentFrames()) != 1 {
		t.Fatal("expected exactly one inconsistency")
	}
}

func newTestHeap(t *testing.T, frames, start, count int) (*Heap, *FrameTable, *locking.Registry) {
	if t != nil {
		t.Helper()
	}
	ft := NewFrameTable(frames)
	reg := locking.NewRegistry()
	return NewHeap(ft, reg, start, count), ft, reg
}

func TestHeapAllocFree(t *testing.T) {
	h, ft, _ := newTestHeap(t, 64, 0, 32)
	if len(h.free) != 32 {
		t.Fatalf("free pages = %d, want 32", len(h.free))
	}
	o := h.Alloc(4, "domain")
	if o == nil {
		t.Fatal("Alloc failed")
	}
	if len(o.Pages) != 4 || len(h.free) != 28 {
		t.Fatalf("pages=%d free=%d", len(o.Pages), len(h.free))
	}
	for _, fi := range o.Pages {
		if ft.Frame(fi).Type != FrameHeap {
			t.Fatalf("frame %d type = %v, want heap", fi, ft.Frame(fi).Type)
		}
	}
	if len(h.objects) != 1 {
		t.Fatalf("live objects = %d, want 1", len(h.objects))
	}
	h.Free(o)
	if len(h.free) != 32 || len(h.objects) != 0 {
		t.Fatalf("after free: free=%d objects=%d", len(h.free), len(h.objects))
	}
}

func TestHeapExhaustion(t *testing.T) {
	h, _, _ := newTestHeap(t, 16, 0, 8)
	if o := h.Alloc(9, "big"); o != nil {
		t.Fatal("over-allocation succeeded")
	}
	if o := h.Alloc(8, "exact"); o == nil {
		t.Fatal("exact-fit allocation failed")
	}
	if o := h.Alloc(1, "more"); o != nil {
		t.Fatal("allocation from empty heap succeeded")
	}
}

func TestHeapDoubleFreePanics(t *testing.T) {
	h, _, _ := newTestHeap(t, 16, 0, 8)
	o := h.Alloc(2, "x")
	h.Free(o)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	h.Free(o)
}

func TestHeapLocksRegisteredAndDropped(t *testing.T) {
	h, _, reg := newTestHeap(t, 16, 0, 8)
	o := h.Alloc(2, "domain0")
	l := h.AddLock(o, "page_alloc_lock")
	if l.Kind() != locking.Heap {
		t.Fatalf("lock kind = %v, want heap", l.Kind())
	}
	if _, heapN := reg.Counts(); heapN != 1 {
		t.Fatalf("registry heap count = %d, want 1", heapN)
	}
	if got := o.locks; len(got) != 1 || got[0] != l {
		t.Fatalf("object locks = %v", got)
	}
	h.Free(o)
	if _, heapN := reg.Counts(); heapN != 0 {
		t.Fatal("lock not dropped on free")
	}
}

func TestHeapCorruptionBlocksAllocUntilRebuild(t *testing.T) {
	h, _, _ := newTestHeap(t, 16, 0, 8)
	keep := h.Alloc(2, "keep")
	rng := rand.New(rand.NewPCG(9, 9))
	desc := h.CorruptFreeList(rng)
	if err := h.Check(); err == nil {
		t.Fatalf("Check missed free-list damage (%s)", desc)
	}
	if probs := h.ValidateFreeList(); len(probs) == 0 {
		t.Fatalf("ValidateFreeList missed damage (%s)", desc)
	}
	// A request whose peek window covers the damaged entry must refuse.
	if o := h.Alloc(6, "x"); o != nil {
		t.Fatal("allocation through damaged free list succeeded")
	}
	h.Rebuild()
	if err := h.Check(); err != nil {
		t.Fatalf("Check after rebuild: %v", err)
	}
	if probs := h.ValidateFreeList(); len(probs) != 0 {
		t.Fatalf("rebuild left free-list damage: %v", probs)
	}
	if len(h.objects) != 1 {
		t.Fatal("rebuild lost live objects")
	}
	if o := h.Alloc(1, "x"); o == nil {
		t.Fatal("allocation after rebuild failed")
	}
	// keep's pages must not have been reclaimed.
	for _, fi := range keep.Pages {
		for _, ki := range h.free {
			if fi == ki {
				t.Fatal("rebuild put a live page on the free list")
			}
		}
	}
}

func TestObjectCanaryDamageAndRepair(t *testing.T) {
	h, _, _ := newTestHeap(t, 16, 0, 8)
	o := h.Alloc(1, "victim")
	if o.Damaged() {
		t.Fatal("fresh object reports damage")
	}
	rng := rand.New(rand.NewPCG(4, 4))
	o.Corrupt(rng)
	if !o.Damaged() {
		t.Fatal("corrupted object reports intact canary")
	}
	if got := h.DamagedObjects(); len(got) != 1 || got[0] != o {
		t.Fatalf("DamagedObjects = %v", got)
	}
	o.Repair()
	if o.Damaged() || len(h.DamagedObjects()) != 0 {
		t.Fatal("repair did not restore the canary")
	}
}

func TestCorruptRandomObjectPicksLiveObject(t *testing.T) {
	h, _, _ := newTestHeap(t, 16, 0, 8)
	rng := rand.New(rand.NewPCG(6, 6))
	if desc := h.CorruptRandomObject(rng); desc != "no live objects" {
		t.Fatalf("empty heap CorruptRandomObject = %q", desc)
	}
	h.Alloc(1, "a")
	h.Alloc(1, "b")
	if desc := h.CorruptRandomObject(rng); desc == "no live objects" {
		t.Fatal("CorruptRandomObject found no live objects")
	}
	if len(h.DamagedObjects()) != 1 {
		t.Fatalf("DamagedObjects = %d, want 1", len(h.DamagedObjects()))
	}
}

func TestAllocatedPagesDeterministicOrder(t *testing.T) {
	h, _, _ := newTestHeap(t, 32, 0, 16)
	a := h.Alloc(2, "a")
	b := h.Alloc(3, "b")
	got := h.AllocatedPages()
	want := append(append([]int{}, a.Pages...), b.Pages...)
	if len(got) != len(want) {
		t.Fatalf("AllocatedPages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllocatedPages = %v, want %v", got, want)
		}
	}
}

// TestPropertyScanIsIdempotentAndComplete: after arbitrary descriptor
// mutations, one ScanAndRepair pass leaves zero inconsistencies and a
// second pass repairs nothing.
func TestPropertyScanIsIdempotentAndComplete(t *testing.T) {
	f := func(seed uint64, nCorrupt uint8) bool {
		ft := NewFrameTable(256)
		rng := rand.New(rand.NewPCG(seed, 0))
		for i := 0; i < int(nCorrupt%32); i++ {
			ft.CorruptRandomDescriptor(rng)
		}
		ft.ScanAndRepair()
		return len(ft.InconsistentFrames()) == 0 && ft.ScanAndRepair() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHeapConservation: alloc/free sequences conserve pages.
func TestPropertyHeapConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		h, _, _ := newTestHeap(nil, 128, 0, 64)
		var live []*Object
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				if o := h.Alloc(int(op%7)+1, "p"); o != nil {
					live = append(live, o)
				}
			} else {
				h.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		used := 0
		for _, o := range live {
			used += len(o.Pages)
		}
		return used+len(h.free) == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
