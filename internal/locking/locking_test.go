package locking

import (
	"testing"
	"testing/quick"
)

func TestTryAcquireRelease(t *testing.T) {
	r := NewRegistry()
	l := r.NewStatic("timer_lock")
	if l.held {
		t.Fatal("new lock is held")
	}
	if l.Owner() != NoOwner {
		t.Fatal("new lock has an owner")
	}
	if !l.TryAcquire(2) {
		t.Fatal("TryAcquire on free lock failed")
	}
	if !l.held || l.Owner() != 2 {
		t.Fatalf("held=%v owner=%d, want held by cpu2", l.held, l.Owner())
	}
	if l.TryAcquire(3) {
		t.Fatal("TryAcquire on held lock succeeded")
	}
	l.Release(2)
	if l.held || l.Owner() != NoOwner {
		t.Fatal("lock still held after release")
	}
	if l.Acquisitions != 1 {
		t.Fatalf("Acquisitions = %d, want 1", l.Acquisitions)
	}
}

func TestReleaseFreeLockPanics(t *testing.T) {
	r := NewRegistry()
	l := r.NewHeap("pgd_lock")
	defer func() {
		if recover() == nil {
			t.Fatal("release of free lock did not panic")
		}
	}()
	l.Release(0)
}

func TestReleaseByWrongOwnerPanics(t *testing.T) {
	r := NewRegistry()
	l := r.NewHeap("pgd_lock")
	l.TryAcquire(1)
	defer func() {
		if recover() == nil {
			t.Fatal("release by non-owner did not panic")
		}
	}()
	l.Release(2)
}

func TestForceReleaseIgnoresOwner(t *testing.T) {
	r := NewRegistry()
	l := r.NewHeap("domain_lock")
	l.TryAcquire(5)
	l.ForceRelease()
	if l.held {
		t.Fatal("still held after ForceRelease")
	}
	l.ForceRelease() // idempotent
}

func TestStaticSegmentOrder(t *testing.T) {
	r := NewRegistry()
	names := []string{"console_lock", "timer_lock", "domlist_lock"}
	for _, n := range names {
		r.NewStatic(n)
	}
	seg := r.static
	if len(seg) != 3 {
		t.Fatalf("segment size = %d, want 3", len(seg))
	}
	for i, l := range seg {
		if l.Name() != names[i] {
			t.Fatalf("segment[%d] = %q, want %q (declaration order)", i, l.Name(), names[i])
		}
		if l.Kind() != Static {
			t.Fatalf("segment[%d] kind = %v, want static", i, l.Kind())
		}
	}
}

func TestUnlockStaticSegmentReleasesOnlyStatic(t *testing.T) {
	r := NewRegistry()
	s1 := r.NewStatic("a")
	s2 := r.NewStatic("b")
	h := r.NewHeap("c")
	s1.TryAcquire(0)
	h.TryAcquire(1)
	if n := r.UnlockStaticSegment(); n != 1 {
		t.Fatalf("released %d static locks, want 1", n)
	}
	if s1.held || s2.held {
		t.Fatal("static lock still held")
	}
	if !h.held {
		t.Fatal("heap lock was released by static unlock")
	}
}

func TestUnlockHeapLocksReleasesOnlyHeap(t *testing.T) {
	r := NewRegistry()
	s := r.NewStatic("a")
	h1 := r.NewHeap("b")
	h2 := r.NewHeap("c")
	s.TryAcquire(0)
	h1.TryAcquire(1)
	h2.TryAcquire(2)
	if n := r.UnlockHeapLocks(); n != 2 {
		t.Fatalf("released %d heap locks, want 2", n)
	}
	if h1.held || h2.held {
		t.Fatal("heap lock still held")
	}
	if !s.held {
		t.Fatal("static lock was released by heap unlock")
	}
}

func TestHeldLocksFiltersByKind(t *testing.T) {
	r := NewRegistry()
	s := r.NewStatic("s")
	h := r.NewHeap("h")
	s.TryAcquire(0)
	h.TryAcquire(0)
	if got := r.HeldLocks(Static); len(got) != 1 || got[0] != s {
		t.Fatalf("HeldLocks(Static) = %v", got)
	}
	if got := r.HeldLocks(Heap); len(got) != 1 || got[0] != h {
		t.Fatalf("HeldLocks(Heap) = %v", got)
	}
	if got := r.HeldLocks(); len(got) != 2 {
		t.Fatalf("HeldLocks() = %d locks, want 2", len(got))
	}
}

func TestDropHeap(t *testing.T) {
	r := NewRegistry()
	h1 := r.NewHeap("a")
	h2 := r.NewHeap("b")
	r.DropHeap(h1)
	if _, heapN := r.Counts(); heapN != 1 {
		t.Fatalf("heap count = %d, want 1", heapN)
	}
	if locks := r.heap; len(locks) != 1 || locks[0] != h2 {
		t.Fatalf("heap locks = %v", locks)
	}
	r.DropHeap(h1) // dropping again is a no-op
}

func TestCounts(t *testing.T) {
	r := NewRegistry()
	r.NewStatic("a")
	r.NewStatic("b")
	r.NewHeap("c")
	s, h := r.Counts()
	if s != 2 || h != 1 {
		t.Fatalf("Counts() = (%d, %d), want (2, 1)", s, h)
	}
}

func TestKindString(t *testing.T) {
	if Static.String() != "static" || Heap.String() != "heap" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind formatting wrong")
	}
}

// TestPropertyUnlockAllLeavesNothingHeld: after acquiring an arbitrary
// subset of an arbitrary lock population, running both recovery unlock
// mechanisms leaves no lock held.
func TestPropertyUnlockAllLeavesNothingHeld(t *testing.T) {
	f := func(staticN, heapN uint8, mask uint32) bool {
		r := NewRegistry()
		var all []*Lock
		for i := 0; i < int(staticN%16); i++ {
			all = append(all, r.NewStatic("s"))
		}
		for i := 0; i < int(heapN%16); i++ {
			all = append(all, r.NewHeap("h"))
		}
		for i, l := range all {
			if mask&(1<<uint(i)) != 0 {
				l.TryAcquire(i % 8)
			}
		}
		r.UnlockStaticSegment()
		r.UnlockHeapLocks()
		return len(r.HeldLocks()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAcquireReleaseRoundTrip: any sequence of valid
// acquire/release pairs leaves the lock free with matching acquisition
// count.
func TestPropertyAcquireReleaseRoundTrip(t *testing.T) {
	f := func(cpus []uint8) bool {
		r := NewRegistry()
		l := r.NewHeap("rt")
		for _, c := range cpus {
			cpu := int(c % 8)
			if !l.TryAcquire(cpu) {
				return false
			}
			l.Release(cpu)
		}
		return !l.held && l.Acquisitions == uint64(len(cpus))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
