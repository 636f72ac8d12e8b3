package hv

import (
	"testing"

	"nilihype/internal/dom"
	"nilihype/internal/telemetry"
)

// TestRestartPrivVMRebuildsDom0AndReattachesRings: the restart tears the
// old Dom0 down, boots a fresh one from the boot image, and re-binds every
// surviving AppVM's I/O ring to the new backend table.
func TestRestartPrivVMRebuildsDom0AndReattachesRings(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	addAppVM(t, h, 2, 2)
	oldD0, err := h.Domain(dom.PrivVMID)
	if err != nil {
		t.Fatal(err)
	}
	oldStart := oldD0.MemStart
	livePages := len(h.Heap.AllocatedPages())
	oldD0.Failed = true

	n, err := h.RestartPrivVM()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reattached %d rings, want 2", n)
	}
	newD0, err := h.Domain(dom.PrivVMID)
	if err != nil {
		t.Fatalf("no Dom0 after restart: %v", err)
	}
	if newD0 == oldD0 || newD0.Failed {
		t.Fatal("restart did not produce a fresh, healthy Dom0")
	}
	// The dead Dom0's guest-frame range is reused — the bump allocator
	// never reclaims, so a fresh carve per restart would leak 64 MB of
	// frames (and strand stale descriptors for the audit to trip over).
	if newD0.MemStart != oldStart {
		t.Fatalf("Dom0 range not reused: old start %d, new start %d", oldStart, newD0.MemStart)
	}
	// Old domain struct freed, new one allocated: net-zero live heap pages.
	if got := len(h.Heap.AllocatedPages()); got != livePages {
		t.Fatalf("live heap pages %d, want %d (old Dom0 struct leaked?)", got, livePages)
	}
	// Every surviving AppVM holds a live frontend port into the new
	// backend table.
	for _, id := range []int{1, 2} {
		d, err := h.Domain(id)
		if err != nil {
			t.Fatal(err)
		}
		if d.RingPort <= 0 {
			t.Fatalf("domain %d has no ring port", id)
		}
	}
	if err := h.Domains.CheckLinks(); err != nil {
		t.Fatalf("domain list broken after restart: %v", err)
	}
	if h.Tel.Counters[telemetry.CtrPrivVMRestarts] != 1 {
		t.Fatalf("restart counter = %d", h.Tel.Counters[telemetry.CtrPrivVMRestarts])
	}
}

// TestRestartPrivVMSkipsFailedAppVMs: an AppVM already marked Failed gets
// no ring — it is dead, not surviving.
func TestRestartPrivVMSkipsFailedAppVMs(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	addAppVM(t, h, 2, 2)
	d2, err := h.Domain(2)
	if err != nil {
		t.Fatal(err)
	}
	d2.Failed = true
	n, err := h.RestartPrivVM()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reattached %d rings, want 1 (failed AppVM skipped)", n)
	}
}

// TestRestartPrivVMTwiceStaysBounded: repeated restarts keep reusing the
// same frame range instead of marching the bump allocator toward
// exhaustion.
func TestRestartPrivVMTwiceStaysBounded(t *testing.T) {
	h, _ := newBooted(t)
	d0, _ := h.Domain(dom.PrivVMID)
	start := d0.MemStart
	for i := 0; i < 3; i++ {
		if _, err := h.RestartPrivVM(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		d0, err := h.Domain(dom.PrivVMID)
		if err != nil {
			t.Fatal(err)
		}
		if d0.MemStart != start {
			t.Fatalf("restart %d moved Dom0 to frame %d (boot range %d)", i, d0.MemStart, start)
		}
	}
	if h.Tel.Counters[telemetry.CtrPrivVMRestarts] != 3 {
		t.Fatalf("counter = %d", h.Tel.Counters[telemetry.CtrPrivVMRestarts])
	}
}
