package guest

import (
	"slices"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
)

// TestStuckCPURefusalRecyclesRecords: a guest keeps iterating on a CPU
// that is wedged or spinning until the watchdog fires, and every call it
// issues there is refused. Refused records go straight back to the free
// list, so those iterations allocate nothing and the list neither grows
// nor drains.
func TestStuckCPURefusalRecyclesRecords(t *testing.T) {
	for _, tt := range []struct {
		name  string
		stick func(h *hv.Hypervisor, pc *hv.PerCPU)
	}{
		{"wedged", func(_ *hv.Hypervisor, pc *hv.PerCPU) { pc.Wedged = true }},
		{"spinning", func(h *hv.Hypervisor, pc *hv.PerCPU) { pc.Spinning = h.Statics.Console }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			w, h, clk := newWorld(t)
			vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: time.Second})
			vm.Start()
			clk.RunUntil(50 * time.Millisecond)
			pc := h.PerCPU(1)
			tt.stick(h, pc)
			if !pc.Stuck() {
				t.Fatal("CPU not stuck")
			}
			// One iteration first, so the process table and scratch
			// reach the size the stuck loop keeps them at.
			vm.unixIteration()
			calls, batches := len(w.callFree), len(w.batchFree)
			hypercalls := h.Stats.Hypercalls
			if allocs := testing.AllocsPerRun(40, vm.unixIteration); allocs != 0 {
				t.Fatalf("an iteration on a stuck CPU allocates %.1f objects, want 0", allocs)
			}
			if len(w.callFree) != calls || len(w.batchFree) != batches {
				t.Fatalf("free lists went %d/%d -> %d/%d records over the stuck iterations",
					calls, batches, len(w.callFree), len(w.batchFree))
			}
			if h.Stats.Hypercalls != hypercalls {
				t.Fatalf("stuck CPU accepted %d dispatches", h.Stats.Hypercalls-hypercalls)
			}
		})
	}
}

// TestInFlightCallNeverRecycledWhilePending is the oracle for the Done
// gate: a call in flight when the hypervisor panics is accepted but not
// Done, so the discard turns it into a PendingCall that recovery still
// references. It must not reach the free list while pending, and the
// workload must not hand it out again before its retry completes it.
func TestInFlightCallNeverRecycledWhilePending(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: time.Second})
	vm.Start()
	clk.RunUntil(50 * time.Millisecond)

	var pending []*hv.PendingCall
	h.SetPanicHook(func(int, hv.Cause, string) {
		h.Pause()
		pending = h.DiscardAllThreads()
	})
	if len(w.callFree) == 0 {
		t.Fatal("free list empty after warm-up")
	}
	c := w.callFree[len(w.callFree)-1] // the record the next call draws
	h.ArmInjection(0, func(hv.InjectionPoint) (hv.InjectAction, string) {
		return hv.ActionPanic, "failstop"
	})
	w.call(1, hypercall.OpSyscallForward, 1, [4]uint64{})

	if len(pending) != 1 || pending[0].Call != c {
		t.Fatalf("pending = %+v, want the in-flight record %p", pending, c)
	}
	if c.Done {
		t.Fatal("interrupted call marked Done")
	}
	inFree := func() bool {
		return slices.Contains(w.callFree, c) || slices.Contains(w.batchFree, c)
	}
	if inFree() {
		t.Fatal("pending call recycled onto the free list")
	}
	// The pause defers the workload; time passes with the call pending.
	clk.RunUntil(60 * time.Millisecond)
	if inFree() {
		t.Fatal("pending call recycled while the system was paused")
	}

	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		h.ClearIRQCountOn(cpu)
	}
	h.ReenableCPUs()
	h.RetryPendingCalls(pending)
	h.ResumeRunnable()
	if !c.Done {
		t.Fatal("retry did not complete the pending call")
	}
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	clk.RunUntil(100 * time.Millisecond)
	if inFree() {
		t.Fatal("a record recovery retried was recycled by the guest")
	}
}
