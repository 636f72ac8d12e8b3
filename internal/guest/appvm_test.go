package guest

import (
	"testing"
	"time"

	"nilihype/internal/hypercall"
)

// livePageTables returns all pinned frames across live processes: the
// reference list the pin-balance tests check the frame table against.
func (pt *procTable) livePageTables() []int {
	var out []int
	for _, p := range pt.procs {
		out = append(out, p.PageTables...)
	}
	return out
}

func TestNetfrontGrantRecycling(t *testing.T) {
	// Every few packets the receiver remaps an RX buffer grant; the
	// grants must be balanced (map followed by unmap).
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 300 * time.Millisecond})
	vm.Start()
	w.Sender.Start(2, 300*time.Millisecond)
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	d, _ := h.Domain(2)
	if n := len(d.Maptrack.Mappings()); n != 0 {
		t.Fatalf("%d grant mappings leaked by netfront recycling", n)
	}
	if n := len(d.GrantTab.ActiveGrants()); n != 0 {
		t.Fatalf("%d grant entries leaked by netfront recycling", n)
	}
	// Grant traffic actually happened (ops > 32 => at least 4 remaps).
	if vm.OpsCompleted < 200 {
		t.Fatalf("ops = %d", vm.OpsCompleted)
	}
}

func TestBlkBenchDrainsInFlightAtFinish(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: BlkBench, Dom: 1, CPU: 1, Duration: 100 * time.Millisecond})
	vm.Start()
	clk.RunUntil(2 * time.Second)
	if !vm.Finished {
		t.Fatal("BlkBench never finished")
	}
	if failed, _ := h.Failed(); failed {
		t.Fatal("hypervisor failed")
	}
	d, _ := h.Domain(1)
	if got := len(d.Maptrack.Mappings()); got != 0 {
		t.Fatalf("%d grants still mapped after drain", got)
	}
}

func TestIterationsDeferDuringPause(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 500 * time.Millisecond})
	vm.Start()
	clk.RunUntil(100 * time.Millisecond)
	opsBefore := vm.OpsCompleted
	h.Pause()
	clk.RunUntil(200 * time.Millisecond)
	if vm.OpsCompleted != opsBefore {
		t.Fatal("iterations ran while paused")
	}
	h.ResumeRunnable()
	clk.RunUntil(time.Second)
	if vm.OpsCompleted <= opsBefore {
		t.Fatal("iterations did not resume after pause")
	}
	if ok, reason := vm.Verdict(); !ok {
		t.Fatalf("verdict: %s", reason)
	}
}

func TestUnixBenchBalancesReservations(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 400 * time.Millisecond})
	vm.Start()
	clk.RunUntil(time.Second)
	d, _ := h.Domain(1)
	// TotPages drifts by at most one outstanding populate batch.
	base := d.MemCount / 2
	if d.TotPages < base || d.TotPages > base+16 {
		t.Fatalf("TotPages = %d, want near %d", d.TotPages, base)
	}
}

func TestAttachAppVMWithoutDomainFailsVerdict(t *testing.T) {
	w, _, clk := newWorld(t)
	vm := w.AttachAppVM(Config{Kind: BlkBench, Dom: 9, CPU: 3, Duration: 100 * time.Millisecond})
	clk.RunUntil(50 * time.Millisecond)
	if ok, reason := vm.Verdict(); ok || reason != "domain destroyed" {
		t.Fatalf("verdict = %v %q", ok, reason)
	}
}

func TestPinnedTrackingSurvivesRecoveryStyleRetry(t *testing.T) {
	// Pins tracked via the guest's own page tables stay balanced even
	// when a batch is interrupted and retried: no frame is ever pinned
	// twice.
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 500 * time.Millisecond})
	vm.Start()
	clk.RunUntil(time.Second)
	d, _ := h.Domain(1)
	for _, f := range vm.procs.livePageTables() {
		fr := h.Frames.Frame(f)
		if fr.UseCount != 1 || !fr.Validated {
			t.Fatalf("tracked pin frame %d has count=%d validated=%v", f, fr.UseCount, fr.Validated)
		}
		if f < d.MemStart || f >= d.MemStart+d.MemCount {
			t.Fatalf("pinned frame %d outside domain range", f)
		}
	}
	if vm.procs.count() < 1 || vm.procs.count() > 9 {
		t.Fatalf("process count = %d, want bounded working set", vm.procs.count())
	}
}

func TestEventRoutingIgnoresUnknownDomainsAndPorts(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: BlkBench, Dom: 1, CPU: 1, Duration: 100 * time.Millisecond})
	vm.Start()
	// An event for an unknown domain or a non-block port must be benign.
	w.onEvent(42, 2)
	w.onEvent(1, 99)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 1, 7}})
	clk.RunUntil(50 * time.Millisecond)
	if failed, _ := h.Failed(); failed {
		t.Fatal("benign events failed the hypervisor")
	}
}

func TestHVMUnixBenchCleanRun(t *testing.T) {
	// The HVM variant of the UnixBench slice: memory management arrives
	// as EPT-violation exits; grants/evtchn stay PV (PVHVM).
	w, h, clk := newWorld(t)
	vm, err := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, HVM: true,
		Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vm.Start()
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	if ok, reason := vm.Verdict(); !ok {
		t.Fatalf("HVM UnixBench failed: %s (ops=%d)", reason, vm.OpsCompleted)
	}
	if !vm.Started {
		t.Fatal("benchmark never started")
	}
	// EPT pins are balanced like PV pins: every live process's page
	// tables are mapped exactly once.
	d, _ := h.Domain(1)
	for _, f := range vm.procs.livePageTables() {
		fr := h.Frames.Frame(f)
		if fr.UseCount != 1 || !fr.Validated {
			t.Fatalf("EPT-mapped frame %d: count=%d validated=%v", f, fr.UseCount, fr.Validated)
		}
	}
	if vm.procs.count() == 0 {
		t.Fatal("no live processes at benchmark end")
	}
	_ = d
	if held := h.Locks.HeldLocks(); len(held) != 0 {
		t.Fatalf("held locks after HVM run: %v", held)
	}
}

func TestSenderAccessors(t *testing.T) {
	w, _, clk := newWorld(t)
	if w.Sender.period != time.Millisecond {
		t.Fatalf("send period = %v, want 1ms (§VI-A)", w.Sender.period)
	}
	vm, _ := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 100 * time.Millisecond})
	vm.Start()
	w.Sender.Start(2, 100*time.Millisecond)
	clk.RunUntil(500 * time.Millisecond)
	if w.Sender.maxGap <= 0 || w.Sender.maxGap > 5*time.Millisecond {
		t.Fatalf("max inter-reply gap = %v on clean run", w.Sender.maxGap)
	}
}

func TestBlkBenchFinishWaitsForInFlight(t *testing.T) {
	// A very short run ends with I/O still in flight; finish must wait
	// for the drain rather than declare completion with grants mapped.
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: BlkBench, Dom: 1, CPU: 1,
		Duration: 3 * time.Millisecond, IterPeriod: time.Millisecond})
	vm.Start()
	clk.RunUntil(2 * time.Second)
	if !vm.Finished {
		t.Fatal("BlkBench never finished")
	}
	d, _ := h.Domain(1)
	if got := len(d.Maptrack.Mappings()); got != 0 {
		t.Fatalf("%d mappings still active at finish", got)
	}
}
