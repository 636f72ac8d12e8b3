package guest

import (
	"strings"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/simclock"
)

func newWorld(t testing.TB) (*World, *hv.Hypervisor, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 4, MemoryMB: 1024, BlockSvc: 200 * time.Microsecond, NICLat: 30 * time.Microsecond},
		HeapFrames:     8192,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	return NewWorld(h, 11), h, clk
}

func TestKindString(t *testing.T) {
	if BlkBench.String() != "BlkBench" || UnixBench.String() != "UnixBench" ||
		NetBench.String() != "NetBench" || Kind(8).String() != "kind(8)" {
		t.Fatal("kind names wrong")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := BlkBench; k <= NetBench; k++ {
		for _, s := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseKind(s); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
	}
	for _, s := range []string{"", "webbench", "kind(1)"} {
		if got, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", s, got)
		}
	}
}

func TestBlkBenchCompletesCleanRun(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, err := w.AddAppVM(Config{Kind: BlkBench, Dom: 1, CPU: 1, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.StartPrivVM()
	vm.Start()
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	ok, reason := vm.Verdict()
	if !ok {
		t.Fatalf("BlkBench failed: %s (ops=%d)", reason, vm.OpsCompleted)
	}
	if vm.OpsCompleted < 50 {
		t.Fatalf("only %d ops in 300ms", vm.OpsCompleted)
	}
	if h.Machine.Block().Completed == 0 {
		t.Fatal("block device never used")
	}
	// Grants must be balanced: every completed op unmapped its grant.
	d, _ := h.Domain(1)
	if n := len(d.Maptrack.Mappings()); n > 2 {
		t.Fatalf("%d grant mappings leaked", n)
	}
}

func TestUnixBenchCompletesCleanRun(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, err := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vm.Start()
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	if ok, reason := vm.Verdict(); !ok {
		t.Fatalf("UnixBench failed: %s (ops=%d)", reason, vm.OpsCompleted)
	}
	if h.Stats.Hypercalls < 500 {
		t.Fatalf("only %d hypercalls", h.Stats.Hypercalls)
	}
	// No leaked locks or irq counts in steady state.
	if held := h.Locks.HeldLocks(); len(held) != 0 {
		t.Fatalf("held locks in steady state: %v", held)
	}
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		if h.PerCPU(cpu).LocalIRQCount != 0 {
			t.Fatalf("cpu%d irq count %d", cpu, h.PerCPU(cpu).LocalIRQCount)
		}
	}
}

func TestNetBenchReceiverRepliesToSender(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, err := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vm.Start()
	w.Sender.Start(2, 200*time.Millisecond)
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	if w.Sender.Sent < 190 {
		t.Fatalf("sender sent only %d", w.Sender.Sent)
	}
	lossRate := 1 - float64(w.Sender.Received)/float64(w.Sender.Sent)
	if lossRate > 0.05 {
		t.Fatalf("loss rate %.2f", lossRate)
	}
	if ok, reason := vm.Verdict(); !ok {
		t.Fatalf("NetBench failed: %s", reason)
	}
	if w.Sender.FailedIntervals() != 0 {
		t.Fatalf("failed intervals on clean run: %d", w.Sender.FailedIntervals())
	}
	if w.Sender.ServiceInterruption() > 2*time.Millisecond {
		t.Fatalf("interruption %v on clean run", w.Sender.ServiceInterruption())
	}
}

func TestNetSenderGapMeasurement(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 400 * time.Millisecond})
	vm.Start()
	w.Sender.Start(2, 400*time.Millisecond)
	// Pause the hypervisor for 50ms mid-run (simulated recovery).
	clk.After(100*time.Millisecond, "pause", func() {
		h.Pause()
		start := clk.Now()
		clk.After(50*time.Millisecond, "resume", func() {
			h.ResumeRunnable()
			w.Sender.ExcludeWindow(start, clk.Now())
		})
	})
	clk.RunUntil(time.Second)
	gap := w.Sender.ServiceInterruption()
	if gap < 40*time.Millisecond || gap > 70*time.Millisecond {
		t.Fatalf("measured interruption %v, want ≈50ms", gap)
	}
	if w.Sender.FailedIntervals() != 0 {
		t.Fatalf("excluded window still failed %d intervals", w.Sender.FailedIntervals())
	}
}

func TestNetSenderFailedIntervalsWithoutExclusion(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 2500 * time.Millisecond})
	vm.Start()
	w.Sender.Start(2, 2500*time.Millisecond)
	// A long unannounced outage (e.g. a starved receiver) must fail the
	// 10%-drop criterion.
	clk.After(1100*time.Millisecond, "pause", func() {
		h.Pause()
		clk.After(400*time.Millisecond, "resume", func() { h.ResumeRunnable() })
	})
	clk.RunUntil(3 * time.Second)
	if w.Sender.FailedIntervals() == 0 {
		t.Fatal("400ms unannounced outage passed the 10% criterion")
	}
}

func TestSDCMarkFailsVerdict(t *testing.T) {
	w, _, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 100 * time.Millisecond})
	vm.Start()
	w.CorruptGuestData(1)
	clk.RunUntil(500 * time.Millisecond)
	ok, reason := vm.Verdict()
	if ok || reason != "output differs from golden copy" {
		t.Fatalf("verdict = %v %q", ok, reason)
	}
}

func TestVerdictFailsWhenDomainFailed(t *testing.T) {
	w, h, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 100 * time.Millisecond})
	vm.Start()
	clk.RunUntil(50 * time.Millisecond)
	d, _ := h.Domain(1)
	d.Fail("test kill")
	clk.RunUntil(500 * time.Millisecond)
	if ok, reason := vm.Verdict(); ok || reason == "" {
		t.Fatal("verdict passed for failed domain")
	}
}

func TestVerdictFailsOnStarvation(t *testing.T) {
	w, _, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 100 * time.Millisecond})
	// Never started: no progress.
	_ = vm
	clk.RunUntil(200 * time.Millisecond)
	if ok, _ := vm.Verdict(); ok {
		t.Fatal("verdict passed with zero progress")
	}
}

func TestPrivVMBackgroundActivity(t *testing.T) {
	w, h, clk := newWorld(t)
	w.StartPrivVM()
	clk.RunUntil(500 * time.Millisecond)
	if h.Stats.Hypercalls < 50 {
		t.Fatalf("PrivVM issued only %d hypercalls", h.Stats.Hypercalls)
	}
	if w.PrivVMFailed() {
		t.Fatal("PrivVM failed on clean run")
	}
}

func TestPrivCreateDomainPostRecoveryCheck(t *testing.T) {
	w, h, clk := newWorld(t)
	clk.RunUntil(50 * time.Millisecond)
	ok := w.PrivCreateDomain(hypercall.CreateSpec{ID: 3, Name: "BlkBench", MemPages: 4096, PinCPU: 3})
	if !ok {
		t.Fatal("domctl create failed")
	}
	vm := w.AttachAppVM(Config{Kind: BlkBench, Dom: 3, CPU: 3, Duration: 200 * time.Millisecond})
	vm.Start()
	clk.RunUntil(time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	if ok, reason := vm.Verdict(); !ok {
		t.Fatalf("post-create BlkBench failed: %s", reason)
	}
}

func TestThreeAppVMSetupRunsClean(t *testing.T) {
	// The 3AppVM configuration of §VI-A: UnixBench + NetBench running,
	// PrivVM management in the background.
	w, h, clk := newWorld(t)
	w.StartPrivVM()
	u, err := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.StartAll()
	w.Sender.Start(2, 450*time.Millisecond)
	clk.RunUntil(2 * time.Second)
	if failed, reason := h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	for _, vm := range []*AppVM{u, n} {
		if ok, reason := vm.Verdict(); !ok {
			t.Fatalf("%v failed: %s (ops=%d)", vm.Cfg.Kind, reason, vm.OpsCompleted)
		}
	}
	if got := len(w.Apps()); got != 2 {
		t.Fatalf("Apps() = %d", got)
	}
	if w.App(1) != u || w.App(99) != nil {
		t.Fatal("App lookup wrong")
	}
}

func TestProgressMark(t *testing.T) {
	w, _, clk := newWorld(t)
	vm, _ := w.AddAppVM(Config{Kind: UnixBench, Dom: 1, CPU: 1, Duration: 200 * time.Millisecond})
	vm.Start()
	clk.RunUntil(100 * time.Millisecond)
	vm.OpsAfterMark = 0
	if vm.OpsAfterMark != 0 {
		t.Fatal("mark not reset")
	}
	clk.RunUntil(300 * time.Millisecond)
	if vm.OpsAfterMark == 0 {
		t.Fatal("no progress after mark")
	}
}
