package core

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"nilihype/internal/detect"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/simclock"
)

// testRNG drives the structural-corruption helpers in tests; the seed is
// fixed so failures reproduce.
func testRNG() *rand.Rand { return rand.New(rand.NewPCG(7, 7)) }

// rig is a minimal full stack: hypervisor + detector + engine + one AppVM
// domain issuing no workload (tests drive hypercalls directly).
type rig struct {
	h      *hv.Hypervisor
	clk    *simclock.Clock
	det    *detect.Detector
	engine *Engine
}

func newRig(t *testing.T, cfg Config, memoryMB int) *rig {
	t.Helper()
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 8, MemoryMB: memoryMB, BlockSvc: 200 * time.Microsecond, NICLat: 30 * time.Microsecond},
		HeapFrames:     4096,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateDomain(1, "app", 4096, 1, false); err != nil {
		t.Fatal(err)
	}
	r := &rig{h: h, clk: clk, engine: NewEngine(h, cfg)}
	// Detections reach whichever engine the rig holds, so a test can swap
	// in the next run's engine the way a boot image does.
	r.det = detect.New(h, func(e detect.Event) { r.engine.OnDetection(e) })
	r.engine.Det = r.det
	r.det.Start()
	return r
}

// injectPanic arms a failstop injection that fires inside the next
// mmu_update pin dispatched on CPU 1.
func (r *rig) injectPanicAtBudget(t *testing.T, budget int64) {
	t.Helper()
	r.h.ArmInjection(budget, func(hv.InjectionPoint) (hv.InjectAction, string) {
		return hv.ActionPanic, "failstop"
	})
	d, err := r.h.Domain(1)
	if err != nil {
		t.Fatal(err)
	}
	r.h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
}

func TestMechanismAndStatusStrings(t *testing.T) {
	if Microreset.String() != "NiLiHype" || Microreboot.String() != "ReHype" {
		t.Fatal("mechanism names wrong")
	}
	if Mechanism(9).String() != "mechanism(9)" {
		t.Fatal("unknown mechanism formatting")
	}
	for _, tt := range []struct {
		s    Status
		want string
	}{{StatusIdle, "idle"}, {StatusRecovered, "recovered"}, {StatusFailed, "failed"}, {Status(9), "status(9)"}} {
		if tt.s.String() != tt.want {
			t.Fatalf("%v != %v", tt.s, tt.want)
		}
	}
}

// TestParseMechanismAndConfigRoundTrip: parse and print read one table,
// so every mechanism parses back from its String(), every ladder preset
// from its Name, and every spelling a command line ever accepted (the
// technique names, "checkpoint", postmortem's "full") still resolves.
func TestParseMechanismAndConfigRoundTrip(t *testing.T) {
	for m := Microreset; m <= PrivVMRestart; m++ {
		if got, err := ParseMechanism(m.String()); err != nil || got != m {
			t.Errorf("ParseMechanism(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
		want := Config{Mechanism: m, Enhancements: AllEnhancements}
		if got, err := ParseConfig(m.String()); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseConfig(%q) = %+v, %v; want the one-shot config", m.String(), got, err)
		}
	}
	for s, want := range map[string]Mechanism{
		"nilihype": Microreset, "MICRORESET": Microreset, "rehype": Microreboot, "microreboot": Microreboot,
		"checkpoint": CheckpointRestore, "rehype-cp": CheckpointRestore, "privvm-restart": PrivVMRestart,
	} {
		if got, err := ParseMechanism(s); err != nil || got != want {
			t.Errorf("ParseMechanism(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, p := range LadderPresets {
		for _, s := range []string{p.Name, p.Alias, strings.ToUpper(p.Name)} {
			if got, err := ParseConfig(s); err != nil || !reflect.DeepEqual(got, p.Config()) {
				t.Errorf("ParseConfig(%q) = %+v, %v; want preset %s", s, got, err, p.Name)
			}
		}
	}
	if got, _ := ParseConfig("full"); got.MaxAttempts() != 3 {
		t.Errorf("ParseConfig(full) has %d attempts, want the three-rung ladder", got.MaxAttempts())
	}
	for _, s := range []string{"", "bogus", "both", "mechanism(1)"} {
		if _, err := ParseConfig(s); err == nil {
			t.Errorf("ParseConfig(%q) accepted junk", s)
		}
	}
	if _, err := ParseMechanism("hybrid"); err == nil {
		t.Error("ParseMechanism accepted a ladder preset; only ParseConfig may")
	}
}

func TestLadderIsCumulative(t *testing.T) {
	rungs := Ladder()
	if len(rungs) != 7 {
		t.Fatalf("ladder has %d rungs, want 7 (Table I)", len(rungs))
	}
	if rungs[0].Enh != 0 {
		t.Fatal("first rung must be Basic")
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].Enh&rungs[i-1].Enh != rungs[i-1].Enh {
			t.Fatalf("rung %d does not include rung %d", i, i-1)
		}
	}
	if rungs[len(rungs)-1].Enh != AllEnhancements {
		t.Fatal("final rung must be AllEnhancements")
	}
}

func TestMicroresetRecoversFromFailstop(t *testing.T) {
	r := newRig(t, DefaultConfig(), 512)
	r.clk.RunUntil(100 * time.Millisecond)
	recovered := false
	r.engine.OnRecovered = func() { recovered = true }
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(500 * time.Millisecond)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if !recovered || !r.engine.Recovered() {
		t.Fatal("OnRecovered not invoked")
	}
	if failed, reason := r.h.Failed(); failed {
		t.Fatalf("hypervisor failed: %s", reason)
	}
	// System keeps running: timer IRQs continue on all CPUs.
	before := r.h.Stats.TimerIRQs
	r.clk.RunUntil(time.Second)
	if r.h.Stats.TimerIRQs <= before {
		t.Fatal("no timer activity after recovery")
	}
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v", r.engine.Status())
	}
}

func TestMicroresetLatencyMatchesTable3(t *testing.T) {
	// At the paper's 8 GB the total must be ~22 ms, dominated by the
	// 21 ms page-frame scan (Table III).
	r := newRig(t, DefaultConfig(), 8192)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(2 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	lat := r.engine.Latency
	if lat < 21*time.Millisecond || lat > 23*time.Millisecond {
		t.Fatalf("NiLiHype latency = %v, want ~22ms (Table III)", lat)
	}
	var scan time.Duration
	for _, s := range r.engine.Breakdown {
		if strings.Contains(s.Name, "page frame") {
			scan = s.Dur
		}
	}
	if scan != 21*time.Millisecond {
		t.Fatalf("page-frame scan = %v, want 21ms", scan)
	}
	if !strings.Contains(r.engine.FormatBreakdown(), "Total") {
		t.Fatal("FormatBreakdown missing total")
	}
}

func TestMicrorebootLatencyMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = Microreboot
	r := newRig(t, cfg, 8192)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(3 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	lat := r.engine.Latency
	if lat < 700*time.Millisecond || lat > 730*time.Millisecond {
		t.Fatalf("ReHype latency = %v, want ~713ms (Table II)", lat)
	}
}

func TestLatencyRatioExceeds30x(t *testing.T) {
	// §VII-B: NiLiHype recovers more than 30x faster than ReHype.
	run := func(mech Mechanism) time.Duration {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		r := newRig(t, cfg, 8192)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(3 * time.Second)
		if r.engine.Status() != StatusRecovered {
			t.Fatalf("%v status = %v", mech, r.engine.Status())
		}
		return r.engine.Latency
	}
	nili, rehype := run(Microreset), run(Microreboot)
	if ratio := float64(rehype) / float64(nili); ratio < 30 {
		t.Fatalf("latency ratio = %.1f, want > 30", ratio)
	}
}

func TestMicroresetLatencyScalesWithMemory(t *testing.T) {
	// §VII-B: the page-frame scan is proportional to host memory.
	lat := func(memMB int) time.Duration {
		r := newRig(t, DefaultConfig(), memMB)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(2 * time.Second)
		if r.engine.Status() != StatusRecovered {
			t.Fatalf("status = %v", r.engine.Status())
		}
		return r.engine.Latency
	}
	l2, l8 := lat(2048), lat(8192)
	scanGrowth := (l8 - l2).Seconds()
	wantGrowth := (21.0 * 3 / 4) / 1000 // 3/4 of the 21ms scan
	if scanGrowth < wantGrowth*0.8 || scanGrowth > wantGrowth*1.2 {
		t.Fatalf("scan growth 2->8GB = %.4fs, want ~%.4fs (linear scaling)", scanGrowth, wantGrowth)
	}
}

func TestParallelScanReducesLatency(t *testing.T) {
	// The §VII-B mitigation: sharding the page-frame scan across the
	// recovery CPUs cuts the dominant latency component near-linearly.
	lat := func(repairCPUs int) time.Duration {
		cfg := DefaultConfig()
		cfg.RepairCPUs = repairCPUs
		r := newRig(t, cfg, 8192)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(2 * time.Second)
		if r.engine.Status() != StatusRecovered {
			t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
		}
		return r.engine.Latency
	}
	seq, par := lat(1), lat(8)
	if par >= seq/3 {
		t.Fatalf("8-core scan latency %v not much below sequential %v", par, seq)
	}
	if par < 3*time.Millisecond {
		t.Fatalf("parallel latency %v implausibly low (coordination cost missing)", par)
	}
}

func TestBasicMicroresetAlwaysFails(t *testing.T) {
	// §V-A: "With the basic NiLiHype mechanism, recovery never succeeds"
	// — detection always happens in an exception/NMI context, so the
	// stale local_irq_count trips the first post-resume assertion.
	for seed := 0; seed < 5; seed++ {
		cfg := Config{Mechanism: Microreset, Enhancements: 0}
		r := newRig(t, cfg, 512)
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250+int64(seed)*37)
		r.clk.RunUntil(time.Second)
		if r.engine.Status() != StatusFailed {
			t.Fatalf("basic recovery succeeded (must never, §V-A)")
		}
		if !strings.Contains(r.engine.FailReason, "in_irq") || r.engine.FailCause != hv.CauseAssertion {
			t.Fatalf("FailReason = %q (cause %d), want the !in_irq assertion", r.engine.FailReason, r.engine.FailCause)
		}
	}
}

func TestRecoveryPathCorruptionAbortsRecovery(t *testing.T) {
	r := newRig(t, DefaultConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.CorruptRecoveryVector(testRNG())
	r.injectPanicAtBudget(t, 250)
	if r.engine.Status() != StatusFailed {
		t.Fatalf("status = %v", r.engine.Status())
	}
	if !strings.Contains(r.engine.FailReason, "failed to be invoked") || r.engine.FailCause != hv.CausePathCorrupted {
		t.Fatalf("FailReason = %q (cause %d)", r.engine.FailReason, r.engine.FailCause)
	}
}

func TestStaticScratchCorruption(t *testing.T) {
	// Microreset reuses the corrupted static state and fails;
	// microreboot re-initializes it during boot and survives — the
	// §VII-A mechanism advantage.
	run := func(mech Mechanism) *Engine {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		r := newRig(t, cfg, 512)
		r.clk.RunUntil(50 * time.Millisecond)
		r.h.CorruptStaticScratchWord(testRNG())
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(3 * time.Second)
		return r.engine
	}
	if en := run(Microreset); en.Status() != StatusFailed {
		t.Fatal("microreset survived static-scratch corruption")
	}
	if en := run(Microreboot); en.Status() != StatusRecovered {
		t.Fatalf("microreboot failed static-scratch corruption: %s", en.FailReason)
	} else if len(en.H.StaticScratchDamage()) != 0 {
		t.Fatal("reboot did not re-initialize the static scratch area")
	}
}

func TestAllocatedObjectCorruptionFailsBoth(t *testing.T) {
	for _, mech := range []Mechanism{Microreset, Microreboot} {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		r := newRig(t, cfg, 512)
		r.clk.RunUntil(50 * time.Millisecond)
		if tag := r.h.Heap.CorruptRandomObject(testRNG()); tag == "no live objects" {
			t.Fatal("no live heap object to corrupt")
		}
		r.injectPanicAtBudget(t, 250)
		r.clk.RunUntil(3 * time.Second)
		if r.engine.Status() != StatusFailed {
			t.Fatalf("%v survived live-object corruption (reused by both)", mech)
		}
	}
}

func TestHeapFreelistCorruption(t *testing.T) {
	// Microreboot rebuilds the free list; microreset keeps it corrupted
	// (a later allocator path fails).
	cfg := DefaultConfig()
	cfg.Mechanism = Microreboot
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.Heap.CorruptFreeList(testRNG())
	if len(r.h.Heap.ValidateFreeList()) == 0 {
		t.Fatal("CorruptFreeList produced no detectable damage")
	}
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(3 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("microreboot failed: %s", r.engine.FailReason)
	}
	if len(r.h.Heap.ValidateFreeList()) != 0 {
		t.Fatal("reboot did not rebuild the heap free list")
	}

	r2 := newRig(t, DefaultConfig(), 512)
	r2.clk.RunUntil(50 * time.Millisecond)
	r2.h.Heap.CorruptFreeList(testRNG())
	r2.injectPanicAtBudget(t, 250)
	r2.clk.RunUntil(time.Second)
	if len(r2.h.Heap.ValidateFreeList()) == 0 {
		t.Fatal("microreset rebuilt the heap free list (it must not)")
	}
}

func TestDomainListCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = Microreboot
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	d, err := r.h.Domain(1)
	if err != nil {
		t.Fatal(err)
	}
	r.h.Domains.CorruptLink(testRNG())
	if r.h.Domains.CheckLinks() == nil {
		t.Fatal("CorruptLink produced no detectable damage")
	}
	r.h.ArmInjection(250, func(hv.InjectionPoint) (hv.InjectAction, string) {
		return hv.ActionPanic, "failstop"
	})
	r.h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
	r.clk.RunUntil(3 * time.Second)
	if err := r.h.Domains.CheckLinks(); err != nil {
		t.Fatalf("reboot did not relink the domain list: %v", err)
	}
}

func TestPoisonedRetryFailsRecovery(t *testing.T) {
	r := newRig(t, DefaultConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	// Land the fault in the unmitigated window of mmu_pin:
	// entry(150)+lock(40)+inc(60)+pte(120)+validate(80) = 450.
	r.h.ArmInjection(455, func(pt hv.InjectionPoint) (hv.InjectAction, string) {
		if !pt.Unmitigated {
			return hv.ActionContinue, ""
		}
		return hv.ActionPanic, "failstop in window"
	})
	d, _ := r.h.Domain(1)
	r.h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(d.MemStart + 7)}})
	r.clk.RunUntil(time.Second)
	if r.engine.Status() != StatusFailed {
		t.Fatal("poisoned retry recovered (the §IV residual must fail)")
	}
	if !strings.Contains(r.engine.FailReason, "refcount") {
		t.Fatalf("FailReason = %q", r.engine.FailReason)
	}
}

func TestReprogramTimerEnhancementRevivesAPIC(t *testing.T) {
	// Without the enhancement, a dead APIC (fault inside the timer IRQ
	// window) leads to a post-recovery watchdog hang; with it, the CPU
	// revives.
	enhAll := DefaultConfig()
	r := newRig(t, enhAll, 512)
	r.clk.RunUntil(95 * time.Millisecond)
	// Inject inside the timer IRQ pre-reprogram window on some CPU: arm
	// a tiny budget right before the next tick wave (ticks at 100ms).
	fired := false
	r.h.ArmInjection(300, func(pt hv.InjectionPoint) (hv.InjectAction, string) {
		if !strings.HasPrefix(pt.Activity, "irq:timer") || pt.StepName == "exit_irq" {
			return hv.ActionContinue, ""
		}
		fired = true
		return hv.ActionPanic, "failstop in timer irq"
	})
	r.clk.RunUntil(3 * time.Second)
	if !fired {
		t.Skip("injection missed the timer window")
	}
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	for cpu := 0; cpu < r.h.NumCPUs(); cpu++ {
		if !r.h.Machine.CPU(cpu).TimerArmed() {
			t.Fatalf("cpu%d APIC dead after recovery with reprogram enhancement", cpu)
		}
	}
}

func TestDetectingOnlyScopeIsWorse(t *testing.T) {
	// §III-C ablation: discarding only the detecting CPU's thread leaves
	// cross-CPU waits and global-state clashes; across seeds it must
	// fail at least sometimes while all-threads succeeds.
	failures := 0
	const tries = 30
	for seed := 0; seed < tries; seed++ {
		cfg := DefaultConfig()
		cfg.Scope = DetectingOnly
		r := newRig(t, cfg, 512)
		// Decorrelate the hazard draws across iterations (the rig's
		// hypervisor seed is fixed).
		for k := 0; k < seed; k++ {
			r.h.RNG.Uint64()
		}
		r.clk.RunUntil(50 * time.Millisecond)
		r.injectPanicAtBudget(t, 250+int64(seed)*61)
		r.clk.RunUntil(2 * time.Second)
		if r.engine.Status() == StatusFailed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("DetectingOnly scope never failed across seeds (hazards not modeled)")
	}
	if failures == tries {
		t.Fatal("DetectingOnly scope always failed (hazards overmodeled)")
	}
}

func TestDetectionDuringRecoveryWindowIgnored(t *testing.T) {
	// Watchdog noise while VMs are paused must not abort the recovery.
	cfg := DefaultConfig()
	cfg.Mechanism = Microreboot // long 713ms window: watchdog fires inside
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(3 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s) — in-window detections must be ignored",
			r.engine.Status(), r.engine.FailReason)
	}
}

func TestSecondFaultAfterRecoveryFails(t *testing.T) {
	r := newRig(t, DefaultConfig(), 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(500 * time.Millisecond)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("first recovery failed: %s", r.engine.FailReason)
	}
	r.h.Panic(2, hv.CauseOther, "second fault")
	if r.engine.Status() != StatusFailed {
		t.Fatal("second detection did not fail the run")
	}
	if !strings.Contains(r.engine.FailReason, "post-recovery") {
		t.Fatalf("FailReason = %q", r.engine.FailReason)
	}
}

func TestStatusIdleWithoutDetection(t *testing.T) {
	r := newRig(t, DefaultConfig(), 512)
	r.clk.RunUntil(500 * time.Millisecond)
	if r.engine.Status() != StatusIdle {
		t.Fatalf("status = %v", r.engine.Status())
	}
}

func TestEnhancementsHas(t *testing.T) {
	e := EnhClearIRQCount | EnhPFScan
	if !e.Has(EnhClearIRQCount) || !e.Has(EnhPFScan) || e.Has(EnhReprogramTimer) {
		t.Fatal("Has() wrong")
	}
}

func TestNetBenchSenderSeesRecoveryGap(t *testing.T) {
	// §VII-B: recovery latency is measured as the service interruption
	// seen by the NetBench sender. This is covered end-to-end in the
	// benchmark harness; here we verify the pause window blocks and
	// resumes dispatching.
	r := newRig(t, DefaultConfig(), 8192)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	start := r.clk.Now()
	if !r.h.Paused() {
		t.Fatal("hypervisor not paused during recovery")
	}
	r.clk.RunUntil(start + 21*time.Millisecond)
	if !r.h.Paused() {
		t.Fatal("pause ended before the modeled latency")
	}
	r.clk.RunUntil(start + 30*time.Millisecond)
	if r.h.Paused() {
		t.Fatal("pause did not end after the modeled latency")
	}
}

func TestCheckpointRestoreMechanism(t *testing.T) {
	// The §II-B alternative: no reboot, but the state re-integration
	// remains — "multiple hundreds of milliseconds" even so.
	cfg := DefaultConfig()
	cfg.Mechanism = CheckpointRestore
	r := newRig(t, cfg, 8192)
	r.clk.RunUntil(50 * time.Millisecond)
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(3 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	lat := r.engine.Latency
	if lat < 300*time.Millisecond || lat > 400*time.Millisecond {
		t.Fatalf("checkpoint-restore latency = %v, want multiple hundreds of ms (§II-B)", lat)
	}
	if !strings.Contains(r.engine.FormatBreakdown(), "Checkpoint restore") {
		t.Fatal("breakdown missing checkpoint group")
	}
	if !Microreboot.Reboots() || !CheckpointRestore.Reboots() || Microreset.Reboots() {
		t.Fatal("Reboots() classification wrong")
	}
	if CheckpointRestore.String() != "ReHype-CP" {
		t.Fatalf("name = %q", CheckpointRestore.String())
	}
}

func TestCheckpointRestoreSurvivesStaticCorruption(t *testing.T) {
	// The checkpoint image re-initializes static state, matching the
	// microreboot advantage.
	cfg := DefaultConfig()
	cfg.Mechanism = CheckpointRestore
	r := newRig(t, cfg, 512)
	r.clk.RunUntil(50 * time.Millisecond)
	r.h.CorruptStaticScratchWord(testRNG())
	r.h.Heap.CorruptFreeList(testRNG())
	r.injectPanicAtBudget(t, 250)
	r.clk.RunUntil(3 * time.Second)
	if r.engine.Status() != StatusRecovered {
		t.Fatalf("status = %v (%s)", r.engine.Status(), r.engine.FailReason)
	}
	if len(r.h.Heap.ValidateFreeList()) != 0 || len(r.h.StaticScratchDamage()) != 0 {
		t.Fatal("checkpoint restore did not re-initialize image state")
	}
}
