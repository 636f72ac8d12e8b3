package inject

import (
	"math"
	"strings"
	"testing"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/prng"
	"nilihype/internal/simclock"
)

// corruptRecorder records guest-data corruption requests.
type corruptRecorder struct{ doms []int }

func (c *corruptRecorder) CorruptGuestData(dom int) { c.doms = append(c.doms, dom) }

func newTarget(t *testing.T, seed uint64) (*hv.Hypervisor, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 4, MemoryMB: 256, BlockSvc: 100 * time.Microsecond, NICLat: 10 * time.Microsecond},
		HeapFrames:     4096,
		LoggingEnabled: true,
		RecoveryPrep:   true,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateDomain(1, "app", 2048, 1, false); err != nil {
		t.Fatal(err)
	}
	return h, clk
}

func TestFaultTypeAndEffectStrings(t *testing.T) {
	if Failstop.String() != "Failstop" || Register.String() != "Register" ||
		Code.String() != "Code" || FaultType(9).String() != "fault(9)" {
		t.Fatal("fault names wrong")
	}
	for _, tt := range []struct {
		e    Effect
		want string
	}{{EffectNone, "none"}, {EffectSDC, "sdc"}, {EffectPanic, "panic"},
		{EffectWedge, "wedge"}, {EffectLatent, "latent"}, {Effect(99), "effect(99)"}} {
		if tt.e.String() != tt.want {
			t.Fatalf("%v != %v", tt.e, tt.want)
		}
	}
}

// TestParseFaultTypeRoundTrip: parse and print read one table, so every
// fault type parses back from its String() and its Key(), and every
// spelling a command line ever accepted still resolves.
func TestParseFaultTypeRoundTrip(t *testing.T) {
	for f := Failstop; f <= DeviceIOAPIC; f++ {
		for _, s := range []string{f.String(), f.Key(), strings.ToUpper(f.Key())} {
			if got, err := ParseFaultType(s); err != nil || got != f {
				t.Errorf("ParseFaultType(%q) = %v, %v; want %v", s, got, err, f)
			}
		}
	}
	for s, want := range map[string]FaultType{"device": DeviceIOAPIC, "ioapic": DeviceIOAPIC,
		"privvm-crash": PrivVMCrash, "privvm-hang": PrivVMHang, "Register": Register} {
		if got, err := ParseFaultType(s); err != nil || got != want {
			t.Errorf("ParseFaultType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "alpha", "cosmic", "fault(1)", "other"} {
		if got, err := ParseFaultType(s); err == nil {
			t.Errorf("ParseFaultType(%q) = %v, want an error", s, got)
		}
	}
	if FaultType(0).Key() != "other" || FaultType(9).Key() != "other" {
		t.Error("unknown fault types must key as \"other\"")
	}
}

func TestFailstopAlwaysDetectedImmediately(t *testing.T) {
	h, clk := newTarget(t, 1)
	var panics []string
	h.SetPanicHook(func(cpu int, _ hv.Cause, reason string) { panics = append(panics, reason) })
	inj := New(h, nil, prng.New(1, 2), Params{
		Type: Failstop, WindowLo: 10 * time.Millisecond, WindowHi: 50 * time.Millisecond,
	})
	inj.Schedule()
	clk.RunUntil(500 * time.Millisecond)
	if !inj.Fired {
		t.Fatal("injection never fired")
	}
	if inj.FaultEffect != EffectPanic {
		t.Fatalf("effect = %v", inj.FaultEffect)
	}
	if len(panics) != 1 || !strings.Contains(panics[0], "failstop") {
		t.Fatalf("panics = %v", panics)
	}
}

func TestTriggerFiresInsideWindow(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		var firedAt time.Duration
		h.SetNMIHook(func(int) {}) // quiet
		inj := New(h, nil, prng.New(seed, 2), Params{
			Type: Failstop, WindowLo: 100 * time.Millisecond, WindowHi: 200 * time.Millisecond,
		})
		origHook := func(int, hv.Cause, string) { firedAt = clk.Now() }
		h.SetPanicHook(origHook)
		inj.Schedule()
		clk.RunUntil(time.Second)
		if !inj.Fired {
			t.Fatalf("seed %d: never fired", seed)
		}
		// The instruction budget (<=20000) adds at most a few ms beyond
		// the window.
		if firedAt < 100*time.Millisecond || firedAt > 260*time.Millisecond {
			t.Fatalf("seed %d: fired at %v, outside window+slack", seed, firedAt)
		}
	}
}

func TestRegisterFaultFlipsExactlyOneBit(t *testing.T) {
	h, clk := newTarget(t, 3)
	h.SetPanicHook(func(int, hv.Cause, string) {})
	var before [hw.NumRegs]uint64
	inj := New(h, &corruptRecorder{}, prng.New(3, 2), Params{
		Type: Register, WindowLo: 10 * time.Millisecond, WindowHi: 20 * time.Millisecond,
		AppDomains: []int{1},
	})
	inj.Schedule()
	// Snapshot registers right before the window opens.
	clk.At(10*time.Millisecond-time.Microsecond, "snap", func() {
		for i := 0; i < 4; i++ {
			before = h.Machine.CPU(1).Regs
			_ = i
		}
	})
	clk.RunUntil(300 * time.Millisecond)
	if !inj.Fired {
		t.Fatal("never fired")
	}
	cpu := h.Machine.CPU(inj.Point.CPU)
	if inj.Point.CPU == 1 {
		diff := cpu.Regs[inj.Reg] ^ before[inj.Reg]
		if diff != 1<<uint(inj.Bit) {
			t.Fatalf("register diff = %x, want single bit %d", diff, inj.Bit)
		}
	}
	if int(inj.Reg) >= hw.NumInjectableRegs {
		t.Fatalf("injected reg %v outside the 19 targets", inj.Reg)
	}
}

// TestManifestationDistributions verifies the drawn effect proportions
// against the paper's outcome breakdowns (§VII-A) over many trials of the
// manifestation draw alone.
func TestManifestationDistributions(t *testing.T) {
	tests := []struct {
		name                string
		d                   manifestDist
		wantDead, wantSDC   float64
		wantDetectedAtLeast float64
	}{
		{"register", registerDist, 0.748, 0.056, 0.19},
		{"code", codeDist, 0.350, 0.121, 0.52},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := prng.New(42, 99)
			const n = 20000
			counts := map[string]int{}
			for i := 0; i < n; i++ {
				r := rng.Float64()
				switch {
				case r < tt.d.dead:
					counts["dead"]++
				case r < tt.d.dead+tt.d.sdc:
					counts["sdc"]++
				default:
					counts["detected"]++
				}
			}
			if got := float64(counts["dead"]) / n; math.Abs(got-tt.wantDead) > 0.01 {
				t.Fatalf("dead = %.3f, want %.3f", got, tt.wantDead)
			}
			if got := float64(counts["sdc"]) / n; math.Abs(got-tt.wantSDC) > 0.006 {
				t.Fatalf("sdc = %.3f, want %.3f", got, tt.wantSDC)
			}
			if got := float64(counts["detected"]) / n; got < tt.wantDetectedAtLeast {
				t.Fatalf("detected = %.3f, want >= %.3f", got, tt.wantDetectedAtLeast)
			}
		})
	}
}

func TestSDCCorruptsIssuingDomain(t *testing.T) {
	// Force the SDC path by hunting seeds until one draws it; the
	// corruption must land on an AppVM.
	for seed := uint64(1); seed < 200; seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		rec := &corruptRecorder{}
		inj := New(h, rec, prng.New(seed, 7), Params{
			Type: Register, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1},
		})
		inj.Schedule()
		clk.RunUntil(400 * time.Millisecond)
		if inj.FaultEffect == EffectSDC {
			if len(rec.doms) != 1 {
				t.Fatalf("seed %d: SDC did not corrupt a guest", seed)
			}
			if rec.doms[0] != 1 {
				t.Fatalf("corrupted dom %d, want an AppVM", rec.doms[0])
			}
			return
		}
	}
	t.Fatal("no seed produced SDC in 200 tries")
}

func TestLatentCorruptionIsDetectedLater(t *testing.T) {
	for seed := uint64(1); seed < 400; seed++ {
		h, clk := newTarget(t, seed)
		var panicAt time.Duration
		var reason string
		h.SetPanicHook(func(cpu int, _ hv.Cause, r string) {
			if panicAt == 0 {
				panicAt = clk.Now()
				reason = r
			}
		})
		inj := New(h, &corruptRecorder{}, prng.New(seed, 7), Params{
			Type: Register, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1},
		})
		inj.Schedule()
		clk.RunUntil(time.Second)
		if inj.FaultEffect != EffectLatent {
			continue
		}
		if len(inj.Corruptions) == 0 {
			t.Fatalf("seed %d: latent effect with no corruption record", seed)
		}
		if panicAt == 0 {
			t.Fatalf("seed %d: latent corruption never detected (%v)", seed, inj.Corruptions)
		}
		if !strings.Contains(reason, "fault") && !strings.Contains(reason, "ASSERT") &&
			!strings.Contains(reason, "corrupted") {
			t.Fatalf("seed %d: unexpected detection reason %q", seed, reason)
		}
		return
	}
	t.Fatal("no seed produced a latent effect in 400 tries")
}

func TestWedgeEffectStopsCPU(t *testing.T) {
	for seed := uint64(1); seed < 600; seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		inj := New(h, &corruptRecorder{}, prng.New(seed, 7), Params{
			Type: Code, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1},
		})
		inj.Schedule()
		clk.RunUntil(50 * time.Millisecond)
		if inj.FaultEffect == EffectWedge {
			if !h.PerCPU(inj.Point.CPU).Wedged {
				t.Fatalf("seed %d: wedge effect but CPU not wedged", seed)
			}
			return
		}
	}
	t.Fatal("no seed produced a wedge in 600 tries")
}

func TestDefaultBudgetApplied(t *testing.T) {
	h, _ := newTarget(t, 1)
	inj := New(h, nil, prng.New(1, 1), Params{Type: Failstop})
	if inj.params.MaxInstrBudget != DefaultMaxInstrBudget {
		t.Fatalf("budget = %d", inj.params.MaxInstrBudget)
	}
}

// TestLatentCorruptionClassesHitRealState hunts seeds until each latent
// corruption class has been observed, and verifies each one damaged the
// state it claims to (the paper's §VII-A failure-cause taxonomy).
func TestLatentCorruptionClassesHitRealState(t *testing.T) {
	seen := make(map[string]bool)
	want := []string{"pf-descriptor", "sched-meta", "heap-freelist", "domain-list",
		"static-scratch", "allocated-object", "privvm", "recovery-path", "scratch",
		"timer-heap", "evtchn", "grant", "lock"}
	for seed := uint64(1); seed < 8000 && len(seen) < len(want); seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		inj := New(h, &corruptRecorder{}, prng.New(seed, 7), Params{
			Type: Code, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1},
		})
		inj.Schedule()
		clk.RunUntil(40 * time.Millisecond)
		if inj.FaultEffect != EffectLatent {
			continue
		}
		for _, c := range inj.Corruptions {
			key := c
			if idx := strings.IndexByte(c, ':'); idx > 0 {
				key = c[:idx]
			}
			if idx := strings.IndexByte(key, '['); idx > 0 {
				key = key[:idx]
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			switch key {
			case "pf-descriptor":
				if len(h.Frames.InconsistentFrames()) == 0 {
					t.Fatal("pf-descriptor corruption left no inconsistency")
				}
			case "sched-meta":
				if len(h.Sched.CheckConsistency()) == 0 {
					t.Fatal("sched-meta corruption left no inconsistency")
				}
			case "heap-freelist":
				if len(h.Heap.ValidateFreeList()) == 0 {
					t.Fatal("heap-freelist corruption left no detectable damage")
				}
			case "domain-list":
				if h.Domains.CheckLinks() == nil {
					t.Fatal("domain-list corruption left intact links")
				}
			case "static-scratch":
				if len(h.StaticScratchDamage()) == 0 {
					t.Fatal("static-scratch corruption left no damaged words")
				}
			case "allocated-object":
				if len(h.Heap.DamagedObjects()) == 0 {
					t.Fatal("allocated-object corruption left no damaged canary")
				}
			case "privvm":
				d, err := h.Domain(0)
				if err != nil || !d.Failed {
					t.Fatal("privvm corruption did not fail Dom0")
				}
			case "recovery-path":
				if h.RecoveryPathIntact() {
					t.Fatal("recovery-path corruption left the vector intact")
				}
			case "timer-heap":
				// A stalled deadline persists (the timer never pops); a
				// buried one fires spuriously and self-heals on the next
				// reactivation, so only the stall is asserted on.
				if strings.Contains(c, "stalled") {
					flagged := 0
					for cpu := 0; cpu < h.Timers.NumCPUs(); cpu++ {
						flagged += len(h.Timers.CheckHealthOn(cpu, clk.Now()))
					}
					if flagged == 0 {
						t.Fatal("stalled timer not flagged by CheckHealthOn")
					}
				}
			case "evtchn":
				if len(h.Broker.CheckLinks()) == 0 {
					t.Fatal("evtchn corruption left intact linkage")
				}
			case "grant":
				if !grantCountsMismatch(h) {
					t.Fatal("grant corruption left counts matching maptrack")
				}
			case "lock":
				if len(h.Locks.HeldLocks()) == 0 {
					t.Fatal("lock corruption left no lock held")
				}
			}
		}
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("corruption class %q never observed in 8000 seeds", w)
		}
	}
}

// TestScheduleNormalizesReversedWindow: a reversed injection window
// (WindowHi < WindowLo) is normalized by swapping the bounds, so the
// trigger still lands inside the intended interval instead of panicking
// in the clock (negative span) or firing at a bogus time.
func TestScheduleNormalizesReversedWindow(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		h, clk := newTarget(t, seed)
		var firedAt time.Duration
		h.SetPanicHook(func(int, hv.Cause, string) {
			if firedAt == 0 {
				firedAt = clk.Now()
			}
		})
		inj := New(h, nil, prng.New(seed, 2), Params{
			Type: Failstop, WindowLo: 200 * time.Millisecond, WindowHi: 100 * time.Millisecond,
		})
		inj.Schedule()
		clk.RunUntil(time.Second)
		if !inj.Fired {
			t.Fatalf("seed %d: reversed-window injection never fired", seed)
		}
		// Same slack as TestTriggerFiresInsideWindow: the instruction
		// budget adds a few ms past the (swapped) window.
		if firedAt < 100*time.Millisecond || firedAt > 260*time.Millisecond {
			t.Fatalf("seed %d: fired at %v, outside normalized window+slack", seed, firedAt)
		}
	}
}

// TestScheduleClampsNegativeWindow: negative bounds clamp to zero rather
// than asking the clock to schedule in the past.
func TestScheduleClampsNegativeWindow(t *testing.T) {
	h, clk := newTarget(t, 3)
	h.SetPanicHook(func(int, hv.Cause, string) {})
	inj := New(h, nil, prng.New(3, 2), Params{
		Type: Failstop, WindowLo: -30 * time.Millisecond, WindowHi: -10 * time.Millisecond,
	})
	inj.Schedule()
	clk.RunUntil(200 * time.Millisecond)
	if !inj.Fired {
		t.Fatal("clamped-window injection never fired")
	}
}

// TestScheduleDetectionDegenerateBounds: latency bounds with hi <= lo must
// collapse to lo instead of feeding rand.Int64N a non-positive span (which
// panics). Both detections must still fire.
func TestScheduleDetectionDegenerateBounds(t *testing.T) {
	h, clk := newTarget(t, 11)
	var reasons []string
	h.SetPanicHook(func(_ int, _ hv.Cause, r string) { reasons = append(reasons, r) })
	inj := New(h, nil, prng.New(11, 2), Params{Type: Code})
	inj.Corruptions = []string{"synthetic"}
	inj.scheduleDetection(1, 20*time.Millisecond, 20*time.Millisecond) // hi == lo
	inj.scheduleDetection(2, 20*time.Millisecond, 5*time.Millisecond)  // hi < lo
	clk.RunUntil(200 * time.Millisecond)
	if len(reasons) == 0 {
		t.Fatal("degenerate-bounds detections never fired")
	}
	for _, r := range reasons {
		if !strings.Contains(r, "corrupted state hit") {
			t.Fatalf("unexpected detection reason %q", r)
		}
	}
}

// TestBurstFaultFires: with BurstWindow set, a second independent fault is
// armed within the window of the first one's firing, with the configured
// burst type.
func TestBurstFaultFires(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		inj := New(h, &corruptRecorder{}, prng.New(seed, 7), Params{
			Type: Register, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1}, BurstWindow: 50 * time.Millisecond, BurstFault: Failstop,
		})
		inj.Schedule()
		clk.RunUntil(500 * time.Millisecond)
		if !inj.Fired || !inj.BurstFired {
			continue
		}
		if inj.BurstEffect != EffectPanic {
			t.Fatalf("seed %d: burst effect = %v, want panic (Failstop burst)", seed, inj.BurstEffect)
		}
		return
	}
	t.Fatal("no seed produced a burst fault in 100 tries")
}

// TestBurstDefaultsToPrimaryType: a zero BurstFault reuses the primary
// fault type.
func TestBurstDefaultsToPrimaryType(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		h, clk := newTarget(t, seed)
		h.SetPanicHook(func(int, hv.Cause, string) {})
		inj := New(h, &corruptRecorder{}, prng.New(seed, 7), Params{
			Type: Failstop, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
			AppDomains: []int{1}, BurstWindow: 50 * time.Millisecond,
		})
		inj.Schedule()
		clk.RunUntil(500 * time.Millisecond)
		if inj.BurstFired {
			if inj.BurstEffect != EffectPanic {
				t.Fatalf("seed %d: burst effect = %v, want the primary's failstop panic", seed, inj.BurstEffect)
			}
			return
		}
	}
	t.Fatal("no seed produced a burst fault in 100 tries")
}

// TestFaultDuringRecoveryArmsAtPause: the FaultDuringRecovery trigger arms
// when recovery pauses the system and fires in the first post-resume
// hypervisor activity — not before any pause happens.
func TestFaultDuringRecoveryArmsAtPause(t *testing.T) {
	h, clk := newTarget(t, 5)
	h.SetPanicHook(func(int, hv.Cause, string) {})
	inj := New(h, nil, prng.New(5, 7), Params{
		Type: Failstop, WindowLo: 10 * time.Millisecond, WindowHi: 30 * time.Millisecond,
		FaultDuringRecovery: true,
	})
	inj.Schedule()
	clk.RunUntil(50 * time.Millisecond)
	if !inj.Fired {
		t.Fatal("primary never fired")
	}
	if inj.DuringRecoveryFired {
		t.Fatal("during-recovery trigger fired before any recovery pause")
	}
	// Simulate a recovery attempt: Pause arms the trigger via the pause
	// hook; post-resume activity then hits it.
	h.Pause()
	h.ResumeRunnable()
	clk.RunUntil(300 * time.Millisecond)
	if !inj.DuringRecoveryFired {
		t.Fatal("during-recovery fault never fired after the recovery pause")
	}
	if inj.DuringEffect != EffectPanic {
		t.Fatalf("during-recovery effect = %v, want panic", inj.DuringEffect)
	}
}

// grantCountsMismatch reports whether any grant entry's MapCount disagrees
// with the maptrack tables (the invariant the audit rechecks).
func grantCountsMismatch(h *hv.Hypervisor) bool {
	type key struct{ dom, ref int }
	expected := make(map[key]int)
	doms := h.Domains.Preserved()
	for _, d := range doms {
		if d.Maptrack == nil {
			continue
		}
		for _, mp := range d.Maptrack.Mappings() {
			expected[key{mp.GranterDom, mp.Ref}]++
		}
	}
	for _, d := range doms {
		if d.GrantTab == nil {
			continue
		}
		for ref := 0; ref < d.GrantTab.Len(); ref++ {
			if e, err := d.GrantTab.Entry(ref); err == nil && e.MapCount != expected[key{d.ID, ref}] {
				return true
			}
		}
	}
	return false
}
