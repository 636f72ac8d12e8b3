package campaign

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/inject"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
)

func fastCfg(fault inject.FaultType, mech core.Mechanism) RunConfig {
	return RunConfig{
		Seed:          1,
		Setup:         ThreeAppVM,
		Fault:         fault,
		Logging:       true,
		Recovery:      core.Config{Mechanism: mech, Enhancements: core.AllEnhancements},
		BenchDuration: 2 * time.Second,
	}
}

func TestSetupAndOutcomeStrings(t *testing.T) {
	if OneAppVM.String() != "1AppVM" || ThreeAppVM.String() != "3AppVM" || Setup(9).String() != "setup(9)" {
		t.Fatal("setup names wrong")
	}
	if NonManifested.String() != "non-manifested" || SDC.String() != "SDC" ||
		Detected.String() != "detected" || Outcome(9).String() != "outcome(9)" {
		t.Fatal("outcome names wrong")
	}
}

func TestFailstopRunRecoversAndCreatesThirdVM(t *testing.T) {
	r := Run(fastCfg(inject.Failstop, core.Microreset))
	if !r.InjectionFired || !r.Detected {
		t.Fatalf("fired=%v detected=%v", r.InjectionFired, r.Detected)
	}
	if r.Outcome != Detected {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if !r.Recovered || r.FailReason != "" {
		t.Fatalf("recovered=%v fail=%q", r.Recovered, r.FailReason)
	}
	if !r.NewVMOK {
		t.Fatal("post-recovery BlkBench creation check failed")
	}
	if !r.Success || !r.NoVMF {
		t.Fatalf("success=%v noVMF=%v vms=%v", r.Success, r.NoVMF, r.VMs)
	}
	if r.Latency == 0 || r.RecoveryAt == 0 {
		t.Fatal("latency/recovery time not recorded")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	a := Run(fastCfg(inject.Register, core.Microreset))
	b := Run(fastCfg(inject.Register, core.Microreset))
	if a.Outcome != b.Outcome || a.Success != b.Success || a.FaultEffect != b.FaultEffect ||
		a.InjectionAt != b.InjectionAt || a.RecoveryAt != b.RecoveryAt {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestOneAppVMRun(t *testing.T) {
	cfg := fastCfg(inject.Failstop, core.Microreset)
	cfg.Setup = OneAppVM
	cfg.Workload = guest.UnixBench
	r := Run(cfg)
	if r.Outcome != Detected {
		t.Fatalf("outcome = %v (%s)", r.Outcome, r.FailReason)
	}
	if len(r.VMs) != 1 {
		t.Fatalf("VMs = %v", r.VMs)
	}
	if r.Success != (r.AppVMsFailed == 0 && r.Recovered && !r.PrivVMFailed) {
		t.Fatal("1AppVM success definition violated")
	}
}

func TestBasicConfigRunFails(t *testing.T) {
	cfg := fastCfg(inject.Failstop, core.Microreset)
	cfg.Recovery = core.Config{Mechanism: core.Microreset, Enhancements: 0}
	r := Run(cfg)
	if r.Success {
		t.Fatal("basic microreset run succeeded (must never, §V-A)")
	}
	if !strings.Contains(r.FailReason, "in_irq") {
		t.Fatalf("FailReason = %q", r.FailReason)
	}
}

func TestNoInjectionRunIsClean(t *testing.T) {
	cfg := fastCfg(inject.Failstop, core.Microreset)
	cfg.NoInjection = true
	r := Run(cfg)
	if r.InjectionFired || r.Detected {
		t.Fatalf("fired=%v detected=%v on no-injection run", r.InjectionFired, r.Detected)
	}
	if r.Outcome != NonManifested {
		t.Fatalf("outcome = %v, VMs = %v, fail=%q", r.Outcome, r.VMs, r.FailReason)
	}
}

func TestCampaignExecuteAggregates(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 6, Parallelism: 2}
	s := c.Execute()
	if s.Runs != 6 || s.DetectedCount != 6 {
		t.Fatalf("runs=%d detected=%d", s.Runs, s.DetectedCount)
	}
	rate, ci := s.SuccessRate()
	if rate < 0 || rate > 1 || ci < 0 {
		t.Fatalf("rate=%v ci=%v", rate, ci)
	}
	out := s.Format()
	if !strings.Contains(out, "successful recovery") {
		t.Fatalf("Format = %q", out)
	}
}

// TestCampaignDeterministicAcrossParallelism is the determinism
// regression for the streaming executor: the same campaign must produce
// a byte-identical Summary whether runs execute serially or spread over
// many workers, and re-executing must reproduce it exactly.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	base := fastCfg(inject.Register, core.Microreset)
	serial := Campaign{Base: base, Runs: 8, Parallelism: 1}
	wide := Campaign{Base: base, Runs: 8, Parallelism: 8}
	s1 := serial.Execute()
	s2 := wide.Execute()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summary differs across parallelism:\n par=1: %+v\n par=8: %+v", s1, s2)
	}
	s3 := serial.Execute()
	if !reflect.DeepEqual(s1, s3) {
		t.Fatalf("summary not reproducible:\n first: %+v\n again: %+v", s1, s3)
	}
}

// TestCampaignSeedBaseShiftsSeeds: SeedBase offsets the seed sequence, and
// streamed Results carry exactly those seeds.
func TestCampaignSeedBaseShiftsSeeds(t *testing.T) {
	var seeds []uint64
	c := Campaign{
		Base:        fastCfg(inject.Failstop, core.Microreset),
		Runs:        4,
		Parallelism: 2,
		SeedBase:    100,
		OnResult:    func(r Result) { seeds = append(seeds, r.Seed) },
	}
	s := c.Execute()
	if s.Runs != 4 {
		t.Fatalf("Runs = %d", s.Runs)
	}
	if len(seeds) != 4 {
		t.Fatalf("OnResult saw %d results, want 4", len(seeds))
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	want := []uint64{101, 102, 103, 104}
	if !reflect.DeepEqual(seeds, want) {
		t.Fatalf("seeds = %v, want %v", seeds, want)
	}
}

// TestShardedEquivalence pins the property every multi-campaign report
// relies on: a campaign split into adjacent SeedBase ranges ("shards"),
// each executed on its own and folded with Summary.Merge, is
// reflect.DeepEqual to one Execute over the union — phase histograms, the
// SLO block and the per-fault-class matrix included. The split is uneven
// (3+3+2), the shards run at different parallelism, and seeds 19..26
// give the register shapes four detected runs.
func TestShardedEquivalence(t *testing.T) {
	type shape struct {
		name string
		base RunConfig
	}
	shapes := []shape{
		{"register-microreset", fastCfg(inject.Register, core.Microreset)},
		{"traffic-register-microreboot", trafficCfg(inject.Register, core.Microreboot)},
	}
	for _, ft := range []inject.FaultType{inject.Failstop, inject.Register, inject.Code,
		inject.PrivVMCrash, inject.PrivVMHang, inject.DeviceIOAPIC} {
		shapes = append(shapes, shape{"class-" + ft.Key(), ladderCfg(ft)})
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			whole := Campaign{Base: sh.base, Runs: 8, Parallelism: 2, SeedBase: 18}
			want := whole.Execute()
			got := executeSeedRanges(whole, 3, 3, 2)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("merged shards differ from one Execute:\n whole:  %+v\n merged: %+v", want, got)
			}
			// DeepEqual covers these; assert the report-facing parts
			// explicitly so a regression reads as what it is.
			if len(want.FaultClasses) == 0 || len(want.PhaseHists) == 0 {
				t.Fatalf("shape exercises too little: %d fault classes, %d phase histograms",
					len(want.FaultClasses), len(want.PhaseHists))
			}
			if sh.base.Traffic.Enabled() && (want.SLORuns != whole.Runs || want.SLO != got.SLO) {
				t.Fatalf("SLO block: %d runs, whole %+v vs merged %+v", want.SLORuns, want.SLO, got.SLO)
			}
			for name, h := range want.PhaseHists {
				g := got.PhaseHists[name]
				if g == nil || h.Quantile(0.50) != g.Quantile(0.50) || h.Quantile(0.99) != g.Quantile(0.99) || h.Max != g.Max {
					t.Fatalf("phase %q quantiles differ", name)
				}
			}
		})
	}
}

// executeSeedRanges splits c into adjacent SeedBase ranges of the given
// sizes (which must sum to c.Runs), executes each as its own Campaign at
// alternating parallelism, and folds the summaries with Summary.Merge in
// range order.
func executeSeedRanges(c Campaign, sizes ...int) Summary {
	got := Summary{Config: c.Base, FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	seedBase := c.SeedBase
	for i, runs := range sizes {
		shard := Campaign{Base: c.Base, Runs: runs, Parallelism: 1 + i%2, SeedBase: seedBase}
		got.Merge(shard.Execute())
		seedBase += uint64(runs)
	}
	return got
}

// TestUnevenShardMergeMatchesExecute merges an uneven split (7 runs over
// 3 seed ranges: 3+2+2) and checks the result is bit-identical to the
// unsplit Execute.
func TestUnevenShardMergeMatchesExecute(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 7, Parallelism: 2, SeedBase: 23}
	want := c.Execute()
	got := executeSeedRanges(c, 3, 2, 2)
	if got.Runs != 7 {
		t.Fatalf("merged Runs = %d, want 7", got.Runs)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("uneven shard merge differs from Execute:\n want: %+v\n got:  %+v", want, got)
	}
}

// TestCampaignOnResultStreamsEveryRun checks the streaming hook fires
// once per run and that Execute keeps no per-run state of its own.
func TestCampaignOnResultStreamsEveryRun(t *testing.T) {
	var detected int
	c := Campaign{
		Base:        fastCfg(inject.Failstop, core.Microreset),
		Runs:        6,
		Parallelism: 3,
		OnResult: func(r Result) {
			if r.Detected {
				detected++
			}
		},
	}
	s := c.Execute()
	if detected != s.DetectedCount {
		t.Fatalf("streamed detected = %d, summary says %d", detected, s.DetectedCount)
	}
}

// TestSummaryStaysBounded: a Summary's size does not grow with Runs, so a
// campaign's memory is O(parallelism) whatever its size. Every map and
// slice reachable from the Summary of a 64-run campaign whose every run
// is detected must hold fewer than Runs/2 entries; a per-run record would
// hold one per detected run.
func TestSummaryStaysBounded(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 64, Parallelism: 4}
	s := c.Execute()
	if s.DetectedCount != s.Runs {
		t.Fatalf("detected %d of %d failstop runs", s.DetectedCount, s.Runs)
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Map, reflect.Slice:
			if v.Len() >= s.Runs/2 {
				t.Errorf("%s holds %d entries after %d runs", path, v.Len(), s.Runs)
			}
			if v.Kind() == reflect.Slice {
				for i := 0; i < v.Len(); i++ {
					walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
				}
				return
			}
			for it := v.MapRange(); it.Next(); {
				walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value())
			}
		}
	}
	walk("Summary", reflect.ValueOf(s))
}

// TestCampaignZeroRuns checks the empty-campaign edge.
func TestCampaignZeroRuns(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 0}
	s := c.Execute()
	if s.Runs != 0 || s.DetectedCount != 0 || s.FailReasons == nil {
		t.Fatalf("zero-run summary = %+v", s)
	}
}

func TestProportionCI(t *testing.T) {
	// Reference values computed independently from the Wilson score
	// interval with z=1.96; wantCI is the larger half-width
	// max(p-lower, upper-p).
	tests := []struct {
		k, n     int
		wantRate float64
		wantCI   float64
	}{
		{90, 100, 0.9, 0.074367304367665},
		{50, 100, 0.5, 0.096170171409853},
		{450, 500, 0.9, 0.029422508200003},
		{1, 10, 0.1, 0.304156385497572},
		// The boundary cases that motivated Wilson over the normal
		// approximation: at k=0 and k=n the normal CI collapses to
		// zero width, Wilson does not.
		{100, 100, 1.0, 0.036994807476002},
		{0, 100, 0.0, 0.036994807476002},
	}
	for _, tt := range tests {
		rate, ci := proportion(tt.k, tt.n)
		if math.Abs(rate-tt.wantRate) > 1e-12 {
			t.Errorf("proportion(%d,%d) rate = %v, want %v", tt.k, tt.n, rate, tt.wantRate)
		}
		if math.Abs(ci-tt.wantCI) > 1e-9 {
			t.Errorf("proportion(%d,%d) ci = %v, want %v", tt.k, tt.n, ci, tt.wantCI)
		}
	}
	if r, c := proportion(0, 0); r != 0 || c != 0 {
		t.Fatal("empty proportion not zero")
	}
}

func TestClassifyFailure(t *testing.T) {
	tests := []struct {
		r    Result
		want string
	}{
		{Result{FailReason: "x", Cause: hv.CausePathCorrupted}, "recovery routine not invoked"},
		{Result{PrivVMFailed: true}, "PrivVM failed"},
		{Result{FailReason: "x", Cause: hv.CauseReusedHeapObject}, "corrupted data structure"},
		{Result{FailReason: "x", Cause: hv.CauseAssertion}, "post-recovery assertion"},
		{Result{FailReason: "x", Cause: hv.CauseHang}, "post-recovery hang"},
		{Result{FailReason: "x", Cause: hv.CauseOther}, "other hypervisor failure"},
		{Result{NewVMOK: false}, "new VM creation failed"},
		{Result{NewVMOK: true, AppVMsFailed: 2}, "multiple AppVMs lost"},
		{Result{NewVMOK: true, AppVMsFailed: 1}, "AppVM lost (1AppVM criterion)"},
	}
	for _, tt := range tests {
		if got := classifyFailure(tt.r); got != tt.want {
			t.Errorf("classifyFailure(%+v) = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestParseSetupRoundTrip(t *testing.T) {
	for s := OneAppVM; s <= ThreeAppVM; s++ {
		for _, name := range []string{s.String(), strings.ToLower(s.String()), strings.ToUpper(s.String())} {
			if got, err := ParseSetup(name); err != nil || got != s {
				t.Errorf("ParseSetup(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, name := range []string{"", "5appvm", "setup(1)"} {
		if got, err := ParseSetup(name); err == nil {
			t.Errorf("ParseSetup(%q) = %v, want an error", name, got)
		}
	}
}

func TestOverheadConfigStrings(t *testing.T) {
	if OverheadBlk.String() != "BlkBench" || Overhead3AppVM.String() != "3AppVM" ||
		OverheadConfig(9).String() != "overhead(9)" {
		t.Fatal("overhead config names wrong")
	}
	if len(AllOverheadConfigs()) != 4 {
		t.Fatal("Figure 3 has 4 configurations")
	}
}

func TestOverheadLoggingDominates(t *testing.T) {
	// §VII-C: most of the overhead is due to logging — NiLiHype* must be
	// far below NiLiHype, and all overheads must be positive.
	p := MeasureOverhead(OverheadBlk, 500*time.Millisecond, 1)
	if p.WithLogging() <= 0 {
		t.Fatalf("overhead with logging = %v", p.WithLogging())
	}
	if p.WithoutLogging() >= p.WithLogging()/3 {
		t.Fatalf("logging does not dominate: with=%v without=%v",
			p.WithLogging(), p.WithoutLogging())
	}
	if p.WithoutLogging() < 0 {
		t.Fatalf("NiLiHype* overhead negative: %v", p.WithoutLogging())
	}
}

func TestMeasureLatencyMatchesPaper(t *testing.T) {
	nili, err := MeasureLatency(core.Microreset, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nili.Total != 22*time.Millisecond {
		t.Fatalf("NiLiHype latency = %v, want 22ms (Table III)", nili.Total)
	}
	// The sender-observed interruption brackets the latency (±1 send
	// period).
	if d := nili.ServiceInterruption - nili.Total; d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("interruption %v vs latency %v", nili.ServiceInterruption, nili.Total)
	}
	re, err := MeasureLatency(core.Microreboot, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if re.Total != 713*time.Millisecond {
		t.Fatalf("ReHype latency = %v, want 713ms (Table II)", re.Total)
	}
	if ratio := float64(re.Total) / float64(nili.Total); ratio < 30 {
		t.Fatalf("ratio %.1f, want >30 (§VII-B)", ratio)
	}
}

func TestSweepLatencyScalesLinearly(t *testing.T) {
	res, err := SweepLatency(core.Microreset, []int{2048, 8192}, 3)
	if err != nil {
		t.Fatal(err)
	}
	growth := res[1].Total - res[0].Total
	// The scan grows by 3/4 of 21ms between 2 and 8 GB.
	want := 21 * time.Millisecond * 3 / 4
	if growth < want-2*time.Millisecond || growth > want+2*time.Millisecond {
		t.Fatalf("latency growth = %v, want ~%v", growth, want)
	}
}

// TestPaperCalibration is the headline regression test: the reproduction
// must stay within tolerance of the paper's published results. It runs
// moderate-size campaigns (several CPU-minutes); skipped with -short.
func TestPaperCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration campaigns are slow; run without -short")
	}
	const runs = 250
	ladderTargets := []struct {
		rung      int
		want      float64
		tolerance float64
	}{
		{0, 0.0, 0.001}, // Basic never succeeds (mechanistic)
		{1, 0.16, 0.06}, // + Clear IRQ count
		{2, 0.518, 0.07},
		{3, 0.822, 0.06},
		{4, 0.950, 0.04},
		{5, 0.961, 0.035},
		{6, 0.965, 0.03},
	}
	rungs := core.Ladder()
	for _, tt := range ladderTargets {
		c := Campaign{
			Base: RunConfig{
				Setup:         OneAppVM,
				Fault:         inject.Failstop,
				Workload:      guest.UnixBench,
				Logging:       true,
				Recovery:      core.Config{Mechanism: core.Microreset, Enhancements: rungs[tt.rung].Enh},
				BenchDuration: 2 * time.Second,
			},
			Runs: runs,
		}
		rate, _ := c.Execute().SuccessRate()
		if math.Abs(rate-tt.want) > tt.tolerance {
			t.Errorf("Table I rung %q: rate %.3f, want %.3f ± %.3f",
				rungs[tt.rung].Label, rate, tt.want, tt.tolerance)
		}
	}
}

func TestHVMRunRecovers(t *testing.T) {
	cfg := fastCfg(inject.Failstop, core.Microreset)
	cfg.Setup = OneAppVM
	cfg.HVM = true
	r := Run(cfg)
	if r.Outcome != Detected {
		t.Fatalf("outcome = %v (%s)", r.Outcome, r.FailReason)
	}
	if !r.Success {
		t.Fatalf("HVM run failed: %s vms=%v", r.FailReason, r.VMs)
	}
}

func TestHVMvsPVRecoveryRatesSimilar(t *testing.T) {
	// §VI-A: HVM injection results are very similar to PV.
	if testing.Short() {
		t.Skip("campaign comparison is slow; run without -short")
	}
	rate := func(hvm bool) float64 {
		c := Campaign{
			Base: RunConfig{
				Setup: OneAppVM, Fault: inject.Failstop, Workload: guest.UnixBench,
				Logging: true, HVM: hvm, Recovery: core.DefaultConfig(),
				BenchDuration: 2 * time.Second,
			},
			Runs: 250,
		}
		r, _ := c.Execute().SuccessRate()
		return r
	}
	pv, hvm := rate(false), rate(true)
	if diff := math.Abs(pv - hvm); diff > 0.06 {
		t.Fatalf("PV %.3f vs HVM %.3f differ by %.3f (> 6 points)", pv, hvm, diff)
	}
}

// TestPostRecoveryInvariantSoak runs many independent faults and audits
// the quiescent-system invariants after every successful recovery: no
// held locks, zero interrupt nesting, consistent scheduler metadata and
// page-frame descriptors, and live recurring timers.
func TestPostRecoveryInvariantSoak(t *testing.T) {
	faults := []inject.FaultType{inject.Failstop, inject.Register, inject.Code}
	checked := 0
	for _, ft := range faults {
		for seed := uint64(1); seed <= 12; seed++ {
			cfg := fastCfg(ft, core.Microreset)
			cfg.Seed = seed
			img, err := buildImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r := img.run(cfg); !r.Detected || !r.Recovered || r.FailReason != "" {
				continue
			}
			checked++
			if v := auditInvariants(img.h); len(v) != 0 {
				t.Fatalf("%v seed %d: invariant violations after recovery: %v", ft, seed, v)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d successful recoveries audited", checked)
	}
}

// TestRunTraceTimeline: a run whose recovery fails carries the
// flight-recorder tail, and the tail still holds the recovery story —
// the failstop panic and the per-CPU discards (seed 19 trips a
// post-recovery assertion under this configuration).
func TestRunTraceTimeline(t *testing.T) {
	cfg := fastCfg(inject.Failstop, core.Microreset)
	cfg.Seed = 19
	r := Run(cfg)
	if !r.WentWrong() || len(r.Flight) == 0 {
		t.Fatalf("seed %d: wrong=%v with %d flight lines, want a wrong run with a tail", cfg.Seed, r.WentWrong(), len(r.Flight))
	}
	var hasPanic, hasDiscard bool
	for _, line := range r.Flight {
		hasPanic = hasPanic || strings.Contains(line, "panic")
		hasDiscard = hasDiscard || strings.Contains(line, "discard")
	}
	if !hasPanic || !hasDiscard {
		t.Fatalf("timeline missing recovery events: %v", r.Flight)
	}
}

func TestSummaryFormatWithFailures(t *testing.T) {
	s := Summary{
		Config: RunConfig{
			Setup: ThreeAppVM, Fault: inject.Register,
			Recovery: core.Config{Mechanism: core.Microreset},
		},
		Runs: 100, NonManifested: 70, SDCCount: 5, DetectedCount: 25,
		RecoverySuccess: 20, NoVMFCount: 18,
		FailReasons: map[string]int{
			"post-recovery hang":       3,
			"corrupted data structure": 2,
		},
	}
	out := s.Format()
	for _, want := range []string{"NiLiHype", "Register", "80.0%", "failure causes",
		"post-recovery hang", "corrupted data structure", "70.0% non-manifested"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

// adversarialCfg is the fully loaded configuration: audit gate on, burst
// faults, and the fault-during-recovery trigger.
func adversarialCfg() RunConfig {
	base := fastCfg(inject.Code, core.Microreset)
	base.Recovery = core.HybridConfig()
	base.Recovery.Escalation.Audit = true
	base.BurstWindow = 100 * time.Millisecond
	base.BurstFault = inject.Register
	base.FaultDuringRecovery = true
	return base
}

// TestSummaryMergeShardOrderInvariant: sharded campaigns fold their
// per-shard Summaries with Merge; the result — including the latency and
// per-phase histograms — must be bit-identical regardless of the order
// the shards arrive in. Every Summary field must therefore merge
// commutatively and associatively.
func TestSummaryMergeShardOrderInvariant(t *testing.T) {
	base := adversarialCfg()
	shards := make([]Summary, 4)
	for i := range shards {
		c := Campaign{Base: base, Runs: 3, SeedBase: uint64(i * 3), Parallelism: 2}
		shards[i] = c.Execute()
	}
	mergeAll := func(order ...int) Summary {
		s := Summary{Config: base,
			FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
		for _, i := range order {
			s.Merge(shards[i])
		}
		return s
	}
	ref := mergeAll(0, 1, 2, 3)
	if ref.Runs != 12 {
		t.Fatalf("merged Runs = %d, want 12", ref.Runs)
	}
	if ref.LatencyHist.Count == 0 || len(ref.PhaseHists) == 0 {
		t.Fatalf("merged summary has empty histograms: latency n=%d phases=%d",
			ref.LatencyHist.Count, len(ref.PhaseHists))
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := mergeAll(order...); !reflect.DeepEqual(ref, got) {
			t.Fatalf("shard order %v produced a different summary:\n ref: %+v\n got: %+v",
				order, ref, got)
		}
	}
}

// TestCampaignAuditAdversarialBitIdentity: the audit walks and adversarial
// triggers must not perturb determinism — the same campaign produces a
// byte-identical Summary at parallelism 1, 4, and 8.
func TestCampaignAuditAdversarialBitIdentity(t *testing.T) {
	base := adversarialCfg()
	var ref Summary
	for i, par := range []int{1, 4, 8} {
		c := Campaign{Base: base, Runs: 8, Parallelism: par}
		s := c.Execute()
		if i == 0 {
			ref = s
			continue
		}
		if !reflect.DeepEqual(ref, s) {
			t.Fatalf("summary differs at parallelism %d:\n par=1: %+v\n par=%d: %+v", par, ref, par, s)
		}
	}
}

// TestCampaignSurfacesAdversarialOutcomes: over enough adversarial runs,
// the burst and during-recovery triggers fire and the counters reach the
// Summary.
func TestCampaignSurfacesAdversarialOutcomes(t *testing.T) {
	c := Campaign{Base: adversarialCfg(), Runs: 12, Parallelism: 4}
	s := c.Execute()
	if s.BurstFiredRuns == 0 {
		t.Fatal("no run recorded a burst fault in 12 adversarial runs")
	}
	out := s.Format()
	if !strings.Contains(out, "adversarial: burst fired") {
		t.Fatalf("Format missing adversarial line:\n%s", out)
	}
}

// TestAuditOnNeverWorseThanOff is the miniature of the hyperrecover audit
// comparison: with everything else identical (same seeds, same fault mix),
// enabling the audit gate must not lower the recovery success count, and
// audit-off campaigns must report zero audit activity.
func TestAuditOnNeverWorseThanOff(t *testing.T) {
	run := func(auditOn bool) Summary {
		base := fastCfg(inject.Code, core.Microreset)
		base.Recovery = core.HybridConfig()
		base.Recovery.Escalation.Audit = auditOn
		c := Campaign{Base: base, Runs: 25, Parallelism: 4}
		return c.Execute()
	}
	on, off := run(true), run(false)
	if on.Runs != off.Runs || on.DetectedCount == 0 {
		t.Fatalf("arms diverged: on=%d/%d off=%d/%d detected",
			on.DetectedCount, on.Runs, off.DetectedCount, off.Runs)
	}
	if on.RecoverySuccess < off.RecoverySuccess {
		t.Fatalf("audit-on success %d below audit-off %d", on.RecoverySuccess, off.RecoverySuccess)
	}
	if off.AuditViolations != 0 || off.AuditRepaired != 0 || off.SacrificedVMs != 0 {
		t.Fatalf("audit-off campaign reports audit activity: %d/%d/%d",
			off.AuditViolations, off.AuditRepaired, off.SacrificedVMs)
	}
}

func TestAuditInvariantsReportsViolations(t *testing.T) {
	// Build a deliberately damaged hypervisor and verify every audit
	// branch reports.
	clk := simclock.New()
	h, err := hv.New(clk, hv.Config{
		Machine:        hw.Config{CPUs: 2, MemoryMB: 256, BlockSvc: time.Millisecond, NICLat: time.Millisecond},
		HeapFrames:     2048,
		LoggingEnabled: true, RecoveryPrep: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if got := auditInvariants(h); len(got) != 0 {
		t.Fatalf("clean system reported violations: %v", got)
	}
	// Damage: held lock, irq count, sched inconsistency, pf descriptor,
	// inactive recurring timer, wedged CPU.
	h.Statics.Console.TryAcquire(0)
	h.PerCPU(1).LocalIRQCount = 2
	d, _ := h.Domain(0)
	d.VCPUs[0].RunningOn = sched.NoCPU
	h.Frames.Frame(100).Type = mm.FramePageTable
	h.Frames.Frame(100).UseCount = 1
	h.Timers.PopDue(0, clk.Now()+time.Hour) // pops recurring without rearm
	got := auditInvariants(h)
	if len(got) < 5 {
		t.Fatalf("violations = %v, want >= 5 classes", got)
	}
}
