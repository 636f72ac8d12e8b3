package campaign

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/hv"
	"nilihype/internal/inject"
)

// TestRunHorizonCoversLargeMemoryMicroreboot is the regression for the
// fixed BenchDuration+2s horizon: with a microreboot at large memory the
// post-recovery BlkBench check could be cut off mid-run, misclassifying a
// successful recovery as "new VM creation failed". The derived horizon
// must cover the worst-case chain (latest injection + detection + recovery
// + new-VM check) that the old formula did not.
func TestRunHorizonCoversLargeMemoryMicroreboot(t *testing.T) {
	rc := RunConfig{
		Setup:         ThreeAppVM,
		BenchDuration: 6 * time.Second,
		MemoryMB:      64 * 1024,
		Recovery:      core.Config{Mechanism: core.Microreboot, Enhancements: core.AllEnhancements},
	}
	frames := rc.MemoryMB * (1024 * 1024 / 4096)
	// Minimum chain for the BlkBench verdict to land: injection as late
	// as B/2, detection, worst-case recovery, VM creation delay, and the
	// BlkBench run itself.
	required := rc.BenchDuration/2 + detectionSlack +
		rc.Recovery.WorstCaseLatency(frames) + newVMDelay + rc.BenchDuration/3
	old := rc.BenchDuration + legacyHorizonPad
	if old >= required {
		t.Fatalf("old horizon %v already covers the chain %v — regression scenario lost", old, required)
	}
	if h := runHorizon(rc); h < required {
		t.Fatalf("runHorizon = %v, below required chain %v", h, required)
	}
}

// TestRunHorizonKeepsLegacyFloor locks the floor: short-recovery
// configurations keep the exact historical BenchDuration+2s horizon, so
// every previously published timeline is unchanged.
func TestRunHorizonKeepsLegacyFloor(t *testing.T) {
	for _, rc := range []RunConfig{
		{}, // all defaults: 3s bench, 1 GB, microreset
		fastCfg(inject.Failstop, core.Microreset),
		fastCfg(inject.Failstop, core.Microreboot),
	} {
		want := rc.withDefaults().BenchDuration + legacyHorizonPad
		if h := runHorizon(rc); h != want {
			t.Fatalf("runHorizon(%+v) = %v, want legacy floor %v", rc.withDefaults(), h, want)
		}
	}
	// The hybrid ladder at default sizes needs more than the floor: two
	// detections plus both rungs plus a grace window do not fit in 2s of
	// pad alongside the post-recovery check.
	hybrid := RunConfig{Recovery: core.HybridConfig()}
	if h := runHorizon(hybrid); h <= hybrid.withDefaults().BenchDuration+legacyHorizonPad {
		t.Fatalf("hybrid horizon %v not extended past the floor", h)
	}
}

// TestLongBenchMicrorebootRun is the end-to-end half of the horizon
// regression: a BenchDuration >= 6s run under microreboot completes its
// post-recovery checks instead of being cut off by the horizon.
func TestLongBenchMicrorebootRun(t *testing.T) {
	rc := fastCfg(inject.Failstop, core.Microreboot)
	rc.BenchDuration = 6 * time.Second
	r := Run(rc)
	if !r.Detected || !r.Recovered || r.FailReason != "" {
		t.Fatalf("detected=%v recovered=%v fail=%q", r.Detected, r.Recovered, r.FailReason)
	}
	if !r.NewVMOK || !r.Success {
		t.Fatalf("newVMOK=%v success=%v — post-recovery check cut off?", r.NewVMOK, r.Success)
	}
}

// TestClassifyFailureRootCauseWins pins the bucket ordering: a terminal
// hypervisor failure's cause is the root cause, and consequence flags
// (PrivVM down, new VM creation failed) must not shadow it.
func TestClassifyFailureRootCauseWins(t *testing.T) {
	tests := []struct {
		name string
		r    Result
		want string
	}{
		{"corruption beats PrivVM", Result{
			FailReason: "terminal", Cause: hv.CauseRebuiltStateReuse, PrivVMFailed: true},
			"corrupted data structure"},
		{"assert beats PrivVM", Result{
			FailReason: "terminal", Cause: hv.CauseAssertion, PrivVMFailed: true},
			"post-recovery assertion"},
		{"hang beats PrivVM and NewVM", Result{
			FailReason: "terminal", Cause: hv.CauseHang, PrivVMFailed: true},
			"post-recovery hang"},
		{"other hv failure beats NewVM", Result{
			FailReason: "terminal", Cause: hv.CauseOther, NewVMOK: false},
			"other hypervisor failure"},
		{"not-invoked beats everything", Result{
			FailReason: "terminal", Cause: hv.CausePathCorrupted, PrivVMFailed: true},
			"recovery routine not invoked"},
		{"PrivVM beats NewVM when no terminal failure", Result{
			Cause: hv.CauseAssertion, PrivVMFailed: true, NewVMOK: false},
			"PrivVM failed"},
	}
	for _, tt := range tests {
		if got := classifyFailure(tt.r); got != tt.want {
			t.Errorf("%s: classifyFailure = %q, want %q", tt.name, got, tt.want)
		}
	}
}

// TestMeasureLatencyCfgRetrySeedCap: a configuration that can never
// recover must exhaust the seed-bumping retry and report the cap, wrapping
// ErrLatencyRunFailed for callers that match on it.
func TestMeasureLatencyCfgRetrySeedCap(t *testing.T) {
	// A microreset without the IRQ-count enhancement always fails:
	// detection happens in an exception/NMI context, so the stale
	// local_irq_count trips the first post-resume assertion (§V-A). The
	// mask must stay nonzero — Enhancements == 0 is auto-upgraded.
	cfg := core.Config{Mechanism: core.Microreset,
		Enhancements: core.AllEnhancements &^ core.EnhClearIRQCount}
	_, err := MeasureLatencyCfg(cfg, 512, 5)
	if err == nil {
		t.Fatal("unrecoverable configuration reported success")
	}
	if !errors.Is(err, ErrLatencyRunFailed) {
		t.Fatalf("err = %v, want ErrLatencyRunFailed in the chain", err)
	}
	if !strings.Contains(err.Error(), "8 seeds") || !strings.Contains(err.Error(), "starting at 5") {
		t.Fatalf("err = %v, want the retry cap and seed base reported", err)
	}
}

func TestSummaryMergeAccumulates(t *testing.T) {
	a := Summary{
		Runs: 5, DetectedCount: 4, RecoverySuccess: 3, NonManifested: 1,
		EscalatedRuns: 1, SuccessLatency: 60 * time.Millisecond,
		SuccessByAttempt: map[int]int{1: 2, 2: 1},
		FailReasons:      map[string]int{"post-recovery hang": 1},
	}
	b := Summary{
		Runs: 3, DetectedCount: 3, RecoverySuccess: 3, SDCCount: 0,
		EscalatedRuns: 2, SuccessLatency: 40 * time.Millisecond,
		SuccessByAttempt: map[int]int{2: 3},
		FailReasons:      map[string]int{},
	}
	a.Merge(b)
	if a.Runs != 8 || a.DetectedCount != 7 || a.RecoverySuccess != 6 || a.EscalatedRuns != 3 {
		t.Fatalf("counters wrong after merge: %+v", a)
	}
	if a.SuccessLatency != 100*time.Millisecond || a.MeanSuccessLatency() != 100*time.Millisecond/6 {
		t.Fatalf("latency wrong after merge: %v", a.SuccessLatency)
	}
	if !reflect.DeepEqual(a.SuccessByAttempt, map[int]int{1: 2, 2: 4}) {
		t.Fatalf("attempt histogram wrong: %v", a.SuccessByAttempt)
	}
}

// TestHybridCampaignDeterministicAcrossParallelism is the escalation
// determinism regression: a hybrid campaign's Summary — including the
// escalation counters — must be bit-identical at any parallelism level.
func TestHybridCampaignDeterministicAcrossParallelism(t *testing.T) {
	base := fastCfg(inject.Code, core.Microreset)
	base.Recovery = core.HybridConfig()
	var summaries []Summary
	for _, par := range []int{1, 4, 8} {
		c := Campaign{Base: base, Runs: 8, Parallelism: par}
		summaries = append(summaries, c.Execute())
	}
	for i := 1; i < len(summaries); i++ {
		if !reflect.DeepEqual(summaries[0], summaries[i]) {
			t.Fatalf("hybrid summary differs across parallelism:\n par=1: %+v\n other: %+v",
				summaries[0], summaries[i])
		}
	}
}

func TestMixedFaultCampaignMergesShards(t *testing.T) {
	base := fastCfg(inject.Failstop, core.Microreset)
	base.Recovery = core.HybridConfig()
	faults := []inject.FaultType{inject.Failstop, inject.Register}
	s := MixedFaultCampaign(Campaign{Base: base, Runs: 3, Parallelism: 2}, faults)
	if s.Runs != len(faults)*3 {
		t.Fatalf("Runs = %d, want %d", s.Runs, len(faults)*3)
	}
	if !reflect.DeepEqual(s.Config, base) {
		t.Fatalf("Config not restored to the base: %+v", s.Config)
	}
	if s.NonManifested+s.SDCCount+s.DetectedCount != s.Runs {
		t.Fatalf("outcome counts do not partition the runs: %+v", s)
	}
	total := 0
	for _, n := range s.SuccessByAttempt {
		total += n
	}
	if total != s.RecoverySuccess {
		t.Fatalf("attempt histogram sums to %d, want RecoverySuccess %d", total, s.RecoverySuccess)
	}
}
