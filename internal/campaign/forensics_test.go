package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/hv"
	"nilihype/internal/inject"
)

func TestRootCauseFromCause(t *testing.T) {
	for _, tt := range []struct {
		cause hv.Cause
		want  string
	}{
		{hv.CausePathCorrupted, RootCausePathCorrupted},
		{hv.CausePrivVMLost, RootCausePrivVMLost},
		{hv.CauseReusedHeapObject, RootCauseReusedHeapObject},
		{hv.CauseRebuiltStateReuse, RootCauseStaticStateReuse},
		{hv.CausePFDescriptorHang, RootCausePFDescriptorHang},
		{hv.CauseDeviceRoute, RootCauseDeviceRouteLoss},
		{hv.CauseAssertion, RootCausePostRecoveryAssertion},
		{hv.CauseHang, RootCausePostRecoveryHang},
		{hv.CauseOther, RootCauseOtherHypervisorFailure},
	} {
		r := Result{Detected: true, FailReason: "terminal", Cause: tt.cause}
		if got := classifyRootCause(r); got != tt.want {
			t.Errorf("terminal cause %d: root cause %q, want %q", tt.cause, got, tt.want)
		}
	}
	// No terminal failure: the outcome fields decide.
	if got := classifyRootCause(Result{Detected: true}); got != RootCauseWorkloadCollateral {
		t.Errorf("failed run without a terminal cause: root cause %q, want %q", got, RootCauseWorkloadCollateral)
	}
}

// TestEveryCauseHasAView: each failure cause has a row in both failure
// tables, so no recorded cause can print as an empty bucket or label.
func TestEveryCauseHasAView(t *testing.T) {
	for c := hv.CauseNone + 1; c <= hv.CauseOther; c++ {
		if int(c) >= len(causeViews) || causeViews[c].bucket == "" || causeViews[c].label == "" {
			t.Errorf("cause %d has no row in causeViews", c)
		}
	}
}

// TestRebuiltStateWalkIsStaticStateReuse: in the postmortem campaign's
// shape (3AppVM, code faults, microreset, 2 s, logging on), seed 164's
// retried call walks a corrupted heap free list and seed 374's a corrupted
// domain list after resume. Both are state a reboot rebuilds and
// microreset reuses, so both tables must name it as such.
func TestRebuiltStateWalkIsStaticStateReuse(t *testing.T) {
	for _, seed := range []uint64{164, 374} {
		r := Run(RunConfig{Seed: seed, Setup: ThreeAppVM, Fault: inject.Code, BenchDuration: 2 * time.Second,
			Logging: true, Recovery: core.Config{Mechanism: core.Microreset, Enhancements: core.AllEnhancements}})
		if r.RootCause != RootCauseStaticStateReuse || classifyFailure(r) != "corrupted data structure" {
			t.Errorf("seed %d: root cause %q, §VII-A %q, want %q and %q (reason %q)", seed, r.RootCause,
				classifyFailure(r), RootCauseStaticStateReuse, "corrupted data structure", r.FailReason)
		}
	}
}

func TestCleanRunHasNoRootCause(t *testing.T) {
	r := Run(fastCfg(inject.Failstop, core.Microreset))
	if !r.Success {
		t.Fatalf("reference seed no longer succeeds: %+v", r)
	}
	if r.RootCause != "" || r.Journal != nil || r.Windows != nil {
		t.Errorf("clean run carries forensics: cause=%q journal=%d windows=%d",
			r.RootCause, len(r.Journal), len(r.Windows))
	}
	if _, ok := AssembleBundle(r); ok {
		t.Error("clean run assembled a bundle")
	}
}

// TestRootCauseAttribution pins one wrong-run seed per fault class
// (discovered by scanning; re-hunt if the fault distributions drift) and
// asserts the classifier names the class-appropriate root cause.
func TestRootCauseAttribution(t *testing.T) {
	for _, tt := range []struct {
		name string
		rc   RunConfig
		want string
	}{
		{
			// Failstop seed 19 under microreset: the recovery resumes but
			// a post-recovery assertion trips.
			name: "failstop",
			rc: func() RunConfig {
				rc := fastCfg(inject.Failstop, core.Microreset)
				rc.Seed = 19
				return rc
			}(),
			want: RootCausePostRecoveryAssertion,
		},
		{
			// PrivVM crash under the hybrid ladder: no rung restores
			// management service.
			name: "privvm-crash",
			rc: func() RunConfig {
				rc := fastCfg(inject.PrivVMCrash, core.Microreset)
				rc.Recovery = core.HybridConfig()
				rc.Seed = 1
				return rc
			}(),
			want: RootCausePrivVMLost,
		},
		{
			// IO-APIC corruption under plain microreset (no
			// reprogram-from-boot enhancement in the ladder): routes stay
			// lost.
			name: "ioapic",
			rc: func() RunConfig {
				rc := fastCfg(inject.DeviceIOAPIC, core.Microreset)
				rc.Seed = 3
				return rc
			}(),
			want: RootCauseDeviceRouteLoss,
		},
	} {
		r := Run(tt.rc)
		if r.RootCause != tt.want {
			t.Errorf("%s: root cause = %q, want %q (reason %q)", tt.name, r.RootCause, tt.want, r.FailReason)
		}
		if len(r.Journal) == 0 {
			t.Errorf("%s: wrong run has no journal", tt.name)
		}
		last := r.Journal[len(r.Journal)-1]
		if last.Kind != "disposition" {
			t.Errorf("%s: journal does not end in a disposition: %v", tt.name, last)
		}

		b, ok := AssembleBundle(r)
		if !ok {
			t.Fatalf("%s: wrong run assembled no bundle", tt.name)
		}
		if b.RootCause != tt.want || b.Seed != r.Seed || len(b.Journal) != len(r.Journal) {
			t.Errorf("%s: bundle mismatch: %+v", tt.name, b)
		}
		// Bundles must survive JSON (the postmortem tool's export path).
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("%s: bundle not marshalable: %v", tt.name, err)
		}
		var back Bundle
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: bundle not unmarshalable: %v", tt.name, err)
		}
		if back.RootCause != b.RootCause || len(back.Journal) != len(b.Journal) {
			t.Errorf("%s: bundle JSON round-trip lost data", tt.name)
		}
		if !strings.Contains(b.Format(), "root cause: "+tt.want) {
			t.Errorf("%s: formatted bundle missing root cause", tt.name)
		}
	}
}

// TestDegradedRunCapturesForensics is the degraded-verdict capture
// contract: a run that recovers only by sacrificing an AppVM — neither
// failed nor escalated — still carries the flight tail, journal, and a
// degraded-service root cause. Seed 595 is a known degraded-verdict run
// (same hunt region as TestCorrelatedReinjectionIsDeterministic).
func TestDegradedRunCapturesForensics(t *testing.T) {
	var r Result
	found := false
	for seed := uint64(560); seed <= 700 && !found; seed++ {
		rc := adversarialCfg()
		rc.BurstWindow = 0
		rc.BurstFault = 0
		rc.FaultDuringRecovery = false
		rc.CorrelatedReinjection = true
		rc.Seed = seed
		if r = Run(rc); len(r.SacrificedVMs) > 0 && r.Success && !r.Escalated {
			found = true
		}
	}
	if !found {
		t.Skip("no successful unescalated degraded-verdict run in the hunt region")
	}
	if len(r.Flight) == 0 {
		t.Error("degraded run captured no flight tail")
	}
	if len(r.Journal) == 0 {
		t.Error("degraded run captured no journal")
	}
	if r.RootCause != RootCauseDegradedService {
		t.Errorf("degraded run root cause = %q, want %q", r.RootCause, RootCauseDegradedService)
	}
}

// TestCampaignRootCauseDeterminism: the Summary's root-cause breakdowns —
// RootCauses and the per-class RootCauses — are bit-identical across
// parallelism.
func TestCampaignRootCauseDeterminism(t *testing.T) {
	mk := func(par int) Summary {
		rc := fastCfg(inject.DeviceIOAPIC, core.Microreset)
		c := Campaign{Base: rc, Runs: 12, SeedBase: 0, Parallelism: par}
		return c.Execute()
	}
	a, b := mk(1), mk(4)
	if !reflect.DeepEqual(a.RootCauses, b.RootCauses) {
		t.Fatalf("RootCauses differ: %v vs %v", a.RootCauses, b.RootCauses)
	}
	if len(a.RootCauses) == 0 {
		t.Fatal("ioapic campaign produced no root causes (distribution drift?)")
	}

	// Root-cause totals reconcile: Summary-level counts equal the sum of
	// the per-class breakdowns.
	classTotals := map[string]int{}
	for _, fc := range a.FaultClasses {
		for k, v := range fc.RootCauses {
			classTotals[k] += v
		}
	}
	if !reflect.DeepEqual(classTotals, a.RootCauses) {
		t.Fatalf("root-cause matrix does not reconcile: classes %v vs total %v", classTotals, a.RootCauses)
	}

	matrix := a.FormatRootCauseMatrix()
	if !strings.Contains(matrix, "root cause") || !strings.Contains(matrix, "ioapic") {
		t.Errorf("unexpected matrix:\n%s", matrix)
	}
}
