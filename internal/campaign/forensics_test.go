package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nilihype/internal/core"
	"nilihype/internal/inject"
)

func TestCauseFromReason(t *testing.T) {
	for _, tt := range []struct{ reason, want string }{
		{"", ""},
		{"recovery routine failed to be invoked (corrupted hypervisor state)", RootCausePathCorrupted},
		{"PrivVM restart failed: boot image corrupted", RootCausePrivVMLost},
		{"mgmt watchdog: no PrivVM management-call completions", RootCausePrivVMLost},
		{"post-recovery failure: reused heap object corrupted", RootCauseReusedHeapObject},
		{"corrupted static state reused by microreset", RootCauseStaticStateReuse},
		{"post-recovery hang: inconsistent page frame descriptors hit by mm path", RootCausePFDescriptorHang},
		{"irq-delivery: IO-APIC redirection table diverges from software copy", RootCauseDeviceRouteLoss},
		{"ASSERT(frame refcount) failed", RootCausePostRecoveryAssertion},
		{"cpu0 spinning on lock", RootCausePostRecoveryHang},
		{"something unprecedented", RootCauseOtherHypervisorFailure},
	} {
		if got := causeFromReason(tt.reason); got != tt.want {
			t.Errorf("causeFromReason(%q) = %q, want %q", tt.reason, got, tt.want)
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
