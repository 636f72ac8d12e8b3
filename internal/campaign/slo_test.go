package campaign

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/inject"
	"nilihype/internal/traffic"
)

// trafficCfg arms a small exactly-sized population against a fast campaign
// config: 50k users (50 cohorts) against the 2s bench window.
func trafficCfg(fault inject.FaultType, mech core.Mechanism) RunConfig {
	rc := fastCfg(fault, mech)
	rc.Traffic = traffic.Config{Users: 50_000}
	return rc
}

func TestTrafficOffLeavesSLONil(t *testing.T) {
	r := Run(fastCfg(inject.Failstop, core.Microreset))
	if r.SLO != nil {
		t.Fatalf("traffic-off run carries an SLO: %+v", *r.SLO)
	}
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 2}
	s := c.Execute()
	if s.SLORuns != 0 || s.SLO != (traffic.SLO{}) {
		t.Fatalf("traffic-off summary carries SLO state: runs=%d slo=%+v", s.SLORuns, s.SLO)
	}
}

// TestTrafficRunScoresRecoveryWindow: a detected, recovered failstop run
// must carry a populated SLO whose outage matches the recovery story.
func TestTrafficRunScoresRecoveryWindow(t *testing.T) {
	r := Run(trafficCfg(inject.Failstop, core.Microreset))
	if !r.Detected || !r.Success {
		t.Fatalf("detected=%v success=%v", r.Detected, r.Success)
	}
	slo := r.SLO
	if slo == nil {
		t.Fatal("traffic-on run carries no SLO")
	}
	if slo.Users != 50_000 {
		t.Fatalf("Users = %d, want 50000", slo.Users)
	}
	// 50k users × 2s bench / 1s period — open-loop arrivals are exact.
	if slo.Offered != 100_000 {
		t.Fatalf("Offered = %d, want 100000", slo.Offered)
	}
	if slo.Offered != slo.Completed+slo.TimedOut+slo.Failed {
		t.Fatalf("conservation violated: %d != %d+%d+%d",
			slo.Offered, slo.Completed, slo.TimedOut, slo.Failed)
	}
	if slo.Outages == 0 || slo.OutageUs == 0 || slo.DegradedUserUs == 0 {
		t.Fatalf("recovered run shows no outage: %+v", *slo)
	}
	if slo.DegradedUserUs != slo.OutageUs*slo.Users {
		t.Fatalf("DegradedUserUs = %d, want OutageUs×Users = %d", slo.DegradedUserUs, slo.OutageUs*slo.Users)
	}
}

// TestSLODifferentiatesMechanisms is the point of the whole layer: the
// same fault recovered by microreset (~ms outage) vs microreboot (~480ms
// with all enhancements on) must show proportionally different
// user-visible damage — and against a 300ms deadline, only the slow
// mechanism pushes users past their timeout.
func TestSLODifferentiatesMechanisms(t *testing.T) {
	var reset, reboot traffic.SLO
	for seed := uint64(1); seed <= 5; seed++ {
		rc := trafficCfg(inject.Failstop, core.Microreset)
		rc.Traffic.Timeout = 300 * time.Millisecond
		rc.Seed = seed
		r := Run(rc)
		if r.SLO != nil {
			reset.Merge(r.SLO)
		}
		rc = trafficCfg(inject.Failstop, core.Microreboot)
		rc.Traffic.Timeout = 300 * time.Millisecond
		rc.Seed = seed
		r = Run(rc)
		if r.SLO != nil {
			reboot.Merge(r.SLO)
		}
	}
	if reset.Outages == 0 || reboot.Outages == 0 {
		t.Fatalf("no outages recorded: reset=%d reboot=%d", reset.Outages, reboot.Outages)
	}
	if reboot.DegradedUserUs <= reset.DegradedUserUs*10 {
		t.Fatalf("microreboot degradation %d not ≫ microreset %d",
			reboot.DegradedUserUs, reset.DegradedUserUs)
	}
	if reset.TimedOut != 0 {
		t.Fatalf("microreset (~ms outage) timed out %d requests against a 300ms deadline", reset.TimedOut)
	}
	if reboot.TimedOut == 0 {
		t.Fatal("microreboot (~480ms outage) produced no timeouts against a 300ms deadline")
	}
}

// sloIdentityCases are the fault classes the bit-identity suite sweeps:
// the plain classes plus PrivVM failure (full ladder, 2s-scale restart)
// and IO-APIC corruption.
func sloIdentityCases() []RunConfig {
	privvm := trafficCfg(inject.PrivVMCrash, core.Microreset)
	privvm.Recovery = core.FullLadderConfig()
	ioapic := trafficCfg(inject.DeviceIOAPIC, core.Microreset)
	ioapic.Recovery = core.HybridConfig()
	return []RunConfig{
		trafficCfg(inject.Failstop, core.Microreset),
		trafficCfg(inject.Register, core.Microreboot),
		privvm,
		ioapic,
	}
}

// TestSLOBitIdenticalAcrossParallelism: Summary.SLO (and every Result)
// must not depend on worker count.
func TestSLOBitIdenticalAcrossParallelism(t *testing.T) {
	for _, base := range sloIdentityCases() {
		var ref Summary
		var refResults []Result
		for _, par := range []int{1, 4} {
			var results []Result
			c := Campaign{
				Base: base, Runs: 6, Parallelism: par,
				OnResult: func(r Result) { results = append(results, r.Clone()) },
			}
			s := c.Execute()
			sort.Slice(results, func(i, j int) bool { return results[i].Seed < results[j].Seed })
			if par == 1 {
				ref, refResults = s, results
				if s.SLORuns != 6 {
					t.Fatalf("%s: SLORuns = %d, want 6", base.FaultClass(), s.SLORuns)
				}
				continue
			}
			if !reflect.DeepEqual(ref, s) {
				t.Fatalf("%s: summary differs at parallelism %d:\n p1: %+v\n p%d: %+v",
					base.FaultClass(), par, ref, par, s)
			}
			if !reflect.DeepEqual(refResults, results) {
				t.Fatalf("%s: results differ at parallelism %d", base.FaultClass(), par)
			}
		}
	}
}

// TestSLOForkMatchesColdBoot: the traffic engine is armed after the
// snapshot restore, so forked and cold-booted runs must produce
// bit-identical Results (including the SLO) for every fault class.
func TestSLOForkMatchesColdBoot(t *testing.T) {
	for _, rc := range sloIdentityCases() {
		assertForkMatchesCold(t, rc, []uint64{1, 2, 3})
	}
}

// TestSLOShardedEquivalence: the SLO fields survive a split into adjacent
// SeedBase ranges exactly — one range, four ranges and the unsplit
// campaign agree bit-for-bit.
func TestSLOShardedEquivalence(t *testing.T) {
	c := Campaign{
		Base:        trafficCfg(inject.Register, core.Microreboot),
		Runs:        8,
		Parallelism: 2,
		SeedBase:    7,
	}
	inProc := c.Execute()
	if inProc.SLORuns != 8 {
		t.Fatalf("SLORuns = %d, want 8", inProc.SLORuns)
	}
	for _, sizes := range [][]int{{8}, {2, 2, 2, 2}} {
		sharded := executeSeedRanges(c, sizes...)
		if !reflect.DeepEqual(inProc, sharded) {
			t.Fatalf("ranges %v: summary differs from unsplit:\n in-proc: %+v\n sharded: %+v",
				sizes, inProc, sharded)
		}
	}
}

// TestMillionUserRun: the acceptance-scale population. Arrival counts are
// exact at any scale (cohort batching, not sampling), and the run must
// still classify normally.
func TestMillionUserRun(t *testing.T) {
	rc := trafficCfg(inject.Failstop, core.Microreset)
	rc.Traffic = traffic.Config{Users: 1_000_000}
	r := Run(rc)
	if r.SLO == nil {
		t.Fatal("no SLO")
	}
	if r.SLO.Users != 1_000_000 {
		t.Fatalf("Users = %d", r.SLO.Users)
	}
	// 1M users × 2s / 1s period.
	if r.SLO.Offered != 2_000_000 {
		t.Fatalf("Offered = %d, want 2000000", r.SLO.Offered)
	}
	if r.SLO.Offered != r.SLO.Completed+r.SLO.TimedOut+r.SLO.Failed {
		t.Fatalf("conservation violated: %+v", *r.SLO)
	}
	if !r.Detected {
		t.Fatal("million-user run changed the fault story")
	}
}

// TestTrafficOnAllocBudget is the traffic-on sibling of
// TestForkedRunAllocBudget: arming a million-user population may not add
// per-request or per-tick allocations — only the fixed per-run overhead
// (engine arming, the ~400-event tick chain reuses pooled events).
func TestTrafficOnAllocBudget(t *testing.T) {
	rc := ThroughputBenchConfig()
	rc.Traffic = traffic.Config{Users: 1_000_000}
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	seed := uint64(0)
	// Warm the traffic engine's one-time buffers (pend, intervals,
	// cohort slab) before measuring.
	rc.Seed = 1
	img.run(rc)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		rc.Seed = seed
		img.run(rc)
	})
	// Traffic-off steady state is ~54 allocs/run under the race detector
	// with a 70 ceiling; the armed population adds only O(1) per run
	// (measured ~+2). Hold a separate, equally tight ceiling so a per-tick
	// or per-batch allocation (hundreds per run) trips immediately.
	t.Logf("%.0f allocs/run", allocs)
	const budget = 75
	if allocs > budget {
		t.Fatalf("traffic-on forked run allocates %.0f objects, budget %d", allocs, budget)
	}
}
