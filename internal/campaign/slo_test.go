package campaign

import (
	"fmt"
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
// per-request or per-slot allocations — only the fixed per-run overhead
// (engine arming; the outage window list is reused across runs).
func TestTrafficOnAllocBudget(t *testing.T) {
	rc := ThroughputBenchConfig()
	rc.Traffic = traffic.Config{Users: 1_000_000}
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	seed := uint64(0)
	// Warm the traffic engine's one-time buffer (the window list) before
	// measuring.
	rc.Seed = 1
	img.run(rc)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		rc.Seed = seed
		img.run(rc)
	})
	// Traffic-off steady state is ~54 allocs/run under the race detector
	// with a 70 ceiling; the armed population adds only O(1) per run
	// (measured ~+2). Hold a separate, equally tight ceiling so a per-slot
	// or per-batch allocation (hundreds per run) trips immediately.
	t.Logf("%.0f allocs/run", allocs)
	const budget = 75
	if allocs > budget {
		t.Fatalf("traffic-on forked run allocates %.0f objects, budget %d", allocs, budget)
	}
}

// sloPinShapes are the shapes TestSLOPinnedPerShape holds to exact merged
// SLOs: the bit-identity classes, a short period against a tight
// deadline, a duration that is not a whole number of goodput intervals, a
// million users under microreboot, and code faults under bare microreset,
// whose failures end the run with service down.
func sloPinShapes() map[string]RunConfig {
	shapes := map[string]RunConfig{}
	for _, rc := range sloIdentityCases() {
		shapes[rc.FaultClass()+"-"+rc.Recovery.Mechanism.String()] = rc
	}
	short := trafficCfg(inject.Failstop, core.Microreboot)
	short.Traffic.Period = 100 * time.Millisecond
	short.Traffic.Timeout = 300 * time.Millisecond
	shapes["period100ms-timeout300ms"] = short
	odd := trafficCfg(inject.Register, core.Microreboot)
	odd.BenchDuration = 1300 * time.Millisecond
	shapes["duration1.3s"] = odd
	million := trafficCfg(inject.Failstop, core.Microreboot)
	million.Traffic.Users = 1_000_000
	shapes["1M-users-microreboot"] = million
	terminal := trafficCfg(inject.Code, core.Microreset)
	terminal.Recovery = core.Config{Mechanism: core.Microreset}
	shapes["code-bare-microreset"] = terminal
	return shapes
}

// TestSLOPinnedPerShape pins each shape's SLO, merged over 20 seeds, to
// its exact value. The SLO is a function of the service windows alone, so
// any change to how the windows are scored (slot rounding, the tie rule
// at a slot instant, the resolution of held requests) shows here as a
// changed figure rather than as a drifted campaign summary.
func TestSLOPinnedPerShape(t *testing.T) {
	want := map[string]string{
		"failstop-NiLiHype":        "{Users:50000 Offered:2000000 Completed:1928000 Delayed:1000 TimedOut:47000 Failed:25000 ExcessWaitUs:29877627000 DegradedUserUs:75606800000 Outages:20 OutageUs:1512136 Intervals:40 DegradedIntervals:2 WorstIntervalPermille:0 Latency:{Count:1928000 Sum:3858627000 Max:4627 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1927000 0 1000 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"register-ReHype":          "{Users:50000 Offered:2000000 Completed:2000000 Delayed:24000 TimedOut:0 Failed:0 ExcessWaitUs:5545896000 DegradedUserUs:24012500000 Outages:1 OutageUs:480250 Intervals:40 DegradedIntervals:0 WorstIntervalPermille:1000 Latency:{Count:2000000 Sum:9545896000 Max:463079 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1976000 1000 0 0 1000 2000 3000 6000 11000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"privvm-crash-NiLiHype":    "{Users:50000 Offered:2000000 Completed:1905000 Delayed:468000 TimedOut:95000 Failed:0 ExcessWaitUs:165077140000 DegradedUserUs:568419250000 Outages:48 OutageUs:11368385 Intervals:40 DegradedIntervals:6 WorstIntervalPermille:600 Latency:{Count:1905000 Sum:121387140000 Max:478105 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1437000 0 0 0 17000 34000 57000 140000 220000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"ioapic-NiLiHype":          "{Users:50000 Offered:2000000 Completed:2000000 Delayed:336000 TimedOut:0 Failed:0 ExcessWaitUs:82404000000 DegradedUserUs:339800000000 Outages:34 OutageUs:6796000 Intervals:40 DegradedIntervals:0 WorstIntervalPermille:1000 Latency:{Count:2000000 Sum:86404000000 Max:477250 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1664000 0 0 0 14000 28000 42000 98000 154000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"period100ms-timeout300ms": "{Users:50000 Offered:20000000 Completed:17543000 Delayed:2839000 TimedOut:2307000 Failed:150000 ExcessWaitUs:1136085634000 DegradedUserUs:528400550000 Outages:20 OutageUs:10568011 Intervals:40 DegradedIntervals:20 WorstIntervalPermille:0 Latency:{Count:17543000 Sum:456871634000 Max:299674 Buckets:[0 0 0 0 0 0 0 0 0 0 0 14704000 25000 49000 68000 160000 307000 623000 1238000 369000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"duration1.3s":             "{Users:50000 Offered:1300000 Completed:1300000 Delayed:24000 TimedOut:0 Failed:0 ExcessWaitUs:5538744000 DegradedUserUs:24012500000 Outages:1 OutageUs:480250 Intervals:40 DegradedIntervals:0 WorstIntervalPermille:1000 Latency:{Count:1300000 Sum:8138744000 Max:462781 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1276000 1000 0 0 1000 2000 3000 6000 11000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"1M-users-microreboot":     "{Users:1000000 Offered:40000000 Completed:38555000 Delayed:9155000 TimedOut:945000 Failed:500000 ExcessWaitUs:2793846110000 DegradedUserUs:10568011000000 Outages:20 OutageUs:10568011 Intervals:40 DegradedIntervals:2 WorstIntervalPermille:0 Latency:{Count:38555000 Sum:2274706110000 Max:482250 Buckets:[0 0 0 0 0 0 0 0 0 0 0 29400000 55000 90000 140000 325000 610000 1245000 2475000 4215000 0 0 0 0 0 0 0 0 0 0 0 0]}}",
		"code-bare-microreset":     "{Users:50000 Offered:2000000 Completed:1549000 Delayed:0 TimedOut:276000 Failed:175000 ExcessWaitUs:182625000000 DegradedUserUs:453076150000 Outages:7 OutageUs:9061523 Intervals:40 DegradedIntervals:12 WorstIntervalPermille:0 Latency:{Count:1549000 Sum:3098000000 Max:2000 Buckets:[0 0 0 0 0 0 0 0 0 0 0 1549000 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]}}",
	}
	for name, rc := range sloPinShapes() {
		s := (&Campaign{Base: rc, Runs: 20, Parallelism: 2}).Execute()
		if s.SLORuns != 20 {
			t.Fatalf("%s: SLORuns = %d, want 20", name, s.SLORuns)
		}
		if got := fmt.Sprintf("%+v", s.SLO); got != want[name] {
			t.Errorf("%s: merged SLO\n got %s\nwant %s", name, got, want[name])
		}
	}
}
