package campaign

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"nilihype/internal/core"
	"nilihype/internal/inject"
)

// parallelRepairCfg is the recovery-domain configuration under test: full
// microreset ladder, audit gate on, repair partitioned over the machine's
// 8 CPUs.
func parallelRepairCfg(fault inject.FaultType, setup Setup) RunConfig {
	rc := fastCfg(fault, core.Microreset)
	rc.Setup = setup
	rc.Recovery.RepairCPUs = MachineCPUs
	rc.Recovery.Escalation.Audit = true
	return rc
}

// TestParallelRepairSerialVsParallelExecBitIdentical is the equivalence
// guarantee at campaign level: for every fault class and setup, executing
// the partitioned repair's units on one host goroutine (GOMAXPROCS 1) or
// concurrently (GOMAXPROCS 4) — and at campaign parallelism 1 or 4 —
// produces bit-identical Results for every seed and a bit-identical
// Summary. CI runs this suite under -race.
func TestParallelRepairSerialVsParallelExecBitIdentical(t *testing.T) {
	collect := func(rc RunConfig, procs, par int) (Summary, []Result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var results []Result
		c := Campaign{Base: rc, Runs: 4, Parallelism: par, SeedBase: 3,
			OnResult: func(r Result) { results = append(results, r.Clone()) }}
		s := c.Execute()
		// Parallel campaigns deliver results in completion order; seeds are
		// the stable identity.
		sort.Slice(results, func(i, j int) bool { return results[i].Seed < results[j].Seed })
		return s, results
	}
	for _, fault := range []inject.FaultType{inject.Failstop, inject.Register, inject.Code} {
		for _, setup := range []Setup{OneAppVM, ThreeAppVM} {
			rc := parallelRepairCfg(fault, setup)
			wantS, wantR := collect(rc, 1, 1)
			for _, par := range []int{1, 4} {
				gotS, gotR := collect(rc, 4, par)
				if !reflect.DeepEqual(wantS, gotS) {
					t.Fatalf("%v/%v par=%d: Summary diverges between serial and parallel repair execution:\n serial:   %+v\n parallel: %+v",
						fault, setup, par, wantS, gotS)
				}
				if !reflect.DeepEqual(wantR, gotR) {
					t.Fatalf("%v/%v par=%d: Results diverge between serial and parallel repair execution:\n serial:   %+v\n parallel: %+v",
						fault, setup, par, wantR, gotR)
				}
			}
		}
	}
}

// TestParallelRepairCutsMicroresetLatency is the EXPERIMENTS.md claim:
// partitioning repair over the 8 recovery CPUs cuts mean successful
// microreset latency on the 8-CPU 3AppVM configuration by at least 25%
// against the serial path with the same audit gate.
func TestParallelRepairCutsMicroresetLatency(t *testing.T) {
	run := func(repairCPUs int) Summary {
		rc := fastCfg(inject.Failstop, core.Microreset)
		rc.Recovery.RepairCPUs = repairCPUs
		rc.Recovery.Escalation.Audit = true
		c := Campaign{Base: rc, Runs: 6, Parallelism: 2, SeedBase: 17}
		return c.Execute()
	}
	serial, parallel := run(0), run(MachineCPUs)
	if serial.RecoverySuccess == 0 || parallel.RecoverySuccess == 0 {
		t.Fatalf("no successful recoveries to compare: serial %d, parallel %d",
			serial.RecoverySuccess, parallel.RecoverySuccess)
	}
	sm, pm := serial.MeanSuccessLatency(), parallel.MeanSuccessLatency()
	if pm > sm*3/4 {
		t.Fatalf("parallel mean latency %v is not ≥25%% below serial %v", pm, sm)
	}
}

// TestParallelRepairSummaryFields checks the new campaign accounting: the
// partitioned runs are counted, the domain count covers the per-CPU,
// per-guest and global domains, and the parallel charge beats the
// serialized total. One recovery CPU must leave all of it zero.
func TestParallelRepairSummaryFields(t *testing.T) {
	rc := parallelRepairCfg(inject.Failstop, ThreeAppVM)
	c := Campaign{Base: rc, Runs: 4, Parallelism: 2, SeedBase: 5}
	s := c.Execute()
	if s.ParallelRepairRuns == 0 {
		t.Fatal("no run recorded the parallel repair path")
	}
	// 8 per-CPU domains + the global domain + at least the PrivVM guest
	// domain.
	if s.RepairDomains < MachineCPUs+2 {
		t.Fatalf("RepairDomains = %d, want at least %d", s.RepairDomains, MachineCPUs+2)
	}
	if s.ParallelRepairLatency >= s.SerialRepairLatency {
		t.Fatalf("parallel charge %v not below serialized %v", s.ParallelRepairLatency, s.SerialRepairLatency)
	}
	if out := s.Format(); !strings.Contains(out, "parallel repair:") {
		t.Fatalf("Format lacks the parallel-repair line:\n%s", out)
	}

	rc.Recovery.RepairCPUs = 0
	c2 := Campaign{Base: rc, Runs: 2, Parallelism: 1, SeedBase: 5}
	s2 := c2.Execute()
	if s2.ParallelRepairRuns != 0 || s2.RepairDomains != 0 || s2.SerialRepairLatency != 0 {
		t.Fatalf("one-lane runs populated parallel accounting: %+v", s2)
	}
}

// TestParallelRepairOffMatchesLegacySerialPath: RepairCPUs of 0 and 1
// are the same one-lane configuration — one Breakdown row per repair
// step, audit plan charged as the sum of its units — and produce
// bit-identical Summaries.
func TestParallelRepairOffMatchesLegacySerialPath(t *testing.T) {
	run := func(repairCPUs int) Summary {
		rc := fastCfg(inject.Register, core.Microreset)
		rc.Recovery.Escalation.Audit = true
		rc.Recovery.RepairCPUs = repairCPUs
		c := Campaign{Base: rc, Runs: 4, Parallelism: 2, SeedBase: 9}
		s := c.Execute()
		s.Config.Recovery.RepairCPUs = 0
		return s
	}
	if a, b := run(0), run(1); !reflect.DeepEqual(a, b) {
		t.Fatalf("RepairCPUs=1 diverges from RepairCPUs=0:\n %+v\n %+v", a, b)
	}
}
