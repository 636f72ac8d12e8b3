package campaign

import (
	"runtime"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// throughputConfig is the fixed configuration the campaign-throughput
// benchmark and `go run ./benchmark` (failstop_1vm) share, so their
// numbers are comparable across PRs.
func throughputConfig() RunConfig {
	return ThroughputBenchConfig()
}

// BenchmarkCampaignThroughput measures the end-to-end campaign hot path:
// runs/sec and allocations per run. This is the number that bounds
// campaign sizes (and therefore confidence intervals) in CI time.
func BenchmarkCampaignThroughput(b *testing.B) {
	const runs = 24
	c := Campaign{Base: throughputConfig(), Runs: runs}
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := c.Execute()
		if s.Runs != runs {
			b.Fatalf("Runs = %d", s.Runs)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms2)
	total := float64(runs) * float64(b.N)
	b.ReportMetric(total/elapsed.Seconds(), "runs/sec")
	b.ReportMetric(float64(ms2.Mallocs-ms1.Mallocs)/total, "allocs/run")
	b.ReportMetric(float64(ms2.TotalAlloc-ms1.TotalAlloc)/total/1024, "KB/run")
}

// TestForkedRunAllocBudget guards the per-run allocation budget of each
// campaign shape the benchmark measures, with the always-on telemetry and
// journal active. The steady state of a run — every layer a hypercall, a
// packet, a block request or an interrupt passes through — runs on
// recycled storage; what is left is per-run setup (RNGs, the engine, the
// injector) and what a run that went wrong records about it (panic and
// detection strings, the audit's findings, forensics). Ceilings sit
// ~25 % above the means measured under the race detector (about 55, 57
// and 85; a plain build reads 48, 51 and 79, and `go run ./benchmark`
// reports that figure plus the amortised image build as allocs_per_run):
// tight enough that one stray allocation per packet or per interrupt
// (thousands per run), or the hypercall records a stuck CPU refused going
// unrecycled again (~100 a ladder run), trips them at once.
func TestForkedRunAllocBudget(t *testing.T) {
	netbench := ThroughputBenchConfig()
	netbench.Workload = guest.NetBench
	netbench.MemoryMB = 1024
	netbench.BenchDuration = time.Second
	ladder := core.FullLadderConfig()
	ladder.RepairCPUs = 8
	shapes := []struct {
		name   string
		rc     RunConfig
		seeds  int // wrong runs allocate forensics, so the mean is over many seeds
		budget float64
	}{
		{"1AppVM UnixBench failstop", ThroughputBenchConfig(), 20, 70},
		{"1AppVM NetBench failstop", netbench, 20, 70},
		{"3AppVM code faults, full ladder, 8 repair CPUs", RunConfig{
			Setup: ThreeAppVM, Fault: inject.Code, Recovery: ladder,
			Logging: true, BenchDuration: 3 * time.Second, MemoryMB: 1024,
		}, 60, 106},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rc := sh.rc
			img, err := buildImage(rc)
			if err != nil {
				t.Fatalf("buildImage: %v", err)
			}
			seed := uint64(0)
			run := func() {
				seed++
				rc.Seed = seed
				img.run(rc)
			}
			// Pools and scratch buffers reach their steady size.
			for i := 0; i < 5; i++ {
				run()
			}
			seed = 0
			allocs := testing.AllocsPerRun(sh.seeds, run)
			t.Logf("%.0f allocs/run over %d seeds (budget %.0f)", allocs, sh.seeds, sh.budget)
			if allocs > sh.budget {
				t.Fatalf("forked run allocates %.0f objects, budget %.0f", allocs, sh.budget)
			}
		})
	}
}

// BenchmarkCampaignThroughputTraffic is BenchmarkCampaignThroughput with a
// million-user open-loop population armed: the acceptance gate is that
// runs/sec stays within 10% of the traffic-off number (the population is
// scored arithmetically at the end of the run and adds no simulation
// events, whatever the user count).
func BenchmarkCampaignThroughputTraffic(b *testing.B) {
	const runs = 24
	base := throughputConfig()
	base.Traffic.Users = 1_000_000
	c := Campaign{Base: base, Runs: runs}
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := c.Execute()
		if s.SLORuns != runs {
			b.Fatalf("SLORuns = %d", s.SLORuns)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms2)
	total := float64(runs) * float64(b.N)
	b.ReportMetric(total/elapsed.Seconds(), "runs/sec")
	b.ReportMetric(float64(ms2.Mallocs-ms1.Mallocs)/total, "allocs/run")
	b.ReportMetric(float64(ms2.TotalAlloc-ms1.TotalAlloc)/total/1024, "KB/run")
}

// BenchmarkGuestReseed measures the per-run guest re-arm path in isolation:
// snapshot restore, RNG rewind, and re-seeding every AppVM's workload state
// (file stores, process tables, scratch). This is the path the guest pools
// exist for — allocs/op is the regression signal.
func BenchmarkGuestReseed(b *testing.B) {
	rc := throughputConfig()
	img, err := buildImage(rc)
	if err != nil {
		b.Fatalf("buildImage: %v", err)
	}
	world, h := img.world, img.h
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Restore(img.snap)
		world.Restore(img.wsnap)
		h.ReseedRun(uint64(i + 1))
		world.Reseed(uint64(i+1) ^ 0x5eed)
		for _, cfg := range img.appCfgs {
			world.SeedAppVM(cfg.Dom)
		}
	}
}

// BenchmarkResultRecycle measures the executor-shaped consumption loop:
// forked runs whose Result records are recycled through the image scratch
// and aggregated in place, exactly as Campaign.Execute's workers do.
// allocs/op is the whole per-run budget (TestForkedRunAllocBudget enforces
// the ceiling; this reports the trend).
func BenchmarkResultRecycle(b *testing.B) {
	rc := throughputConfig()
	img, err := buildImage(rc)
	if err != nil {
		b.Fatalf("buildImage: %v", err)
	}
	s := Summary{FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rc.Seed = uint64(i + 1)
		r := img.run(rc)
		s.add(r)
	}
	if int(s.Runs)+s.NonManifested+s.SDCCount+s.DetectedCount == 0 && b.N > 0 {
		b.Fatal("no outcomes aggregated")
	}
}

// BenchmarkSingleRun measures one fault-injection run in isolation
// (no executor involvement): the per-run floor the executor builds on.
func BenchmarkSingleRun(b *testing.B) {
	rc := throughputConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rc.Seed = uint64(i + 1)
		r := Run(rc)
		if r.Outcome == 0 {
			b.Fatal("no outcome")
		}
	}
}
