package campaign

import (
	"runtime"
	"testing"
	"time"
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

// TestForkedRunAllocBudget guards the per-run allocation budget with the
// always-on telemetry active: metric increments and flight-recorder
// writes are array stores, so turning observability on must not add
// per-event allocations. The ceiling sits ~15% above the measured steady
// state (`go run ./benchmark`, failstop_1vm allocs_per_run) — tight enough
// to catch a stray per-event allocation (tens of thousands of events per
// run), loose enough to ignore run-to-run variance in the simulation
// itself.
func TestForkedRunAllocBudget(t *testing.T) {
	rc := ThroughputBenchConfig()
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		rc.Seed = seed
		img.run(rc)
	})
	// Measured steady state is ~252 allocs/run (scheduler switch records
	// dominate; everything else — guest workloads, IRQ/softirq programs,
	// undo records, Results — runs on recycled storage), rising to ~306
	// under the race detector's instrumentation. The ceiling clears both
	// with ~30% headroom; the sub-10k-allocs/run goal has more than an
	// order of magnitude of slack before this trips.
	const budget = 400
	if allocs > budget {
		t.Fatalf("forked run allocates %.0f objects, budget %d", allocs, budget)
	}
}

// BenchmarkCampaignThroughputTraffic is BenchmarkCampaignThroughput with a
// million-user open-loop population armed: the acceptance gate is that
// runs/sec stays within 10% of the traffic-off number (the timing wheel's
// one-event-per-5ms-tick batching makes the population cost ~400 events
// per run regardless of user count).
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
