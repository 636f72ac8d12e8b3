package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"nilihype/internal/campaign"
)

// processStart is taken as early as the program can: setup_s counts from
// here.
var processStart = time.Now()

const (
	// warmupRuns fill pools and arenas before timing; they run on seeds
	// disjoint from the timed ones.
	warmupRuns = 50
	// determinismRuns is the prefix of the timed seeds re-run at
	// Parallelism 1 and 2 for the determinism gate.
	determinismRuns = 100
	// The paper's results the simulated numbers are stated against:
	// recovery latency at 8 GB for microreset (Table III) and microreboot
	// (Table II), and the full-ladder 1AppVM failstop recovery rate
	// (Table I). A workload that reproduces a paper latency must stay
	// within paperTolerance of it.
	paperTable3Ms  = 22.0
	paperTable2Ms  = 713.0
	paperTable1Pct = 96.1
	paperTolerance = 0.10
)

// pass is what one timed campaign produced, before any metric is derived.
type pass struct {
	runs    int
	summary campaign.Summary
	start   time.Time
	stamps  []time.Time
	// kinds is each run's recovery-attempt count, in completion order:
	// the deterministic property that decides how much work a run does.
	kinds []int
	// traced marks the runs whose span was recorded (all of them unless
	// the pass alternates tracing to measure its overhead).
	traced  []bool
	elapsed time.Duration

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPUSeconds        float64
	rssMB               float64

	// Sums over the per-run Results the Summary does not keep.
	attempts       int // recovery attempts over all runs
	wrongRuns      int // runs carrying a forensic root cause
	journalEntries int // journal entries over wrong runs
	bootFailures   int // runs whose image build or boot failed
}

// overheadBlock is the number of consecutive runs traced, then left
// untraced, by a pass that alternates tracing.
const overheadBlock = 10

// execute runs one campaign single-threaded and collects the host-side
// counters around it. The GC fence before the first MemStats read keeps
// earlier garbage out of the per-run allocation figures. With a tracer it
// records one span per run; with alternate set only every other block of
// overheadBlock runs is traced, so traced and untraced runs share the
// same stretch of host time and their difference is the tracing overhead.
func execute(base campaign.RunConfig, runs int, seedBase uint64, tr *tracer, parent int, alternate bool) pass {
	p := pass{runs: runs, stamps: make([]time.Time, 0, runs), kinds: make([]int, 0, runs), traced: make([]bool, 0, runs)}
	var id int
	var prev time.Time
	c := campaign.Campaign{
		Base: base, Runs: runs, Parallelism: 1, SeedBase: seedBase,
		OnResult: func(r campaign.Result) {
			now := time.Now()
			traced := tr != nil && !(alternate && len(p.stamps)/overheadBlock%2 == 1)
			p.stamps = append(p.stamps, now)
			p.traced = append(p.traced, traced)
			if traced {
				tr.add(id, "run", prev, now)
			}
			prev = now
			p.kinds = append(p.kinds, runKind(r))
			p.attempts += r.Attempts
			if r.RootCause != "" {
				p.wrongRuns++
				p.journalEntries += len(r.Journal)
			}
			if isBootFailure(r.FailReason) {
				p.bootFailures++
			}
		},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gcBefore := gcCPUSeconds()
	id = tr.begin(parent, "campaign.Execute")
	p.start = time.Now()
	prev = p.start
	p.summary = c.Execute()
	p.elapsed = time.Since(p.start)
	tr.end(id)
	runtime.ReadMemStats(&after)
	p.gcCPUSeconds = gcCPUSeconds() - gcBefore
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.rssMB = peakRSSMB()
	return p
}

// runKind groups runs that do the same amount of host work: by how many
// recovery attempts they made, and by whether recovery failed (a terminal
// failure halts the clock, so the rest of the run costs nothing).
func runKind(r campaign.Result) int {
	kind := r.Attempts << 1
	if r.FailReason != "" {
		kind |= 1
	}
	return kind
}

// isBootFailure reports whether a run's fail reason came from the harness
// (image build or boot) rather than from the simulated recovery.
func isBootFailure(reason string) bool {
	return strings.HasPrefix(reason, "setup:") || strings.HasPrefix(reason, "boot:")
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB returns this process's resident-set high-water mark (VmHWM).
// It is 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// setUp performs the benchmark's set-up `reps` times — one image build
// (boot + snapshot) plus the warm-up runs, as a campaign of its own — and
// returns the shortest duration in seconds: a repetition is longer than a
// burst of neighbour interference, so each is slowed by some share of it
// and the shortest is the least disturbed. Each repetition's image is
// collected before the next so the peak RSS stays that of one image.
func setUp(base campaign.RunConfig, warmup int, seedBase uint64, reps int, tr *tracer, parent int) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		c := campaign.Campaign{Base: base, Runs: warmup, Parallelism: 1, SeedBase: seedBase + warmupOffset}
		d := tr.timed(parent, "setup", func() { c.Execute() })
		best = math.Min(best, d.Seconds())
		runtime.GC()
	}
	return best
}

// simDigest fingerprints everything simulated in a Summary: the rendered
// report plus the exact counters the rendering rounds. Two commits that
// claim "simulation unchanged" must produce the same digest for the same
// seeds.
func simDigest(s campaign.Summary) string {
	h := sha256.New()
	io.WriteString(h, s.Format())
	writeCounts := func(label string, m map[string]int) {
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(h, "%s %s %d\n", label, k, m[k])
		}
	}
	writeCounts("root-cause", s.RootCauses)
	writeCounts("fail-reason", s.FailReasons)
	for _, k := range sortedKeys(s.FaultClasses) {
		fc := s.FaultClasses[k]
		fmt.Fprintf(h, "fault-class %s %d %d %d %d %d\n", k, fc.Runs, fc.Detected, fc.Success, fc.NoVMF, fc.SuccessLatency)
	}
	fmt.Fprintf(h, "latency-ns %d degraded-us %d\n", s.SuccessLatency, s.SLO.DegradedUserUs)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// gate is one correctness check's verdict: how many runs a breach affects
// (0 = held) and why.
type gate struct {
	failed int
	why    string
}

// checkPass applies the correctness gates that need only the timed pass:
// harness failures, run count, count invariants, and — where the workload
// reproduces a paper latency — that reference.
func checkPass(w workload, p pass) []gate {
	var out []gate
	s := p.summary
	if p.bootFailures > 0 {
		out = append(out, gate{p.bootFailures, fmt.Sprintf("%d run(s) failed in image build or boot", p.bootFailures)})
	}
	if s.Runs != p.runs || len(p.stamps) != p.runs {
		out = append(out, gate{p.runs, fmt.Sprintf("campaign reported %d runs and %d results for %d requested", s.Runs, len(p.stamps), p.runs)})
	}
	if s.NonManifested+s.SDCCount+s.DetectedCount != s.Runs {
		out = append(out, gate{p.runs, fmt.Sprintf("outcomes %d+%d+%d do not sum to %d runs", s.NonManifested, s.SDCCount, s.DetectedCount, s.Runs)})
	}
	if s.RecoverySuccess > s.DetectedCount {
		out = append(out, gate{p.runs, fmt.Sprintf("%d successes exceed %d detected runs", s.RecoverySuccess, s.DetectedCount)})
	}
	if w.PaperMs > 0 {
		got := ms(s.MeanSuccessLatency())
		if math.Abs(got-w.PaperMs) > paperTolerance*w.PaperMs {
			out = append(out, gate{p.runs, fmt.Sprintf("simulated recovery latency %.3f ms is outside ±%.0f%% of the paper's %.0f ms", got, 100*paperTolerance, w.PaperMs)})
		}
	}
	return out
}

// checkDeterminism re-runs the first n timed seeds at Parallelism 1 and 2
// and requires the same simulation digest from both.
func checkDeterminism(base campaign.RunConfig, n int, seedBase uint64) []gate {
	digest := func(par int) string {
		c := campaign.Campaign{Base: base, Runs: n, Parallelism: par, SeedBase: seedBase}
		return simDigest(c.Execute())
	}
	if d1, d2 := digest(1), digest(2); d1 != d2 {
		return []gate{{n, fmt.Sprintf("first %d seeds differ between Parallelism 1 (%s) and 2 (%s)", n, d1[:12], d2[:12])}}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd derives the host-clock end-to-end metrics from a timed pass.
func endToEnd(p pass, setupS float64) map[string]metric {
	runs := float64(p.runs)
	gaps := interArrivalsMs(p.start, p.stamps)
	rate, _ := p.summary.SuccessRate()
	return map[string]metric{
		"runs_per_sec":         {undisturbedRate(gaps, p.kinds), "runs/s"},
		"allocs_per_run":       {float64(p.mallocs) / runs, "allocs"},
		"kb_per_run":           {float64(p.allocBytes) / 1024 / runs, "KB"},
		"peak_rss_mb":          {p.rssMB, "MB"},
		"setup_s":              {setupS, "s"},
		"recovery_success_pct": {100 * rate, "%"},
	}
}

// simMetrics are the simulated-clock results of a pass. They repeat
// exactly for a fixed seed and run count, so -compare matches them
// exactly. slo_degraded_user_s_per_run is present only when the workload
// arms traffic — never as 0 — and the distances to the paper's Table III
// latency and Table I recovery rate only on the workloads that reproduce
// those configurations.
func simMetrics(w workload, s campaign.Summary) map[string]metric {
	rate, _ := s.SuccessRate()
	_, _, det := s.OutcomeRates()
	out := map[string]metric{
		"sim_recovery_ms_mean": {ms(s.MeanSuccessLatency()), "sim_ms"},
		"recovery_success_pct": {100 * rate, "%"},
		"detected_pct":         {100 * det, "%"},
	}
	if s.SLORuns > 0 {
		out["slo_degraded_user_s_per_run"] = metric{s.SLO.DegradedUserSeconds() / float64(s.SLORuns), "user.s"}
	}
	if w.PaperMs > 0 {
		out["table3_err_pct"] = metric{pct(math.Abs(ms(s.MeanSuccessLatency())-w.PaperMs), w.PaperMs), "%"}
	}
	if w.PaperPct > 0 {
		out["table1_success_err_pt"] = metric{math.Abs(100*rate - w.PaperPct), "pt"}
	}
	return out
}
