package campaign

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nilihype/internal/telemetry"
	"nilihype/internal/traffic"
)

// Campaign is a batch of identical runs differing only in seed.
type Campaign struct {
	Base RunConfig
	Runs int
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS).
	Parallelism int
	// SeedBase offsets the seed sequence: run i (0-based) uses seed
	// SeedBase+i+1, so campaigns over adjacent seed ranges merge
	// (Summary.Merge) into the campaign over their union. Zero preserves
	// the historical seeds 1..Runs.
	SeedBase uint64
	// OnResult, if non-nil, is invoked once per completed run, in
	// completion order (not seed order), serialized — implementations
	// need no locking. It lets callers stream per-run output without
	// the executor retaining results; keep it fast, it is on the
	// aggregation path. The Result's backing arrays are recycled into
	// the worker's next run once the callback returns (copy-on-retain):
	// retain r.Clone(), never r itself.
	OnResult func(Result)
}

// Summary aggregates a campaign.
type Summary struct {
	Config RunConfig
	Runs   int

	// Outcome breakdown (§VII-A).
	NonManifested int
	SDCCount      int
	DetectedCount int

	// Recovery statistics over detected runs.
	RecoverySuccess int
	NoVMFCount      int

	// EscalatedRuns counts detected runs whose engine escalated past the
	// first recovery attempt.
	EscalatedRuns int
	// SuccessByAttempt histograms successful runs by how many recovery
	// attempts they needed (key 1 = first rung sufficed).
	SuccessByAttempt map[int]int
	// SuccessLatency accumulates total recovery latency (all attempts)
	// over successful runs; MeanSuccessLatency derives the mean.
	SuccessLatency time.Duration

	// Audit totals (EscalationPolicy.Audit): violations found, repairs
	// applied, and AppVMs sacrificed across all runs.
	AuditViolations int
	AuditRepaired   int
	SacrificedVMs   int

	// Recovery-domain totals (Recovery.RepairCPUs > 1): runs that used the
	// partitioned repair path, the largest distinct-domain count any run's
	// recovery touched, and — summed over those runs — what the repair and
	// audit phases would have cost serialized vs what the parallel domain
	// schedule charged. All are counters or maxima, so they merge
	// commutatively like every other Summary field.
	ParallelRepairRuns    int
	RepairDomains         int
	SerialRepairLatency   time.Duration
	ParallelRepairLatency time.Duration

	// Adversarial-injection totals: runs whose burst fault fired, runs
	// whose fault-during-recovery trigger fired, and runs whose
	// correlated fault-while-degraded re-injection fired.
	BurstFiredRuns          int
	DuringRecoveryFiredRuns int
	CorrelatedFiredRuns     int

	// FaultClasses breaks the recovery statistics down by fault class —
	// the per-fault-class recovery matrix. Lazy-nil like PhaseHists so
	// summaries compare deep-equal across execution strategies; every
	// field is a counter, so merges are order-independent and the map is
	// bit-identical at any parallelism or seed-range split.
	FaultClasses map[string]*FaultClassStats

	// FailReasons histograms recovery-failure causes.
	FailReasons map[string]int

	// LatencyHist histograms total recovery latency (µs) over successful
	// runs; PhaseHists histograms each itemized recovery-phase duration
	// (µs) by phase name, over all attempts of all detected runs. Both
	// are integer power-of-two histograms with commutative, associative
	// merges, so the summary stays bit-identical at any parallelism.
	LatencyHist telemetry.Hist
	PhaseHists  map[string]*telemetry.Hist

	// SLORuns counts runs that carried a traffic SLO (RunConfig.Traffic
	// enabled); SLO aggregates them. traffic.SLO.Merge is exact-integer
	// commutative/associative like every other Summary field, so the
	// aggregate is bit-identical at any parallelism or seed-range split.
	SLORuns int
	SLO     traffic.SLO

	// RootCauses histograms the forensic root-cause classes over wrong
	// runs (failed, escalated, or degraded). Lazy-nil like FailReasons'
	// siblings; counters only, so the breakdown is bit-identical at any
	// parallelism or seed-range split.
	RootCauses map[string]int
}

// FaultClassStats is one fault class's row of the per-class recovery
// matrix. All fields are counters (SuccessLatency an additive sum), so the
// row merges commutatively like every other Summary field.
type FaultClassStats struct {
	// Runs/Detected/Success/NoVMF mirror the Summary-level counters,
	// restricted to this class's runs.
	Runs     int
	Detected int
	Success  int
	NoVMF    int
	// SuccessLatency sums total recovery latency over successful runs.
	SuccessLatency time.Duration
	// AuditRepaired/AuditDegraded/AuditEscalate total the class's audit
	// verdicts (degraded = sacrificed AppVMs).
	AuditRepaired int
	AuditDegraded int
	AuditEscalate int
	// RootCauses histograms the class's wrong runs by forensic root
	// cause. Lazy-nil like the Summary-level map.
	RootCauses map[string]int
}

func (fc *FaultClassStats) merge(p *FaultClassStats) {
	fc.Runs += p.Runs
	fc.Detected += p.Detected
	fc.Success += p.Success
	fc.NoVMF += p.NoVMF
	fc.SuccessLatency += p.SuccessLatency
	fc.AuditRepaired += p.AuditRepaired
	fc.AuditDegraded += p.AuditDegraded
	fc.AuditEscalate += p.AuditEscalate
	for k, v := range p.RootCauses {
		if fc.RootCauses == nil {
			fc.RootCauses = make(map[string]int)
		}
		fc.RootCauses[k] += v
	}
}

// MeanSuccessLatency returns the class's mean successful-recovery latency.
func (fc *FaultClassStats) MeanSuccessLatency() time.Duration {
	if fc.Success == 0 {
		return 0
	}
	return fc.SuccessLatency / time.Duration(fc.Success)
}

// SuccessRate returns the class's successful recovery rate over its
// detected runs, with its 95% confidence half-width.
func (fc *FaultClassStats) SuccessRate() (rate, ci float64) {
	return proportion(fc.Success, fc.Detected)
}

// faultClass returns the named class row, creating it on first use.
// Laziness keeps FaultClasses nil when no run carried a class, so
// summaries compare deep-equal across execution strategies.
func (s *Summary) faultClass(name string) *FaultClassStats {
	fc := s.FaultClasses[name]
	if fc == nil {
		if s.FaultClasses == nil {
			s.FaultClasses = make(map[string]*FaultClassStats)
		}
		fc = &FaultClassStats{}
		s.FaultClasses[name] = fc
	}
	return fc
}

// phaseHist returns the named phase histogram, creating it on first use.
// Laziness keeps PhaseHists nil (not empty) when no run produced phases,
// so summaries compare deep-equal across execution strategies.
func (s *Summary) phaseHist(name string) *telemetry.Hist {
	h := s.PhaseHists[name]
	if h == nil {
		if s.PhaseHists == nil {
			s.PhaseHists = make(map[string]*telemetry.Hist)
		}
		h = &telemetry.Hist{}
		s.PhaseHists[name] = h
	}
	return h
}

// MeanSuccessLatency returns the mean recovery latency of successful runs.
func (s Summary) MeanSuccessLatency() time.Duration {
	if s.RecoverySuccess == 0 {
		return 0
	}
	return s.SuccessLatency / time.Duration(s.RecoverySuccess)
}

// Merge folds another summary over the same configuration into s — e.g.
// the per-fault-type shards of a mixed-fault campaign. Unlike the internal
// worker merge, run counts accumulate too.
func (s *Summary) Merge(p Summary) {
	s.Runs += p.Runs
	s.merge(&p)
}

// Execute runs the campaign with seeds SeedBase+1..SeedBase+Runs on a
// fixed pool of Parallelism workers. Each worker aggregates its runs into
// a private partial Summary; the partials are merged after the pool
// drains. Memory is O(Parallelism) regardless of Runs — no per-run Result
// slice is retained — and because every Summary field is an
// order-independent counter, the merged Summary is identical whatever the
// parallelism level or completion order.
func (c *Campaign) Execute() Summary {
	s := Summary{Config: c.Base, Runs: c.Runs,
		FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	if c.Runs <= 0 {
		return s
	}
	par := c.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > c.Runs {
		par = c.Runs
	}
	seeds := make(chan uint64)
	partials := make([]Summary, par)
	var mu sync.Mutex // serializes OnResult across workers
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(p *Summary) {
			defer wg.Done()
			p.FailReasons = make(map[string]int)
			p.SuccessByAttempt = make(map[int]int)
			// Boot-once fork-many: each worker keeps one pristine boot
			// image per configuration shape and forks every run from its
			// snapshot instead of re-booting. Workers never share images,
			// so runs stay single-threaded over their machine state.
			images := make(map[imageKey]*image)
			for seed := range seeds {
				rc := c.Base
				rc.Seed = seed
				r := runOne(rc, images)
				p.add(r)
				if c.OnResult != nil {
					mu.Lock()
					c.OnResult(r)
					mu.Unlock()
				}
			}
		}(&partials[w])
	}
	for i := 0; i < c.Runs; i++ {
		seeds <- c.SeedBase + uint64(i+1)
	}
	close(seeds)
	wg.Wait()
	for i := range partials {
		s.merge(&partials[i])
	}
	return s
}

// runOne executes one campaign run, forking from the worker's cached boot
// image.
func runOne(rc RunConfig, images map[imageKey]*image) Result {
	rc = rc.withDefaults()
	k := keyOf(rc)
	img := images[k]
	if img == nil {
		var err error
		img, err = buildImage(rc)
		if err != nil {
			return Result{Seed: rc.Seed, NewVMOK: true, FailReason: err.Error(), FaultClass: rc.FaultClass()}
		}
		images[k] = img
	}
	return img.run(rc)
}

// merge folds a worker's partial summary into s. All fields are counters,
// so merging is commutative and associative: the result does not depend
// on worker count or scheduling.
func (s *Summary) merge(p *Summary) {
	s.NonManifested += p.NonManifested
	s.SDCCount += p.SDCCount
	s.DetectedCount += p.DetectedCount
	s.RecoverySuccess += p.RecoverySuccess
	s.NoVMFCount += p.NoVMFCount
	s.EscalatedRuns += p.EscalatedRuns
	s.SuccessLatency += p.SuccessLatency
	s.AuditViolations += p.AuditViolations
	s.AuditRepaired += p.AuditRepaired
	s.SacrificedVMs += p.SacrificedVMs
	s.ParallelRepairRuns += p.ParallelRepairRuns
	if p.RepairDomains > s.RepairDomains {
		s.RepairDomains = p.RepairDomains
	}
	s.SerialRepairLatency += p.SerialRepairLatency
	s.ParallelRepairLatency += p.ParallelRepairLatency
	s.BurstFiredRuns += p.BurstFiredRuns
	s.DuringRecoveryFiredRuns += p.DuringRecoveryFiredRuns
	s.CorrelatedFiredRuns += p.CorrelatedFiredRuns
	for k, fc := range p.FaultClasses {
		s.faultClass(k).merge(fc)
	}
	for k, v := range p.SuccessByAttempt {
		s.SuccessByAttempt[k] += v
	}
	for k, v := range p.FailReasons {
		s.FailReasons[k] += v
	}
	s.LatencyHist.Merge(&p.LatencyHist)
	for k, h := range p.PhaseHists {
		s.phaseHist(k).Merge(h)
	}
	s.SLORuns += p.SLORuns
	s.SLO.Merge(&p.SLO)
	for k, v := range p.RootCauses {
		s.rootCause(k, v)
	}
}

// rootCause bumps the named root-cause counter, creating the map on first
// use (lazy-nil like FaultClasses).
func (s *Summary) rootCause(name string, n int) {
	if s.RootCauses == nil {
		s.RootCauses = make(map[string]int)
	}
	s.RootCauses[name] += n
}

func (s *Summary) add(r Result) {
	for _, ph := range r.Phases {
		s.phaseHist(ph.Name).Observe(uint64(ph.Dur / time.Microsecond))
	}
	if r.SLO != nil {
		s.SLORuns++
		s.SLO.Merge(r.SLO)
	}
	s.AuditViolations += r.AuditViolations
	s.AuditRepaired += r.AuditRepaired
	s.SacrificedVMs += len(r.SacrificedVMs)
	if r.RepairDomains > 0 {
		s.ParallelRepairRuns++
		if r.RepairDomains > s.RepairDomains {
			s.RepairDomains = r.RepairDomains
		}
		s.SerialRepairLatency += r.SerialRepairLatency
		s.ParallelRepairLatency += r.ParallelRepairLatency
	}
	if r.BurstFired {
		s.BurstFiredRuns++
	}
	if r.DuringRecoveryFired {
		s.DuringRecoveryFiredRuns++
	}
	if r.CorrelatedFired {
		s.CorrelatedFiredRuns++
	}
	if r.RootCause != "" {
		s.rootCause(r.RootCause, 1)
		if r.FaultClass != "" {
			fc := s.faultClass(r.FaultClass)
			if fc.RootCauses == nil {
				fc.RootCauses = make(map[string]int)
			}
			fc.RootCauses[r.RootCause]++
		}
	}
	if r.FaultClass != "" {
		fc := s.faultClass(r.FaultClass)
		fc.Runs++
		if r.Outcome == Detected {
			fc.Detected++
			if r.Success {
				fc.Success++
				fc.SuccessLatency += r.Latency
			}
			if r.NoVMF {
				fc.NoVMF++
			}
		}
		fc.AuditRepaired += r.AuditRepaired
		fc.AuditDegraded += len(r.SacrificedVMs)
		fc.AuditEscalate += r.AuditEscalations
	}
	switch r.Outcome {
	case NonManifested:
		s.NonManifested++
	case SDC:
		s.SDCCount++
	case Detected:
		s.DetectedCount++
		if r.Escalated {
			s.EscalatedRuns++
		}
		if r.Success {
			s.RecoverySuccess++
			s.SuccessLatency += r.Latency
			s.LatencyHist.Observe(uint64(r.Latency / time.Microsecond))
			n := r.Attempts
			if n < 1 {
				n = 1
			}
			s.SuccessByAttempt[n]++
		} else {
			s.FailReasons[classifyFailure(r)]++
		}
		if r.NoVMF {
			s.NoVMFCount++
		}
	}
}

// classifyFailure buckets a failed run into the paper's failure-cause
// categories (§VII-A). A terminal failure's cause decides first: a
// hypervisor panic or hang usually takes the PrivVM down with it, and
// histogramming such a run as "PrivVM failed" would hide the root cause —
// the PrivVM loss is the consequence, not the failure.
func classifyFailure(r Result) string {
	switch {
	case r.FailReason != "":
		return causeViews[r.Cause].bucket
	case r.PrivVMFailed:
		return "PrivVM failed"
	case !r.NewVMOK:
		return "new VM creation failed"
	case r.AppVMsFailed > 1:
		return "multiple AppVMs lost"
	default:
		return "AppVM lost (1AppVM criterion)"
	}
}

// SuccessRate returns the successful recovery rate over detected runs,
// with its 95% confidence half-width.
func (s Summary) SuccessRate() (rate, ci float64) {
	return proportion(s.RecoverySuccess, s.DetectedCount)
}

// NoVMFRate returns the no-VM-failures rate over detected runs.
func (s Summary) NoVMFRate() (rate, ci float64) {
	return proportion(s.NoVMFCount, s.DetectedCount)
}

// OutcomeRates returns the non-manifested/SDC/detected fractions.
func (s Summary) OutcomeRates() (nonManifested, sdc, detected float64) {
	if s.Runs == 0 {
		return 0, 0, 0
	}
	n := float64(s.Runs)
	return float64(s.NonManifested) / n, float64(s.SDCCount) / n, float64(s.DetectedCount) / n
}

// proportion computes k/n and a 95% CI half-width from the Wilson score
// interval. Unlike the normal approximation, Wilson stays inside [0,1]
// and gives a nonzero width at k=0 and k=n — which matters here because
// recovery campaigns routinely see success rates at or near 100%. The
// Wilson interval is asymmetric around k/n, so the reported half-width is
// the larger of the two distances (the interval [rate-ci, rate+ci] always
// covers it).
func proportion(k, n int) (rate, ci float64) {
	if n == 0 {
		return 0, 0
	}
	const z = 1.96 // 95%
	nf := float64(n)
	p := float64(k) / nf
	z2n := z * z / nf
	denom := 1 + z2n
	center := (p + z2n/2) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return p, math.Max(p-(center-half), (center+half)-p)
}

// Format renders the summary as a report block.
func (s Summary) Format() string {
	var b strings.Builder
	rate, ci := s.SuccessRate()
	nrate, nci := s.NoVMFRate()
	fmt.Fprintf(&b, "%s %s %v, %d runs\n", s.Config.Recovery.Mechanism, s.Config.Setup, s.Config.Fault, s.Runs)
	nm, sdc, det := s.OutcomeRates()
	fmt.Fprintf(&b, "  outcomes: %.1f%% non-manifested, %.1f%% SDC, %.1f%% detected\n",
		100*nm, 100*sdc, 100*det)
	fmt.Fprintf(&b, "  successful recovery: %.1f%% ± %.1f%%  (noVMF %.1f%% ± %.1f%%)\n",
		100*rate, 100*ci, 100*nrate, 100*nci)
	if s.RecoverySuccess > 0 && (s.Config.Recovery.MaxAttempts() > 1 || s.EscalatedRuns > 0) {
		fmt.Fprintf(&b, "  escalated: %d run(s); mean successful-recovery latency: %v\n",
			s.EscalatedRuns, s.MeanSuccessLatency().Round(10*time.Microsecond))
		var attempts []int
		for n := range s.SuccessByAttempt {
			attempts = append(attempts, n)
		}
		sort.Ints(attempts)
		fmt.Fprintf(&b, "  success by attempt:")
		for _, n := range attempts {
			fmt.Fprintf(&b, " %d:%d", n, s.SuccessByAttempt[n])
		}
		fmt.Fprintf(&b, "\n")
	}
	if s.AuditViolations > 0 {
		fmt.Fprintf(&b, "  audit: %d violation(s), %d repaired, %d VM(s) sacrificed\n",
			s.AuditViolations, s.AuditRepaired, s.SacrificedVMs)
	}
	if s.ParallelRepairRuns > 0 {
		fmt.Fprintf(&b, "  parallel repair: %d run(s) over up to %d recovery domains; serialized %v vs parallel %v charged\n",
			s.ParallelRepairRuns, s.RepairDomains,
			s.SerialRepairLatency.Round(10*time.Microsecond),
			s.ParallelRepairLatency.Round(10*time.Microsecond))
	}
	if s.LatencyHist.Count > 0 {
		fmt.Fprintf(&b, "  recovery latency (µs): p50=%d p99=%d max=%d over %d successful run(s)\n",
			s.LatencyHist.Quantile(0.50), s.LatencyHist.Quantile(0.99),
			s.LatencyHist.Max, s.LatencyHist.Count)
	}
	if len(s.PhaseHists) > 0 {
		fmt.Fprintf(&b, "  recovery phase latencies (µs):\n")
		names := make([]string, 0, len(s.PhaseHists))
		for k := range s.PhaseHists {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, n := range names {
			h := s.PhaseHists[n]
			fmt.Fprintf(&b, "    %-62s n=%-5d p50=%-8d p99=%-8d max=%d\n",
				n, h.Count, h.Quantile(0.50), h.Quantile(0.99), h.Max)
		}
	}
	if s.BurstFiredRuns > 0 || s.DuringRecoveryFiredRuns > 0 || s.CorrelatedFiredRuns > 0 {
		fmt.Fprintf(&b, "  adversarial: burst fired in %d run(s), during-recovery in %d run(s), correlated in %d run(s)\n",
			s.BurstFiredRuns, s.DuringRecoveryFiredRuns, s.CorrelatedFiredRuns)
	}
	if len(s.FaultClasses) > 0 {
		fmt.Fprintf(&b, "  fault classes:\n")
		names := make([]string, 0, len(s.FaultClasses))
		for k := range s.FaultClasses {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, n := range names {
			fc := s.FaultClasses[n]
			rate, ci := fc.SuccessRate()
			fmt.Fprintf(&b, "    %-28s runs=%-5d detected=%-5d success=%5.1f%% ±%4.1f%% noVMF=%-4d mean-latency=%v\n",
				n, fc.Runs, fc.Detected, 100*rate, 100*ci, fc.NoVMF,
				fc.MeanSuccessLatency().Round(10*time.Microsecond))
			if fc.AuditRepaired > 0 || fc.AuditDegraded > 0 || fc.AuditEscalate > 0 {
				fmt.Fprintf(&b, "      audit verdicts: %d repaired, %d degraded, %d escalate\n",
					fc.AuditRepaired, fc.AuditDegraded, fc.AuditEscalate)
			}
		}
	}
	if s.SLORuns > 0 {
		slo := &s.SLO
		fmt.Fprintf(&b, "  end-user SLO (%d user(s), %d run(s)):\n", slo.Users, s.SLORuns)
		fmt.Fprintf(&b, "    requests: %d offered, %d completed (%d late), %d timed out, %d failed — goodput %d.%d%%\n",
			slo.Offered, slo.Completed, slo.Delayed, slo.TimedOut, slo.Failed,
			slo.GoodputPermille()/10, slo.GoodputPermille()%10)
		fmt.Fprintf(&b, "    degradation: %.2f user-seconds/run (%d outage(s), %v total outage)\n",
			slo.DegradedUserSeconds()/float64(s.SLORuns), slo.Outages,
			(time.Duration(slo.OutageUs) * time.Microsecond).Round(10*time.Microsecond))
		fmt.Fprintf(&b, "    latency (µs): p50=%d p99=%d max=%d; intervals: %d scored, %d degraded, worst goodput %d‰\n",
			slo.Latency.Quantile(0.50), slo.Latency.Quantile(0.99), slo.Latency.Max,
			slo.Intervals, slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
	if len(s.FailReasons) > 0 {
		fmt.Fprintf(&b, "  failure causes:\n")
		type kv struct {
			k string
			v int
		}
		var sorted []kv
		for k, v := range s.FailReasons {
			sorted = append(sorted, kv{k, v})
		}
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].v != sorted[j].v {
				return sorted[i].v > sorted[j].v
			}
			return sorted[i].k < sorted[j].k
		})
		for _, e := range sorted {
			fmt.Fprintf(&b, "    %-40s %d\n", e.k, e.v)
		}
	}
	if len(s.RootCauses) > 0 {
		fmt.Fprintf(&b, "  root causes (wrong runs):\n")
		causes := make([]string, 0, len(s.RootCauses))
		for k := range s.RootCauses {
			causes = append(causes, k)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(&b, "    %-40s %d\n", c, s.RootCauses[c])
		}
	}
	return b.String()
}
