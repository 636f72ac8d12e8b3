// Package campaign orchestrates fault-injection runs and campaigns
// (§VI-C): each run boots a fresh target system, starts the benchmarks,
// injects one fault, runs to completion, and classifies the outcome; a
// campaign aggregates many runs into recovery-rate statistics with 95%
// confidence intervals.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
	"nilihype/internal/inject"
	"nilihype/internal/journal"
	"nilihype/internal/prng"
	"nilihype/internal/telemetry"
	"nilihype/internal/traffic"
)

// Setup selects the target system configuration (§VI-A).
type Setup int

// Setups.
const (
	// OneAppVM: PrivVM plus one AppVM. Used for the enhancement ladder
	// (Table I); success means no VM is affected.
	OneAppVM Setup = iota + 1
	// ThreeAppVM: PrivVM plus UnixBench and NetBench AppVMs, with a
	// BlkBench AppVM created after recovery. Used for Figure 2; success
	// means at most one AppVM affected and the hypervisor still works.
	ThreeAppVM
)

// setupNames is the one name table for setups.
var setupNames = [...]string{OneAppVM: "1AppVM", ThreeAppVM: "3AppVM"}

// String returns the setup name.
func (s Setup) String() string {
	if s <= 0 || int(s) >= len(setupNames) {
		return fmt.Sprintf("setup(%d)", int(s))
	}
	return setupNames[s]
}

// ParseSetup resolves a setup from its name, ignoring case.
func ParseSetup(name string) (Setup, error) {
	for s := OneAppVM; int(s) < len(setupNames); s++ {
		if strings.EqualFold(name, setupNames[s]) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown setup %q", name)
}

// RunConfig parameterizes a single fault-injection run.
type RunConfig struct {
	Seed     uint64
	Setup    Setup
	Fault    inject.FaultType
	Recovery core.Config

	// Workload is the 1AppVM benchmark (ignored for ThreeAppVM).
	Workload guest.Kind

	// Logging enables the §IV retry-mitigation logging (NiLiHype vs
	// NiLiHype*).
	Logging bool

	// BenchDuration is the benchmark run length. The paper uses ~10 s
	// (1AppVM) and ~24 s (3AppVM); the default here is scaled down for
	// campaign throughput — rates do not depend on the duration because
	// the injection time is uniform within the window.
	BenchDuration time.Duration

	// MemoryMB sizes the machine (campaigns default to 1 GB: recovery
	// rates are memory-independent; the latency experiments use 8 GB).
	MemoryMB int

	// NoInjection runs the workload with no fault (baseline runs for
	// the overhead experiment).
	NoInjection bool

	// BurstWindow, when positive, arms a second fault within that window
	// after the first fires (adversarial burst-fault campaigns).
	BurstWindow time.Duration
	// BurstFault selects the burst fault's type (zero = same as Fault).
	BurstFault inject.FaultType
	// FaultDuringRecovery arms an extra fault trigger when recovery
	// pauses the system, so corruption lands while recovery itself runs.
	FaultDuringRecovery bool
	// DuringFault selects the fault-during-recovery fault's type (zero =
	// same as Fault); e.g. a PrivVM hang beginning while a microreset is
	// already in flight.
	DuringFault inject.FaultType

	// CorrelatedReinjection re-injects into the same structural cell the
	// original latent corruption damaged, shortly after an audit accepts
	// a degraded verdict — the fault-while-degraded scenario.
	CorrelatedReinjection bool

	// HVM runs the AppVMs under full hardware virtualization (§VI-A:
	// injection results for HVM AppVMs are very similar to PV).
	HVM bool

	// FlightRecorderCapacity overrides the always-on telemetry flight
	// ring size (0 = hv.DefaultFlightRecorderCapacity). The capacity
	// shapes the boot image, so runs differing in it fork from separate
	// snapshots.
	FlightRecorderCapacity int

	// Traffic, when enabled (Users > 0), arms the open-loop end-user
	// population against the run: Result.SLO then scores what those users
	// experienced through the recovery window. Traffic is armed after the
	// snapshot restore (like the NetBench sender), so it does not shape
	// the boot image and runs differing only in it share one.
	Traffic traffic.Config
}

// Defaults for scaled-down campaign runs.
const (
	defaultBenchDuration = 3 * time.Second
	defaultMemoryMB      = 1024
	heapFrames           = 32768
	privVMCPU            = 0
	unixCPU              = 1
	netCPU               = 2
	blkCPU               = 3
	unixDom              = 1
	netDom               = 2
	blkDom               = 3
)

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Setup == 0 {
		rc.Setup = ThreeAppVM
	}
	if rc.Workload == 0 {
		rc.Workload = guest.UnixBench
	}
	if rc.BenchDuration == 0 {
		rc.BenchDuration = defaultBenchDuration
	}
	if rc.MemoryMB == 0 {
		rc.MemoryMB = defaultMemoryMB
	}
	if rc.Recovery.Mechanism == 0 {
		rc.Recovery = core.DefaultConfig()
	}
	return rc
}

// FaultClass names the run's fault class for the per-fault-class recovery
// matrix: the primary fault type, suffixed with the during-recovery type
// when it differs, and prefixed when the correlated fault-while-degraded
// re-injection is armed. Baseline runs are "none".
func (rc RunConfig) FaultClass() string {
	if rc.NoInjection {
		return "none"
	}
	name := rc.Fault.Key()
	if rc.FaultDuringRecovery && rc.DuringFault != 0 && rc.DuringFault != rc.Fault {
		name += "+during-" + rc.DuringFault.Key()
	}
	if rc.CorrelatedReinjection {
		name = "correlated-" + name
	}
	return name
}

// isPrivVMFault reports whether f targets the PrivVM (detected by the
// management-call watchdog rather than panics or soft-tick staleness).
func isPrivVMFault(f inject.FaultType) bool {
	return f == inject.PrivVMCrash || f == inject.PrivVMHang
}

// wantsMgmtWatchdog reports whether the run needs the management-call
// watchdog criterion: it injects a PrivVM fault through any trigger, or
// its ladder carries the PrivVM-restart rung (whose escalations are driven
// by that watchdog).
func (rc RunConfig) wantsMgmtWatchdog() bool {
	if isPrivVMFault(rc.Fault) || isPrivVMFault(rc.BurstFault) {
		return true
	}
	if rc.FaultDuringRecovery && isPrivVMFault(rc.DuringFault) {
		return true
	}
	for _, m := range rc.Recovery.Escalation.Ladder {
		if m == core.PrivVMRestart {
			return true
		}
	}
	return false
}

// wantsIRQCriterion reports whether the run needs the IRQ-delivery
// criterion (it injects device/IO-APIC corruption through any trigger).
func (rc RunConfig) wantsIRQCriterion() bool {
	return rc.Fault == inject.DeviceIOAPIC || rc.BurstFault == inject.DeviceIOAPIC ||
		(rc.FaultDuringRecovery && rc.DuringFault == inject.DeviceIOAPIC)
}

// Outcome classifies one run (§VII-A).
type Outcome int

// Outcomes.
const (
	// NonManifested: no abnormal behavior, benchmarks produce correct
	// output, detectors silent.
	NonManifested Outcome = iota + 1
	// SDC: detectors silent but at least one benchmark failed.
	SDC
	// Detected: a detector fired (recovery was attempted).
	Detected
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case NonManifested:
		return "non-manifested"
	case SDC:
		return "SDC"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// VMResult is one AppVM's verdict.
type VMResult struct {
	Dom    int
	Kind   guest.Kind
	OK     bool
	Reason string
}

// Result is one run's outcome.
//
// Recycling contract (copy-on-retain): the campaign executor reuses one
// Result's backing arrays per boot image, so a Result delivered through
// Campaign.OnResult — and its slice fields — is valid only until the
// callback returns. Consumers that aggregate in place (the Summary) need
// nothing; consumers that retain a Result past the callback must keep a
// Clone.
type Result struct {
	Seed    uint64
	Outcome Outcome
	// FaultClass is the run's fault-class name (RunConfig.FaultClass) —
	// carried per run because the executor's workers aggregate partial
	// Summaries whose Config is zero.
	FaultClass string

	// Detected/Recovered mirror the engine's state.
	Detected  bool
	Recovered bool
	// FailReason is the recovery-failure reason, if any. Cause is the
	// terminal failure's cause, or for a run that ended recovered, its
	// first failed attempt's (hv.CauseNone if no attempt failed).
	FailReason string
	Cause      hv.Cause

	// VMs are the initial AppVMs' verdicts; AppVMsFailed counts those
	// that failed.
	VMs          []VMResult
	AppVMsFailed int
	// PrivVMFailed reports Dom0 failure (fatal to "operating correctly").
	PrivVMFailed bool
	// NewVMOK reports the post-recovery BlkBench creation check
	// (ThreeAppVM only; true when not applicable).
	NewVMOK bool

	// Success / NoVMF per the paper's definitions (§VII-A).
	Success bool
	NoVMF   bool

	// Attempts counts recovery attempts (0 if none; >1 means the engine
	// escalated); Escalated mirrors Attempts > 1.
	Attempts  int
	Escalated bool

	// Injection diagnostics.
	InjectionFired bool
	FaultEffect    string
	InjectionAt    string
	RecoveryAt     time.Duration
	// Latency is the total modeled recovery latency across all attempts.
	Latency time.Duration

	// Adversarial-injection diagnostics: the burst fault, the
	// fault-during-recovery trigger, and the correlated
	// fault-while-degraded re-injection, when configured and fired.
	BurstFired          bool
	BurstEffect         string
	DuringRecoveryFired bool
	DuringEffect        string
	CorrelatedFired     bool

	// Audit results (EscalationPolicy.Audit): violations found, repairs
	// applied, escalate verdicts, and AppVMs sacrificed across all
	// attempts.
	AuditViolations  int
	AuditRepaired    int
	AuditEscalations int
	SacrificedVMs    []int

	// Recovery-domain accounting (Recovery.RepairCPUs > 1): the distinct
	// domains the partitioned repair and audit phases touched across all
	// attempts, what those phases would have cost fully serialized, and
	// what the parallel schedule actually charged. Zero on the serial
	// path.
	RepairDomains         int
	SerialRepairLatency   time.Duration
	ParallelRepairLatency time.Duration

	// Phases flattens the recovery attempts' non-group latency steps, in
	// execution order — the per-phase samples the campaign summary
	// histograms aggregate.
	Phases []core.LatencyStep

	// Flight is the telemetry flight-recorder tail, captured for any run
	// that fails recovery, escalates, or accepts degraded service — the
	// forensic record of what the system was doing when the recovery
	// story went sideways.
	Flight []string

	// Journal is the causal recovery journal, exported for the same runs
	// Flight is captured for: the fault → detect → attempt → disposition
	// event chain with span/cause links.
	Journal []journal.Entry

	// Corruptions lists the injector's structural-corruption cells, in
	// the order damaged; captured alongside Journal.
	Corruptions []string

	// Windows are the engine's per-attempt user-visible outage windows;
	// captured alongside Journal.
	Windows []core.Window

	// RootCause is the forensic root-cause classification
	// (classifyRootCause) for failed/escalated/degraded runs; empty for
	// clean runs.
	RootCause string

	// SLO is the run's end-user traffic outcome (nil unless
	// RunConfig.Traffic is enabled). Like the slice fields, it points into
	// image-owned scratch — Clone deep-copies it.
	SLO *traffic.SLO
}

// WentWrong reports whether the run's recovery story went sideways: it
// failed, escalated, or held only by sacrificing AppVMs. These are the
// runs that carry Flight, Journal and a RootCause.
func (r *Result) WentWrong() bool {
	return r.Detected && (!r.Success || r.Escalated || len(r.SacrificedVMs) > 0)
}

// Clone returns a deep copy whose slices alias nothing: the copy to keep
// when retaining a Result past an OnResult callback (the executor recycles
// the original's backing arrays into the next run).
func (r Result) Clone() Result {
	r.VMs = append([]VMResult(nil), r.VMs...)
	r.SacrificedVMs = append([]int(nil), r.SacrificedVMs...)
	r.Phases = append([]core.LatencyStep(nil), r.Phases...)
	r.Flight = append([]string(nil), r.Flight...)
	r.Journal = append([]journal.Entry(nil), r.Journal...)
	r.Corruptions = append([]string(nil), r.Corruptions...)
	r.Windows = append([]core.Window(nil), r.Windows...)
	if r.SLO != nil {
		slo := *r.SLO
		r.SLO = &slo
	}
	return r
}

// reset rewinds r for the next run, retaining the backing arrays grown by
// previous runs. Flight, Journal, Corruptions and Windows are handed over
// whole by their producers, so they restart nil
// rather than recycling.
func (r *Result) reset(seed uint64) {
	*r = Result{
		Seed:          seed,
		NewVMOK:       true,
		VMs:           r.VMs[:0],
		SacrificedVMs: r.SacrificedVMs[:0],
		Phases:        r.Phases[:0],
	}
}

// normalized nils out empty slice fields, so a Result assembled in recycled
// scratch is bit-identical (reflect.DeepEqual) to one assembled cold — a
// leftover non-nil zero-length array from a busier previous run must not
// show through.
func (r Result) normalized() Result {
	if len(r.VMs) == 0 {
		r.VMs = nil
	}
	if len(r.SacrificedVMs) == 0 {
		r.SacrificedVMs = nil
	}
	if len(r.Phases) == 0 {
		r.Phases = nil
	}
	return r
}

// run executes one fault-injection run on the image: restore the pristine
// snapshot (unless this is the first use of a fresh boot), re-arm all
// per-run state (RNG streams, engine, detector, workload seeds,
// injector), run to completion and classify.
func (img *image) run(rc RunConfig) Result {
	rc = rc.withDefaults()
	res := &img.res
	res.reset(rc.Seed)
	clk, h, world := img.clk, img.h, img.world

	if img.used {
		h.Restore(img.snap)
		world.Restore(img.wsnap)
	}
	img.used = true

	// Rewind both RNG streams to the position a cold boot with this seed
	// would have (no-ops on a fresh boot).
	h.ReseedRun(rc.Seed)
	world.Reseed(rc.Seed ^ 0x5eed)

	engine := core.NewEngine(h, rc.Recovery)
	img.engine = engine
	img.det.Reset()
	// Detection criteria are opt-in per run (images are shared across
	// configurations, so both directions must be set every time). Enabling
	// them adds no clock events and draws no randomness — legacy runs'
	// timelines are untouched.
	img.det.SetCriteria(rc.wantsMgmtWatchdog(), rc.wantsIRQCriterion())
	engine.Det = img.det
	engine.Workspace = img.ws
	// The PrivVM-restart rung re-created Dom0 inside the hypervisor; the
	// guest world re-arms its management service (housekeeping tick,
	// domctl capability) against the fresh domain.
	engine.OnPrivVMRestart = world.ResumePrivVM

	// Benchmarks: seed each pre-created VM in creation order (consuming
	// the world stream exactly like the legacy boot-per-run path), then
	// start the external sender and the workloads.
	apps := img.apps[:0]
	for _, cfg := range img.appCfgs {
		world.SeedAppVM(cfg.Dom)
		apps = append(apps, world.App(cfg.Dom))
	}
	img.apps = apps
	switch rc.Setup {
	case OneAppVM:
		if rc.Workload == guest.NetBench {
			world.Sender.Start(unixDom, rc.BenchDuration)
		}
	default:
		world.Sender.Start(netDom, rc.BenchDuration)
	}
	world.StartAll()

	// The open-loop user population, armed after the restore like the
	// sender so it is absent from the boot image. Its outage bracket is
	// pause→stable-resume: OnPause fires at every attempt's stop-the-world
	// (ServiceDown is idempotent across escalations), OnResume only when an
	// attempt stably re-enabled guest execution — a rung that failed before
	// resuming leaves service down into the next rung, exactly what its
	// users saw.
	var traf *traffic.Engine
	if rc.Traffic.Enabled() {
		if img.traffic == nil || img.trafficCfg != rc.Traffic {
			img.traffic = traffic.New(rc.Traffic)
			img.trafficCfg = rc.Traffic
		}
		traf = img.traffic
		traf.Start(clk, h.Tel, rc.BenchDuration)
		engine.OnPause = traf.ServiceDown
	}

	// Every attempt's resume extends the announced outage window: the
	// NetBench reception criterion must not penalize the recovery gap,
	// including the grace windows and repair time of escalated attempts.
	engine.OnResume = func() {
		if engine.FirstDetection != nil {
			world.Sender.ExcludeWindow(engine.FirstDetection.At, clk.Now())
		}
		if traf != nil {
			traf.ServiceUp()
		}
	}
	// The post-recovery functionality check (ThreeAppVM): create a new
	// BlkBench AppVM shortly after recovery is stable (for escalating
	// configurations, after the last grace window passes quietly).
	var blkVM *guest.AppVM
	engine.OnRecovered = func() {
		if rc.Setup != ThreeAppVM {
			return
		}
		clk.After(newVMDelay, "create-third-vm", func() {
			if failed, _ := h.Failed(); failed {
				return
			}
			ok := world.PrivCreateDomain(hypercall.CreateSpec{
				ID: blkDom, Name: "BlkBench", MemPages: guest.DefaultMemPages, PinCPU: blkCPU,
			})
			if failed, _ := h.Failed(); failed || !ok {
				res.NewVMOK = false
				return
			}
			blkVM = world.AttachAppVM(guest.Config{
				Kind: guest.BlkBench, Dom: blkDom, CPU: blkCPU,
				Duration: rc.BenchDuration / 3,
			})
			blkVM.Start()
		})
	}
	if rc.Setup == ThreeAppVM {
		res.NewVMOK = false // must be proven by the check
	}

	// Fault injection: the first-level trigger window is "well past the
	// start ... while leaving most of their execution to occur after
	// recovery" (§VI-C), scaled to the benchmark duration.
	var injector *inject.Injector
	if !rc.NoInjection {
		injRNG := prng.New(rc.Seed, 0xfa17)
		injector = inject.New(h, world, injRNG, inject.Params{
			Type:                  rc.Fault,
			WindowLo:              rc.BenchDuration / 10,
			WindowHi:              rc.BenchDuration / 2,
			AppDomains:            appDomains(rc.Setup),
			BurstWindow:           rc.BurstWindow,
			BurstFault:            rc.BurstFault,
			FaultDuringRecovery:   rc.FaultDuringRecovery,
			DuringFault:           rc.DuringFault,
			CorrelatedReinjection: rc.CorrelatedReinjection,
		})
		injector.Schedule()
		if rc.CorrelatedReinjection {
			engine.OnAuditDegraded = injector.OnDegradedVerdict
		}
	}

	// Run to completion.
	clk.RunUntil(runHorizon(rc))

	// --- classification ---------------------------------------------------

	if injector != nil {
		res.InjectionFired = injector.Fired
		res.FaultEffect = injector.FaultEffect.String()
		if injector.Fired {
			res.InjectionAt = fmt.Sprintf("%s @%s", injector.Point.Activity, injector.Point.StepName)
		}
		res.BurstFired = injector.BurstFired
		res.BurstEffect = injector.BurstEffect.String()
		res.DuringRecoveryFired = injector.DuringRecoveryFired
		res.DuringEffect = injector.DuringEffect.String()
		res.CorrelatedFired = injector.CorrelatedFired
	}
	res.FaultClass = rc.FaultClass()
	res.AuditViolations = engine.AuditViolations
	res.AuditRepaired = engine.AuditRepaired
	for i := range engine.Attempts {
		if a := engine.Attempts[i].Audit; a != nil {
			res.AuditEscalations += a.Escalations
		}
	}
	res.SacrificedVMs = append(res.SacrificedVMs, engine.SacrificedVMs...)
	res.RepairDomains = engine.RepairTiming.Domains
	res.SerialRepairLatency = engine.RepairTiming.Serial
	res.ParallelRepairLatency = engine.RepairTiming.Parallel
	res.Detected = engine.FirstDetection != nil
	res.Recovered = engine.Recovered()
	res.FailReason, res.Cause = engine.FailReason, engine.FailCause
	if res.Cause == hv.CauseNone && len(engine.Attempts) > 0 {
		// No terminal failure: an escalated run's first attempt failed.
		res.Cause = engine.Attempts[0].FailCause
	}
	if engine.FirstDetection != nil {
		res.RecoveryAt = engine.FirstDetection.At
		res.Latency = engine.TotalLatency()
	}
	res.Attempts = len(engine.Attempts)
	res.Escalated = engine.Escalated()
	res.PrivVMFailed = world.PrivVMFailed()
	for i := range engine.Attempts {
		for _, st := range engine.Attempts[i].Breakdown {
			if !st.Group {
				res.Phases = append(res.Phases, st)
			}
		}
	}

	for _, vm := range apps {
		ok, reason := vm.Verdict()
		if ok && vm.Cfg.Kind == guest.NetBench && world.Sender.FailedIntervals() > 0 {
			ok = false
			reason = fmt.Sprintf("reception rate dropped >10%% in %d interval(s)", world.Sender.FailedIntervals())
		}
		res.VMs = append(res.VMs, VMResult{Dom: vm.Cfg.Dom, Kind: vm.Cfg.Kind, OK: ok, Reason: reason})
		if !ok {
			res.AppVMsFailed++
		}
	}

	if rc.Setup == ThreeAppVM && res.Detected && res.Recovered && blkVM != nil {
		res.NewVMOK, _ = blkVM.Verdict()
	}

	switch {
	case !res.Detected:
		allOK := !res.PrivVMFailed
		for _, v := range res.VMs {
			allOK = allOK && v.OK
		}
		if allOK {
			res.Outcome = NonManifested
		} else {
			res.Outcome = SDC
		}
	default:
		res.Outcome = Detected
		recovered := res.Recovered && res.FailReason == ""
		switch rc.Setup {
		case OneAppVM:
			// 1AppVM: success means no VM affected (§VII-A).
			res.Success = recovered && !res.PrivVMFailed && res.AppVMsFailed == 0
			res.NoVMF = res.Success
		default:
			// 3AppVM: at most one AppVM affected, PrivVM alive, and the
			// hypervisor still able to create and run new VMs.
			res.Success = recovered && !res.PrivVMFailed && res.AppVMsFailed <= 1 && res.NewVMOK
			res.NoVMF = res.Success && res.AppVMsFailed == 0
		}
	}

	// Close the traffic run: a terminal failure means service never came
	// back (the halted clock pins Now() at the failure instant, which is
	// when the population stopped being served), then the purely
	// arithmetic Finish scores everything through the measurement horizon.
	if traf != nil {
		if failed, _ := h.Failed(); failed {
			traf.ServiceDown()
		}
		img.slo = *traf.Finish()
		res.SLO = &img.slo
	}

	// Sample the end-of-run gauges, and for any run whose recovery story
	// went wrong, dump the flight-recorder tail as the forensic record.
	h.Tel.SetGauge(telemetry.GaugeHeldLocks, int64(h.Locks.HeldCount()))
	h.Tel.SetGauge(telemetry.GaugeLiveDomains, int64(h.Domains.Len()))
	h.Tel.SetGauge(telemetry.GaugeClockQueueHighWater, int64(clk.QueueHighWater()))
	h.Tel.SetGauge(telemetry.GaugeHypervisorCycles, int64(h.Machine.HypervisorCycles()))
	h.Jrn.Disposition(clk.Now(), engine.Status().String(), res.FailReason)
	if res.WentWrong() {
		res.Flight = h.Tel.FlightTail(flightTailLen)
		res.Journal = h.Jrn.Export()
		if injector != nil {
			res.Corruptions = append([]string(nil), injector.Corruptions...)
		}
		res.Windows = engine.RecoveryWindows()
		res.RootCause = classifyRootCause(*res)
	}
	return res.normalized()
}

// flightTailLen bounds the flight-recorder tail a failed or escalated run
// carries in its Result — long enough for the injection, detection, the
// recovery phases and the failing aftermath; short enough that campaigns
// with many failures stay cheap.
const flightTailLen = 64

// TraceRun executes one cold-boot run and returns the Result, the final
// telemetry state — the metrics registry, histograms and flight ring the
// trace tooling renders — and the full journal export (the Result only
// carries the journal for wrong runs; the trace view wants it always).
// Callers wanting a deeper ring set rc.FlightRecorderCapacity.
func TraceRun(rc RunConfig) (Result, *telemetry.Telemetry, []journal.Entry) {
	rc = rc.withDefaults()
	img, err := buildImage(rc)
	if err != nil {
		return Result{Seed: rc.Seed, NewVMOK: true, FailReason: err.Error()}, nil, nil
	}
	res := img.run(rc)
	return res, img.h.Tel, img.h.Jrn.Export()
}

// Horizon components: injection can land as late as BenchDuration/2; each
// detection needs up to StaleChecks+2 watchdog periods (hang declaration
// plus phase and latent-activation slack); recovery adds the
// configuration's worst-case latency including escalation grace windows;
// the post-recovery BlkBench VM starts newVMDelay after stable recovery
// and runs BenchDuration/3; postRunSettle covers benchmark verdict
// bookkeeping (block-queue drain, final iterations, sender intervals).
const (
	newVMDelay = 150 * time.Millisecond
	// detectionSlack must cover every watchdog's declaration time: the
	// hang watchdog's StaleChecks and the management-call watchdog's
	// MgmtStaleChecks both count checks at the Period cadence (currently
	// equal, so legacy horizons are bit-identical).
	detectionSlack   = (max(detect.StaleChecks, detect.MgmtStaleChecks) + 2) * detect.Period
	postRunSettle    = 750 * time.Millisecond
	legacyHorizonPad = 2 * time.Second
)

// runHorizon derives the simulation horizon from the run's own timing
// components so the post-recovery checks always fit. The horizon used to
// be a fixed BenchDuration + 2s, which a late injection plus a slow
// recovery (microreboot at large memory, or an escalated hybrid ladder)
// could overrun — the BlkBench check was cut off mid-run and a successful
// recovery was misclassified as "new VM creation failed". The fixed value
// is kept as a floor so short-recovery configurations keep their exact
// historical timelines.
func runHorizon(rc RunConfig) time.Duration {
	rc = rc.withDefaults()
	frames := rc.MemoryMB * (1024 * 1024 / 4096)
	derived := rc.BenchDuration/2 +
		time.Duration(rc.Recovery.MaxAttempts())*detectionSlack +
		rc.Recovery.WorstCaseLatency(frames) +
		newVMDelay + rc.BenchDuration/3 + postRunSettle
	if floor := rc.BenchDuration + legacyHorizonPad; derived < floor {
		return floor
	}
	return derived
}

func appDomains(s Setup) []int {
	if s == OneAppVM {
		return []int{unixDom}
	}
	return []int{unixDom, netDom}
}
