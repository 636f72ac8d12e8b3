package core

import (
	"fmt"
	"strings"
	"time"

	"nilihype/internal/audit"
	"nilihype/internal/hv"
	"nilihype/internal/recdomain"
	"nilihype/internal/telemetry"
)

// LatencyStep is one itemized recovery step (Tables II and III). Group
// headers have Group set and their Dur is the sum of their members.
type LatencyStep struct {
	Name  string
	Dur   time.Duration
	Group bool
}

// framesAt8GB is the page-frame count of the paper's 8 GB testbed; the
// memory-size-dependent step costs below are the paper's measurements at
// that size and scale linearly with the frame count (§VII-B: "The latency
// of the operation described above is proportional to the size of the
// host memory").
const framesAt8GB = 8 * 1024 * 1024 * 1024 / 4096

// scaleByFrames scales a cost measured at 8 GB to the actual memory size.
func scaleByFrames(at8GB time.Duration, frames int) time.Duration {
	return time.Duration(int64(at8GB) * int64(frames) / framesAt8GB)
}

// frameScanCost is the page-frame consistency walk's cost over frames
// descriptors on n cores. More than one core is the §VII-B mitigation: the
// walk is embarrassingly parallel, so sharding it gives near-linear
// speedup plus a fixed cost for the recovery CPU coordinating the shards.
func frameScanCost(frames, n int) time.Duration {
	cost := scaleByFrames(pfScanCostAt8GB, frames)
	if n > 1 {
		cost = cost/time.Duration(n) + parallelScanCoordCost
	}
	return cost
}

// pfScanCostAt8GB is Table III's dominant entry, the page-frame scan at
// 8 GB; resumeSetupCost is the in-place step charged after the audit.
const (
	pfScanCostAt8GB = 21 * time.Millisecond
	resumeSetupCost = 340 * time.Microsecond
	// parallelScanCoordCost is the fixed IPI/merge overhead of sharding
	// the page-frame scan across cores (the §VII-B mitigation).
	parallelScanCoordCost = 400 * time.Microsecond
	// auditFixedBound upper-bounds the post-recovery audit's units over the
	// non-memory-sized structures (domain list, locks, timers, event
	// channels, grants, linkage apply) for WorstCaseLatency; the attempt
	// itself is charged the audit plan's own per-unit costs.
	auditFixedBound = 1650 * time.Microsecond
)

// ReHype (microreboot) step costs from Table II, measured at 8 GB / 8
// CPUs. Memory-initialization entries scale with memory size.
const (
	rbEarlyBootCPU = 12 * time.Millisecond
	rbCPUsOnline   = 150 * time.Millisecond
	rbAPICSetup    = 200 * time.Millisecond
	rbTSCCalibrate = 50 * time.Millisecond
	rbRecordAlloc  = 21 * time.Millisecond  // scales with memory
	rbPFRestore    = 21 * time.Millisecond  // scales with memory (the shared scan)
	rbReinitDescs  = 13 * time.Millisecond  // scales with memory
	rbRecreateHeap = 211 * time.Millisecond // scales with memory
	rbSMPInit      = 20 * time.Millisecond
	rbRelocateMods = 2 * time.Millisecond
	rbMiscOthers   = 13 * time.Millisecond
)

// beginLatency resets the breakdown.
func (en *Engine) beginLatency() {
	en.Breakdown = nil
	en.Latency = 0
}

// charge appends one itemized step. The repair work executes while the
// clock is frozen at the detection instant, but the modeled span occupies
// [now+cumulative, +d) of virtual time, so the flight recorder gets the
// span stamped at its computed start — the timeline export then renders
// the phase sequence in chronological order.
func (en *Engine) charge(name string, d time.Duration) {
	at := en.H.Clock.Now() + en.totalLatency()
	en.H.Tel.RecordAt(at, en.lastEvent.CPU, telemetry.EvPhase,
		telemetry.PhaseArg(en.H.Tel.Intern(name), d))
	en.Breakdown = append(en.Breakdown, LatencyStep{Name: name, Dur: d})
}

// chargePlan appends one breakdown step whose duration is a
// recovery-domain plan's charged makespan — the max over concurrent
// domains plus the serialized global levels; at one lane, the sum of the
// units — and records every unit's span in the flight recorder at its
// scheduled offset, so the timeline export shows the per-domain phases
// (overlapping where lanes allow) where charge would render one block.
func (en *Engine) chargePlan(name string, tm recdomain.Timing) {
	at := en.H.Clock.Now() + en.totalLatency()
	for _, sp := range tm.Spans {
		en.H.Tel.RecordAt(at+sp.Start, en.lastEvent.CPU, telemetry.EvPhase,
			telemetry.PhaseArg(en.H.Tel.Intern(sp.Name), sp.Dur))
	}
	en.Breakdown = append(en.Breakdown, LatencyStep{Name: name, Dur: tm.Parallel})
}

// Workspace is the recovery engine's reusable storage for one hypervisor:
// the audit walker and the repair plan, kept as data so that an attempt
// rewinds them instead of rebuilding closures, names and shards. A boot
// image keeps one and hands it to each run's engine (Engine.Workspace); an
// engine without one builds its own on first use. A workspace serves one
// engine at a time.
type Workspace struct {
	walker *audit.Walker
	repair recdomain.Plan
	// units holds each unit row's recovery-domain units, indexed like
	// repairSteps. Built once; each multi-lane repair copies the ones its
	// rung enables into the plan's single level.
	units [len(repairSteps)][]recdomain.Unit
}

// NewWorkspace builds the recovery workspace for h.
func NewWorkspace(h *hv.Hypervisor) *Workspace {
	ws := &Workspace{walker: audit.NewWalker(h)}
	ncpu := h.NumCPUs()
	for i := range repairSteps {
		s := &repairSteps[i]
		if s.unit == "" {
			continue
		}
		u := recdomain.Unit{Name: s.unit, Cost: s.cost, Do: func(arg int) { s.do(h, arg) }}
		if !s.perCPU {
			u.Dom.Kind = recdomain.Global
			ws.units[i] = []recdomain.Unit{u}
			continue
		}
		u.Cost /= time.Duration(ncpu)
		for cpu := 0; cpu < ncpu; cpu++ {
			u.Dom = recdomain.Domain{Kind: recdomain.PerCPU, ID: cpu}
			u.Name = fmt.Sprintf("%s.cpu%d", s.unit, cpu)
			u.Arg = cpu
			ws.units[i] = append(ws.units[i], u)
		}
	}
	ws.repair.Levels = []recdomain.Level{{Name: "repair"}}
	return ws
}

// workspace returns the engine's workspace, building one on first use.
func (en *Engine) workspace() *Workspace {
	if en.Workspace == nil {
		en.Workspace = NewWorkspace(en.H)
	}
	return en.Workspace
}

// chargeGroup appends a group header followed by its members. Only the
// members are recorded as phase spans (the header would double-cover the
// same interval).
func (en *Engine) chargeGroup(name string, members ...LatencyStep) {
	at := en.H.Clock.Now() + en.totalLatency()
	var sum time.Duration
	for _, m := range members {
		en.H.Tel.RecordAt(at, en.lastEvent.CPU, telemetry.EvPhase,
			telemetry.PhaseArg(en.H.Tel.Intern(m.Name), m.Dur))
		at += m.Dur
		sum += m.Dur
	}
	en.Breakdown = append(en.Breakdown, LatencyStep{Name: name, Dur: sum, Group: true})
	en.Breakdown = append(en.Breakdown, members...)
}

// Checkpoint-restore costs (§II-B alternative): restoring the post-boot
// memory image replaces the hardware initialization, but the state
// re-integration (Table II's memory-initialization block) remains.
const (
	cpImageRestore = 55 * time.Millisecond // copy-in the post-boot image
	cpAPICRevive   = 18 * time.Millisecond // re-arm local APICs / IO-APIC state
	cpMisc         = 12 * time.Millisecond
)

// chargeBootTable charges a reboot rung's breakdown: Table II's hardware
// initialization, or the checkpoint restore that replaces it (§II-B), then
// the memory re-integration both share. The page-frame scan row is charged
// when the engine performs the scan (EnhPFScan), itself a repair step.
func (en *Engine) chargeBootTable(m Mechanism) {
	frames := en.H.Machine.PageFrames()
	memGroup := "Memory initialization"
	if m == CheckpointRestore {
		en.chargeGroup("Checkpoint restore (replaces hardware init)",
			LatencyStep{Name: "Restore post-boot memory image", Dur: cpImageRestore},
			LatencyStep{Name: "Revive local APICs and IO-APIC state", Dur: cpAPICRevive},
			LatencyStep{Name: "Misc", Dur: cpMisc},
		)
		memGroup = "State re-integration (as in microreboot)"
	} else {
		en.chargeGroup("Hardware initialization",
			LatencyStep{Name: "Early initialize of the boot CPU", Dur: rbEarlyBootCPU},
			LatencyStep{Name: "Initialize and wait for other CPUs to come online", Dur: rbCPUsOnline},
			LatencyStep{Name: "Verify, connect and setup local APIC and setup IO APIC", Dur: rbAPICSetup},
			LatencyStep{Name: "Initialize and calibrate TSC timer", Dur: rbTSCCalibrate},
		)
	}
	mem := [...]LatencyStep{
		{Name: "Record allocated pages of old heap", Dur: scaleByFrames(rbRecordAlloc, frames)},
		{Name: "Restore and check consistency of page frame entries", Dur: scaleByFrames(rbPFRestore, frames)},
		{Name: "Re-initialize the page frame descriptor for un-preserved pages", Dur: scaleByFrames(rbReinitDescs, frames)},
		{Name: "Recreate the new heap", Dur: scaleByFrames(rbRecreateHeap, frames)},
	}
	steps := mem[:]
	if !en.Cfg.Enhancements.Has(EnhPFScan) {
		steps = append(mem[:1], mem[2:]...)
	}
	en.chargeGroup(memGroup, steps...)
	if m != CheckpointRestore {
		en.chargeGroup("Misc",
			LatencyStep{Name: "SMP initialization", Dur: rbSMPInit},
			LatencyStep{Name: "Identify valid page frame, relocate boot up modules", Dur: rbRelocateMods},
			LatencyStep{Name: "Others", Dur: rbMiscOthers},
		)
	}
}

// WorstCaseLatency bounds the modeled recovery cost of one fault under c
// at the given page-frame count: every ladder rung's worst-case attempt
// latency (all enhancements, sequential scan) plus the grace windows
// separating the attempts. Campaigns use it to size run horizons so a
// late injection plus a full escalation cannot truncate the post-recovery
// checks.
func (c Config) WorstCaseLatency(frames int) time.Duration {
	var total time.Duration
	n := c.MaxAttempts()
	for i := 0; i < n; i++ {
		total += mechanismWorstLatency(c.MechanismFor(i), frames)
		if c.Escalation.Audit {
			total += auditFixedBound + scaleByFrames(pfScanCostAt8GB, frames)
		}
	}
	total += time.Duration(n-1) * c.Escalation.GraceWindow
	return total
}

// privVMMaxReattachVMs bounds the surviving-AppVM count the worst-case
// PrivVM-restart attempt re-attaches (the campaign setups attach at most a
// handful; the bound leaves slack).
const privVMMaxReattachVMs = 8

// mechanismWorstLatency upper-bounds one attempt's latency for a
// mechanism at a memory size, assuming every enhancement runs.
func mechanismWorstLatency(m Mechanism, frames int) time.Duration {
	inPlace := resumeSetupCost
	for i := range repairSteps {
		inPlace += repairSteps[i].costOn(frames, 1)
	}
	reintegrate := scaleByFrames(rbRecordAlloc+rbPFRestore+rbReinitDescs+rbRecreateHeap, frames)
	switch {
	case m == CheckpointRestore:
		return cpImageRestore + cpAPICRevive + cpMisc + reintegrate
	case m.Reboots():
		return rbEarlyBootCPU + rbCPUsOnline + rbAPICSetup + rbTSCCalibrate +
			rbSMPInit + rbRelocateMods + rbMiscOthers + reintegrate
	case m == PrivVMRestart:
		// The in-place repairs run first, then the Dom0 reboot and the
		// ring re-attach of every surviving AppVM.
		return inPlace + privVMBootCost + privVMMaxReattachVMs*privVMReattachPerVM
	default:
		return inPlace
	}
}

// totalLatency sums the non-group steps.
func (en *Engine) totalLatency() time.Duration {
	var sum time.Duration
	for _, s := range en.Breakdown {
		if !s.Group {
			sum += s.Dur
		}
	}
	return sum
}

// FormatBreakdown renders the latency breakdown as a Table II/III-style
// listing.
func (en *Engine) FormatBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s recovery latency breakdown:\n", en.Cfg.Mechanism)
	for _, s := range en.Breakdown {
		if s.Group {
			fmt.Fprintf(&b, "  %-62s %8.1fms\n", s.Name+":", ms(s.Dur))
			continue
		}
		fmt.Fprintf(&b, "    - %-58s %8.1fms\n", s.Name, ms(s.Dur))
	}
	fmt.Fprintf(&b, "  %-62s %8.1fms\n", "Total:", ms(en.totalLatency()))
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
