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

// bootStep is one row of a boot table, its cost measured at 8 GB / 8 CPUs.
// scan marks the page-frame scan, which runs only with EnhPFScan.
type bootStep struct {
	name string
	cost time.Duration
	scan bool
}

// memReintegration is Table II's memory initialization, in both tables.
var memReintegration = []bootStep{
	{name: "Record allocated pages of old heap", cost: 21 * time.Millisecond},
	{name: "Restore and check consistency of page frame entries", cost: pfScanCostAt8GB, scan: true},
	{name: "Re-initialize the page frame descriptor for un-preserved pages", cost: 13 * time.Millisecond},
	{name: "Recreate the new heap", cost: 211 * time.Millisecond},
}

// bootTables holds each reboot rung's boot costs by group, and whether a
// group's costs scale with memory size: Table II, and the checkpoint
// restore that replaces its hardware initialization (§II-B).
var bootTables = [len(mechanismNames)][]struct {
	name   string
	scales bool
	steps  []bootStep
}{
	Microreboot: {
		{"Hardware initialization", false, []bootStep{
			{name: "Early initialize of the boot CPU", cost: 12 * time.Millisecond},
			{name: "Initialize and wait for other CPUs to come online", cost: 150 * time.Millisecond},
			{name: "Verify, connect and setup local APIC and setup IO APIC", cost: 200 * time.Millisecond},
			{name: "Initialize and calibrate TSC timer", cost: 50 * time.Millisecond},
		}},
		{"Memory initialization", true, memReintegration},
		{"Misc", false, []bootStep{
			{name: "SMP initialization", cost: 20 * time.Millisecond},
			{name: "Identify valid page frame, relocate boot up modules", cost: 2 * time.Millisecond},
			{name: "Others", cost: 13 * time.Millisecond},
		}},
	},
	CheckpointRestore: {
		{"Checkpoint restore (replaces hardware init)", false, []bootStep{
			{name: "Restore post-boot memory image", cost: 55 * time.Millisecond},
			{name: "Revive local APICs and IO-APIC state", cost: 18 * time.Millisecond},
			{name: "Misc", cost: 12 * time.Millisecond},
		}},
		{"State re-integration (as in microreboot)", true, memReintegration},
	},
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

// chargeBootTable charges reboot rung m's boot table; the scan row only
// when the engine performs the scan, itself a repair row.
func (en *Engine) chargeBootTable(m Mechanism) {
	frames := en.H.Machine.PageFrames()
	for _, g := range bootTables[m] {
		steps := make([]LatencyStep, 0, 4)
		for _, s := range g.steps {
			if g.scales {
				s.cost = scaleByFrames(s.cost, frames)
			}
			if !s.scan || en.Cfg.Enhancements.Has(EnhPFScan) {
				steps = append(steps, LatencyStep{Name: s.name, Dur: s.cost})
			}
		}
		en.chargeGroup(g.name, steps...)
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
// mechanism at a memory size, assuming every enhancement runs: on a reboot
// rung every boot row, the scan included.
func mechanismWorstLatency(m Mechanism, frames int) (total time.Duration) {
	for _, g := range bootTables[m] {
		var sum time.Duration
		for _, s := range g.steps {
			sum += s.cost
		}
		if g.scales {
			sum = scaleByFrames(sum, frames)
		}
		total += sum
	}
	if !m.Reboots() {
		total += resumeSetupCost
		for i := range repairSteps {
			total += repairSteps[i].costOn(frames, 1)
		}
	}
	if m == PrivVMRestart {
		// The in-place repairs run first, then the Dom0 reboot and the
		// ring re-attach of every surviving AppVM.
		total += privVMBootCost + privVMMaxReattachVMs*privVMReattachPerVM
	}
	return total
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
