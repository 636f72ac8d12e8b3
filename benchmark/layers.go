package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"nilihype/internal/audit"
	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/journal"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
	"nilihype/internal/traffic"
	"nilihype/internal/xentime"
)

// tracedShare is the traced pass's size relative to the untraced run.
const tracedShare = 5

// effort sizes the traced pass's probes and side campaigns.
type effort struct {
	// traceRunSeeds is how many cold-boot TraceRun runs the exact per-run
	// counts are averaged over.
	traceRunSeeds int
	// sideRuns sizes the two traffic side campaigns (microreset and
	// microreboot under 1 M users).
	sideRuns int
	// rounds is how many times every probe is taken; loopOps is the
	// iteration count of one per-operation probe loop.
	rounds, loopOps int
}

func (o options) effort() effort {
	if o.quick {
		return effort{traceRunSeeds: 1, sideRuns: 10, rounds: 2, loopOps: 2000}
	}
	return effort{traceRunSeeds: 3, sideRuns: 200, rounds: 8, loopOps: 20_000}
}

// probes collects host-time samples per probe name and records a span per
// probe call. A metric is the smallest of its samples: neighbour
// interference on the reference box only ever adds time (see
// undisturbedQuantile), and a probe has too few samples for a quantile.
type probes struct {
	effort
	tr      *tracer
	root    int
	samples map[string][]float64
	// wheelTicks is the exact tick count of the traffic wheel over one
	// benchmark duration.
	wheelTicks uint64
}

// time runs fn once as a span under parent and keeps its duration as one
// sample of name, in ns.
func (ps *probes) time(parent int, name string, fn func()) time.Duration {
	d := ps.tr.timed(parent, name, fn)
	ps.samples[name] = append(ps.samples[name], float64(d.Nanoseconds()))
	return d
}

// loop times n calls of fn as one span and keeps the per-call cost.
func (ps *probes) loop(name string, n int, fn func()) {
	d := ps.tr.timed(ps.root, name, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	})
	ps.samples[name] = append(ps.samples[name], float64(d.Nanoseconds())/float64(n))
}

func (ps *probes) ns(name string) float64 {
	if vs := ps.samples[name]; len(vs) > 0 {
		return slices.Min(vs)
	}
	return 0
}

// rig is a target system the harness builds itself through the packages'
// public API, the way examples/quickstart does and with the shape
// campaign's image has: platform booted, PrivVM ticking, detectors armed,
// AppVM domains created, snapshot taken before any benchmark starts.
type rig struct {
	rc    campaign.RunConfig
	clk   *simclock.Clock
	h     *hv.Hypervisor
	world *guest.World
	det   *detect.Detector
	apps  []guest.Config

	snap  *hv.Snapshot
	wsnap *guest.WorldSnapshot
	parts restoreParts

	// detections counts detector firings on the rig; a fault-free run
	// must raise none.
	detections int
}

// restoreParts are the per-subsystem snapshots hv.Snapshot takes
// internally, taken here one by one at the same instant so each
// sub-restore can be called and timed on its own.
type restoreParts struct {
	clock   *simclock.Snapshot
	machine *hw.Snapshot
	locks   *locking.Snapshot
	frames  *mm.FrameTableSnapshot
	heap    *mm.HeapSnapshot
	sched   *sched.Snapshot
	timers  *xentime.Snapshot
	domains *dom.Snapshot
	broker  *evtchn.BrokerSnapshot
	tel     *telemetry.Snapshot
	jrn     *journal.Snapshot
	doms    []domainParts
}

type domainParts struct {
	d        *dom.Domain
	events   *evtchn.TableSnapshot
	grants   *grant.TableSnapshot
	maptrack *grant.MaptrackSnapshot
}

// The guest placement campaign uses: UnixBench on dom 1/CPU 1, NetBench on
// dom 2/CPU 2.
func rigApps(rc campaign.RunConfig) []guest.Config {
	if rc.Setup == campaign.OneAppVM {
		return []guest.Config{{Kind: rc.Workload, Dom: 1, CPU: 1, Duration: rc.BenchDuration}}
	}
	return []guest.Config{
		{Kind: guest.UnixBench, Dom: 1, CPU: 1, Duration: rc.BenchDuration},
		{Kind: guest.NetBench, Dom: 2, CPU: 2, Duration: rc.BenchDuration},
	}
}

func buildRig(rc campaign.RunConfig, ps *probes) (*rig, error) {
	r := &rig{rc: rc, apps: rigApps(rc), clk: simclock.New()}
	cfg := hv.DefaultConfig()
	cfg.Machine.CPUs = campaign.MachineCPUs
	cfg.Machine.MemoryMB = rc.MemoryMB
	cfg.LoggingEnabled = rc.Logging

	build := ps.tr.begin(ps.root, "campaign.image_build")
	start := time.Now()
	var err error
	ps.time(build, "hv.boot", func() {
		if r.h, err = hv.New(r.clk, cfg); err == nil {
			err = r.h.Boot()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("rig boot: %w", err)
	}
	r.h.SetSchedFluxProb(hv.DefaultSchedFluxProb)
	r.world = guest.NewWorld(r.h, 1)
	r.world.StartPrivVM()
	r.det = detect.New(r.h, func(detect.Event) { r.detections++ })
	r.det.Start()
	for _, app := range r.apps {
		if _, err := r.world.CreateAppVM(app); err != nil {
			return nil, fmt.Errorf("rig guest: %w", err)
		}
	}
	ps.time(build, "hv.snapshot", func() { r.snap = r.h.Snapshot() })
	r.wsnap = r.world.Snapshot()
	ps.tr.end(build)
	ps.samples["campaign.image_build"] = append(ps.samples["campaign.image_build"], float64(time.Since(start).Nanoseconds()))

	h := r.h
	r.parts = restoreParts{
		clock: h.Clock.Snapshot(), machine: h.Machine.Snapshot(), locks: h.Locks.Snapshot(),
		frames: h.Frames.Snapshot(), heap: h.Heap.Snapshot(), sched: h.Sched.Snapshot(),
		timers: h.Timers.Snapshot(), domains: h.Domains.Snapshot(), broker: h.Broker.Snapshot(),
		tel: h.Tel.Snapshot(), jrn: h.Jrn.Snapshot(),
	}
	doms, err := h.Domains.All()
	if err != nil {
		return nil, fmt.Errorf("rig domains: %w", err)
	}
	for _, d := range doms {
		r.parts.doms = append(r.parts.doms, domainParts{
			d: d, events: d.Events.Snapshot(), grants: d.GrantTab.Snapshot(), maptrack: d.Maptrack.Snapshot(),
		})
	}
	return r, nil
}

// restore rewinds the rig to its pristine snapshot.
func (r *rig) restore() {
	r.h.Restore(r.snap)
	r.world.Restore(r.wsnap)
}

// reseed re-arms the per-run state after a restore, as a campaign run
// does: both RNG streams, the detector, and each AppVM's workload seed.
func (r *rig) reseed(seed uint64) {
	r.h.ReseedRun(seed)
	r.world.Reseed(seed)
	r.det.Reset()
	for _, app := range r.apps {
		r.world.SeedAppVM(app.Dom)
	}
}

// runFaultFree starts the benchmarks and runs the event loop to the given
// horizon with no fault injected.
func (r *rig) runFaultFree(horizon time.Duration) {
	for _, app := range r.apps {
		if app.Kind == guest.NetBench {
			r.world.Sender.Start(app.Dom, r.rc.BenchDuration)
		}
	}
	r.world.StartAll()
	r.clk.RunUntil(horizon)
}

// restoreByParts calls every sub-restore of hv.Restore on its own, in the
// same order, each through time (which records one child span per call).
// The event-channel and grant tables are restored inside dom.List.Restore;
// they are called again by themselves for their own figures and left out
// of the cover sum.
func (r *rig) restoreByParts(time func(name string, fn func())) {
	h, p := r.h, &r.parts
	time("simclock.restore", func() { h.Clock.Restore(p.clock) })
	time("hw.restore", func() { h.Machine.Restore(p.machine) })
	time("locking.restore", func() { h.Locks.Restore(p.locks) })
	time("mm.frametable_restore", func() { h.Frames.Restore(p.frames) })
	time("mm.heap_restore", func() { h.Heap.Restore(p.heap) })
	time("sched.restore", func() { h.Sched.Restore(p.sched) })
	time("xentime.restore", func() { h.Timers.Restore(p.timers) })
	time("dom.restore", func() { h.Domains.Restore(p.domains) })
	time("evtchn.broker_restore", func() { h.Broker.Restore(p.broker) })
	time("telemetry.restore", func() { h.Tel.Restore(p.tel) })
	time("journal.restore", func() { h.Jrn.Restore(p.jrn) })
	time("evtchn.restore", func() {
		h.Broker.Restore(p.broker)
		for _, d := range p.doms {
			d.d.Events.Restore(d.events)
		}
	})
	time("grant.restore", func() {
		for _, d := range p.doms {
			d.d.GrantTab.Restore(d.grants)
			d.d.Maptrack.Restore(d.maptrack)
		}
	})
}

// coverParts are the sub-restores that together make up hv.Restore.
var coverParts = []string{
	"simclock.restore", "hw.restore", "locking.restore", "mm.frametable_restore", "mm.heap_restore",
	"sched.restore", "xentime.restore", "dom.restore", "evtchn.broker_restore", "telemetry.restore", "journal.restore",
}

// rigFacts are the exact counts a fault-free rig run yields.
type rigFacts struct {
	frames     int
	events     uint64 // clock events dispatched over the horizon
	entries    uint64 // hypercalls + timer IRQs + device IRQs over the horizon
	horizon    time.Duration
	detections int
}

// probeRound measures, once each, everything that needs a booted system at
// the workload's shape — the fault-free event loop, every restore, the
// whole-table mm walks, the auditor, a handler-program build — and the
// layers that need none: the clock, the APIC timer, telemetry, the journal
// and the traffic wheel. The traced pass calls it between its other steps,
// so the rounds are spread over the whole pass and at least one is likely
// to fall between bursts of neighbour interference.
func (r *rig) probeRound(ps *probes, facts *rigFacts) error {
	h := r.h

	// Dirty the system with a fault-free run, then restore it: hv.Restore
	// whole, then its parts. Each variant runs twice back to back and is
	// timed the second time, so it reads its snapshot as warm as a
	// campaign's run-after-run restore does (the two variants read
	// different copies of the frame table; alternating them would evict
	// each other's). The parts leave a little core state un-rewound between
	// their two runs — console ring, counters — which a fault-free run does
	// not depend on; the whole restore that follows rewinds it.
	untimed := func(_ string, fn func()) { fn() }
	for _, whole := range []bool{true, false} {
		for _, timed := range []bool{false, true} {
			r.reseed(1)
			ev0, st0 := r.clk.Dispatched(), h.Stats
			ps.time(ps.root, "hv.fault_free_run", func() { r.runFaultFree(facts.horizon) })
			facts.events = r.clk.Dispatched() - ev0
			facts.entries = (h.Stats.Hypercalls - st0.Hypercalls) + (h.Stats.TimerIRQs - st0.TimerIRQs) + (h.Stats.DeviceIRQs - st0.DeviceIRQs)
			switch {
			case !timed && whole:
				h.Restore(r.snap)
			case !timed:
				r.restoreByParts(untimed)
			case whole:
				ps.time(ps.root, "hv.restore", func() { h.Restore(r.snap) })
			default:
				parts := ps.tr.begin(ps.root, "hv.restore.parts")
				r.restoreByParts(func(name string, fn func()) { ps.time(parts, name, fn) })
				ps.tr.end(parts)
			}
			ps.time(ps.root, "guest.world_restore", func() { r.world.Restore(r.wsnap) })
		}
	}
	h.Restore(r.snap)
	ps.time(ps.root, "guest.reseed", func() { r.reseed(1) })
	facts.detections = r.detections

	// Whole-table walks on the pristine system, as recovery performs them.
	ps.time(ps.root, "mm.frame_scan", func() { h.Frames.InconsistentFrames() })
	ps.time(ps.root, "mm.scan_repair", func() { h.Frames.ScanAndRepair() })
	ps.time(ps.root, "mm.heap_rebuild", func() { h.Heap.Rebuild() })
	r.restore()

	// The auditor runs on a paused system; a clean one has nothing to
	// repair, so this is the walk's floor cost.
	h.Pause()
	ps.time(ps.root, "audit.run_1cpu", func() { audit.Run(h, audit.Options{}) })
	ps.time(ps.root, "audit.run_8cpu", func() { audit.Run(h, audit.Options{RepairCPUs: 8}) })
	r.restore()

	// Building a handler program on an idle CPU's environment.
	env := h.PerCPU(1).Env
	call := &hypercall.Call{Op: hypercall.OpEventChannelOp, Dom: 1}
	var buildErr error
	ps.loop("hypercall.build", ps.loopOps, func() {
		if _, err := hypercall.Build(env, call); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return fmt.Errorf("hypercall.Build: %w", buildErr)
	}

	// One At + fire with 64 later events pending.
	clk := simclock.New()
	for i := 0; i < 64; i++ {
		clk.At(time.Hour+time.Duration(i), "pending", func() {})
	}
	fire := func() {}
	ps.loop("simclock.event", ps.loopOps, func() {
		clk.After(time.Nanosecond, "probe", fire)
		clk.Step()
	})

	// ArmTimer → expiry → delivery to the sink, on a machine by itself.
	mclk := simclock.New()
	m, err := hw.NewMachine(mclk, hw.Config{CPUs: 1, MemoryMB: 16, BlockSvc: time.Microsecond, NICLat: time.Microsecond})
	if err != nil {
		return fmt.Errorf("bare machine: %w", err)
	}
	sink := &nullSink{}
	m.SetSink(sink)
	cpu := m.CPU(0)
	ps.loop("hw.apic_timer", ps.loopOps, func() {
		cpu.ArmTimer(mclk.Now() + time.Microsecond)
		mclk.Step()
	})
	if sink.delivered != ps.loopOps {
		return fmt.Errorf("APIC probe delivered %d of %d timer shots", sink.delivered, ps.loopOps)
	}

	tel := telemetry.New(hv.DefaultFlightRecorderCapacity, clk.Now)
	ps.loop("telemetry.record", ps.loopOps, func() { tel.Record(0, telemetry.EvPause, 0) })
	var a, b telemetry.Hist
	for v := uint64(1); v < 1<<20; v <<= 1 {
		b.Observe(v)
	}
	ps.loop("telemetry.hist_merge", ps.loopOps, func() { a.Merge(&b) })

	j := journal.New(ps.loopOps)
	var at time.Duration
	ps.loop("journal.event", ps.loopOps, func() {
		at++
		j.Detect(at, 0, "probe")
	})

	// One benchmark's worth of wheel ticks for 1 M users in 1000 cohorts,
	// on a bare clock.
	tclk := simclock.New()
	e := traffic.New(traffic.Config{Users: 1_000_000})
	e.Start(tclk, telemetry.New(hv.DefaultFlightRecorderCapacity, tclk.Now), r.rc.BenchDuration)
	el := ps.tr.timed(ps.root, "traffic.wheel_run", func() { tclk.RunUntil(r.rc.BenchDuration) })
	e.Finish()
	if ticks := tclk.Dispatched(); ticks > 0 {
		ps.samples["traffic.tick"] = append(ps.samples["traffic.tick"], float64(el.Nanoseconds())/float64(ticks))
		ps.wheelTicks = ticks
	}
	return nil
}

// nullSink accepts every interrupt; it stands in for the hypervisor when
// the hardware is probed alone.
type nullSink struct{ delivered int }

func (s *nullSink) DeliverInterrupt(int, hw.Vector) bool { s.delivered++; return true }

// runCounts are exact per-run work counts from campaign.TraceRun's
// telemetry registry, averaged over traceRunSeeds cold-boot runs.
type runCounts struct {
	timerIRQs, deviceIRQs, dispatches, detections float64
	stepsMean, queueHighWater                     float64
	horizon                                       time.Duration
}

func traceRunCounts(rc campaign.RunConfig, seedBase uint64, ps *probes) (runCounts, error) {
	var c runCounts
	for i := 1; i <= ps.traceRunSeeds; i++ {
		rc.Seed = seedBase + uint64(i)
		var res campaign.Result
		var tel *telemetry.Telemetry
		var jrn []journal.Entry
		ps.time(ps.root, "campaign.TraceRun", func() { res, tel, jrn = campaign.TraceRun(rc) })
		if tel == nil {
			return c, fmt.Errorf("TraceRun seed %d: %s", rc.Seed, res.FailReason)
		}
		c.timerIRQs += float64(tel.Counters[telemetry.CtrTimerIRQs])
		c.deviceIRQs += float64(tel.Counters[telemetry.CtrDeviceIRQs])
		c.dispatches += float64(tel.Counters[telemetry.CtrDispatches])
		c.detections += float64(tel.Counters[telemetry.CtrDetections])
		c.stepsMean += tel.Hists[telemetry.HistProgramSteps].Mean()
		c.queueHighWater = math.Max(c.queueHighWater, float64(tel.Gauges[telemetry.GaugeClockQueueHighWater]))
		// The disposition entry is stamped with the clock at the end of the
		// run: the horizon, unless a terminal failure halted the clock.
		if n := len(jrn); n > 0 && jrn[n-1].At > c.horizon {
			c.horizon = jrn[n-1].At
		}
	}
	n := float64(ps.traceRunSeeds)
	c.timerIRQs, c.deviceIRQs, c.dispatches, c.detections, c.stepsMean = c.timerIRQs/n, c.deviceIRQs/n, c.dispatches/n, c.detections/n, c.stepsMean/n
	return c, nil
}

// pageFramePhase reports whether a recovery phase is the page-frame scan.
func pageFramePhase(name string) bool { return strings.Contains(name, "page frame") }

// tracedRun is the per-layer pass: the workload at 1/tracedShare size with
// spans kept, the probes on a rig of the workload's shape, and the exact
// counts of the telemetry registry they are joined to. End-to-end metrics
// never come from here.
func tracedRun(w workload, o options) (record, error) {
	runs := max(o.runs(w)/tracedShare, 1)
	base := seedBase(o.seed)
	tr := newTracer(fmt.Sprintf("%s/seed%d", w.Name, o.seed))
	layers := tr.begin(0, "layers/"+w.Name)
	ps := &probes{effort: o.effort(), tr: tr, root: layers, samples: make(map[string][]float64)}

	counts, err := traceRunCounts(w.Base, base, ps)
	if err != nil {
		return record{}, err
	}
	r, err := buildRig(w.Base, ps)
	if err != nil {
		return record{}, err
	}
	facts := rigFacts{frames: r.h.Frames.Len(), horizon: counts.horizon}

	// The steps of the pass, with a round of probes after each.
	var overhead, p pass
	var reset, reboot campaign.Summary
	var par2 time.Duration
	var table3, table2 campaign.LatencyResult
	side := campaign.ThroughputBenchConfig()
	side.Traffic = traffic.Config{Users: 1_000_000}
	sideCampaign := func(mech core.Mechanism) campaign.Summary {
		side.Recovery.Mechanism = mech
		return (&campaign.Campaign{Base: side, Runs: ps.sideRuns, Parallelism: 1, SeedBase: base + sideOffset}).Execute()
	}
	steps := []func() error{
		func() error {
			// The campaign with tracing on for every other block of runs,
			// for the tracing overhead; its spans are thrown away.
			setUp(w.Base, o.warmup(), base, 1, nil, 0)
			overhead = execute(w.Base, runs, base, newTracer("overhead"), 0, true)
			return nil
		},
		func() error {
			root := tr.begin(0, "workload/"+w.Name)
			setUp(w.Base, o.warmup(), base, 1, tr, root)
			p = execute(w.Base, runs, base, tr, root, false)
			tr.end(root)
			return nil
		},
		// The paper's primary config under 1 M users with each mechanism:
		// the two halves of the user-visible comparison.
		func() error {
			ps.time(ps.root, "side.microreset_users", func() { reset = sideCampaign(core.Microreset) })
			return nil
		},
		func() error {
			ps.time(ps.root, "side.microreboot_users", func() { reboot = sideCampaign(core.Microreboot) })
			return nil
		},
		// This workload again on two load threads.
		func() error {
			par2 = ps.time(ps.root, "side.parallel2", func() {
				(&campaign.Campaign{Base: w.Base, Runs: runs, Parallelism: 2, SeedBase: base}).Execute()
			})
			return nil
		},
		func() (err error) {
			ps.time(ps.root, "core.table3", func() { table3, err = campaign.MeasureLatency(core.Microreset, 8192, base+1) })
			return err
		},
		func() (err error) {
			ps.time(ps.root, "core.table2", func() { table2, err = campaign.MeasureLatency(core.Microreboot, 8192, base+1) })
			return err
		},
	}
	for i := 0; i < max(ps.rounds, len(steps)); i++ {
		if i < len(steps) {
			if err := steps[i](); err != nil {
				return record{}, err
			}
		}
		if i < ps.rounds {
			if err := r.probeRound(ps, &facts); err != nil {
				return record{}, err
			}
		}
	}
	acc := campaign.Summary{FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	ps.loop("campaign.summary_merge", 200, func() { acc.Merge(p.summary) })
	tr.end(layers)

	rec := newRecord(w, o, p)
	rec.Metrics = layerMetrics(layerInputs{
		w: w, overhead: overhead, traced: p, ps: ps, counts: counts, facts: facts,
		reset: reset, reboot: reboot, par2: par2, table3: table3, table2: table2,
	})
	gates := checkPass(w, p)
	if facts.detections > 0 {
		gates = append(gates, gate{runs, fmt.Sprintf("fault-free rig run raised %d detection(s)", facts.detections)})
	}
	rec.applyGates(gates)
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return record{}, err
		}
	}
	return rec, nil
}

// layerInputs is everything the traced pass gathered.
type layerInputs struct {
	w                workload
	overhead, traced pass
	ps               *probes
	counts           runCounts
	facts            rigFacts
	ticks            uint64
	reset, reboot    campaign.Summary
	par2             time.Duration
	table3           campaign.LatencyResult
	table2           campaign.LatencyResult
}

// tracingOverheadPct compares the traced and the untraced runs of a pass
// that alternated tracing: how much lower the traced runs' undisturbed
// rate is, as a share of the untraced runs' rate.
func tracingOverheadPct(p pass) float64 {
	var gaps [2][]float64
	var kinds [2][]int
	for i, g := range interArrivalsMs(p.start, p.stamps) {
		k := 0
		if p.traced[i] {
			k = 1
		}
		gaps[k] = append(gaps[k], g)
		kinds[k] = append(kinds[k], p.kinds[i])
	}
	untraced, traced := undisturbedRate(gaps[0], kinds[0]), undisturbedRate(gaps[1], kinds[1])
	return pct(untraced-traced, untraced)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// layerMetrics derives every per-layer metric. Host costs are medians of
// the probe samples in ns; counts marked exact repeat for a fixed seed.
func layerMetrics(in layerInputs) map[string]metric {
	ps, s, p := in.ps, in.traced.summary, in.traced
	ns := ps.ns
	gaps := interArrivalsMs(p.start, p.stamps)
	// runNs is the undisturbed host time of a mean run, the base of every
	// share below.
	runNs := 1e9 / undisturbedRate(gaps, p.kinds)
	sort.Float64s(gaps)
	frames := float64(in.facts.frames)
	horizonS := in.facts.horizon.Seconds()
	detected := float64(s.DetectedCount)
	runs := float64(p.runs)

	restoreNs := ns("hv.restore")
	var cover float64
	for _, name := range coverParts {
		cover += ns(name)
	}
	scanNs := ns("mm.frame_scan") + ns("mm.scan_repair")

	var scanUs, otherUs uint64
	for name, h := range s.PhaseHists {
		if pageFramePhase(name) {
			scanUs += h.Sum
		} else {
			otherUs += h.Sum
		}
	}
	perDetected := func(v float64) float64 {
		if detected == 0 {
			return 0
		}
		return v / detected
	}
	serialOverParallel := 0.0
	if s.ParallelRepairLatency > 0 {
		serialOverParallel = float64(s.SerialRepairLatency) / float64(s.ParallelRepairLatency)
	}
	unclassified := 0
	for cause, n := range s.RootCauses {
		if cause == campaign.RootCauseOtherHypervisorFailure {
			unclassified += n
		}
	}
	journalPerWrong := 0.0
	if p.wrongRuns > 0 {
		journalPerWrong = float64(p.journalEntries) / float64(p.wrongRuns)
	}
	ticks := 0.0
	if in.w.Base.Traffic.Enabled() {
		ticks = float64(ps.wheelTicks)
	}
	nm, sdc, det := s.OutcomeRates()
	resetRate, _ := in.reset.SuccessRate()

	// What the probes explain of one run: restore and re-arm, the
	// fault-free event loop over the run's horizon, and for the share of
	// runs that detect, the page-frame walks recovery performs.
	explained := restoreNs + ns("guest.world_restore") + ns("guest.reseed") + ns("hv.fault_free_run") + det*scanNs

	m := map[string]metric{
		"simclock.event_ns":         {ns("simclock.event"), "ns"},
		"simclock.events_per_sim_s": {float64(in.facts.events) / horizonS, "events/sim_s"},
		"simclock.queue_high_water": {in.counts.queueHighWater, "count"},
		"simclock.restore_ns":       {ns("simclock.restore"), "ns"},

		"hw.apic_timer_ns":      {ns("hw.apic_timer"), "ns"},
		"hw.irq_timer_per_run":  {in.counts.timerIRQs, "count"},
		"hw.irq_device_per_run": {in.counts.deviceIRQs, "count"},
		"hw.restore_ns":         {ns("hw.restore"), "ns"},

		"hv.boot_ns":            {ns("hv.boot"), "ns"},
		"hv.snapshot_ns":        {ns("hv.snapshot"), "ns"},
		"hv.restore_ns":         {restoreNs, "ns"},
		"hv.restore_share_pct":  {pct(restoreNs, runNs), "%"},
		"hv.restore_cover_pct":  {pct(cover, restoreNs), "%"},
		"hv.sim_second_ns":      {ns("hv.fault_free_run") / horizonS, "ns/sim_s"},
		"hv.dispatches_per_run": {in.counts.dispatches, "count"},
		"hv.dispatch_ns":        {ns("hv.fault_free_run") / float64(max(in.facts.entries, 1)), "ns"},
		"hv.program_steps_mean": {in.counts.stepsMean, "count"},

		"hypercall.build_ns": {ns("hypercall.build"), "ns"},

		"mm.frames":                          {frames, "count"},
		"mm.frame_scan_ns_per_frame":         {ns("mm.frame_scan") / frames, "ns"},
		"mm.scan_repair_ns_per_frame":        {ns("mm.scan_repair") / frames, "ns"},
		"mm.frametable_restore_ns_per_frame": {ns("mm.frametable_restore") / frames, "ns"},
		"mm.heap_rebuild_ns":                 {ns("mm.heap_rebuild"), "ns"},
		"mm.heap_restore_ns":                 {ns("mm.heap_restore"), "ns"},
		"mm.share_pct":                       {pct(scanNs+ns("mm.frametable_restore"), runNs), "%"},

		"guest.world_restore_ns": {ns("guest.world_restore"), "ns"},
		"guest.reseed_ns":        {ns("guest.reseed"), "ns"},

		"locking.restore_ns": {ns("locking.restore"), "ns"},
		"sched.restore_ns":   {ns("sched.restore"), "ns"},
		"xentime.restore_ns": {ns("xentime.restore"), "ns"},
		"dom.restore_ns":     {ns("dom.restore"), "ns"},
		"evtchn.restore_ns":  {ns("evtchn.restore"), "ns"},
		"grant.restore_ns":   {ns("grant.restore"), "ns"},

		"audit.run_ns_1cpu":              {ns("audit.run_1cpu"), "ns"},
		"audit.run_ns_8cpu":              {ns("audit.run_8cpu"), "ns"},
		"audit.violations_per_run":       {float64(s.AuditViolations) / runs, "count"},
		"audit.repairs_per_run":          {float64(s.AuditRepaired) / runs, "count"},
		"recdomain.serial_over_parallel": {serialOverParallel, "ratio"},

		"core.first_attempt_success_pct": {pct(float64(s.SuccessByAttempt[1]), detected), "%"},
		"core.attempts_per_detected":     {perDetected(float64(p.attempts)), "count"},
		"core.escalated_pct":             {pct(float64(s.EscalatedRuns), detected), "%"},
		"core.sim_scan_ms_mean":          {perDetected(float64(scanUs) / 1e3), "sim_ms"},
		"core.sim_other_ms_mean":         {perDetected(float64(otherUs) / 1e3), "sim_ms"},
		"core.sim_recovery_ms_mean":      {ms(s.MeanSuccessLatency()), "sim_ms"},
		"core.table3_total_ms":           {ms(in.table3.Total), "sim_ms"},
		"core.table2_total_ms":           {ms(in.table2.Total), "sim_ms"},
		"core.table3_err_pct":            {pct(math.Abs(ms(in.table3.Total)-paperTable3Ms), paperTable3Ms), "%"},
		"core.table2_err_pct":            {pct(math.Abs(ms(in.table2.Total)-paperTable2Ms), paperTable2Ms), "%"},
		"core.table1_success_err_pt":     {math.Abs(100*resetRate - paperTable1Pct), "pt"},

		"inject.detected_pct":      {100 * det, "%"},
		"inject.sdc_pct":           {100 * sdc, "%"},
		"inject.nonmanifested_pct": {100 * nm, "%"},
		"detect.firings_per_run":   {in.counts.detections, "count"},

		"traffic.tick_ns":                     {ns("traffic.tick"), "ns"},
		"traffic.ticks_per_run":               {ticks, "count"},
		"traffic.goodput_permille":            {float64(in.reboot.SLO.GoodputPermille()), "permille"},
		"traffic.microreset_degraded_user_s":  {in.reset.SLO.DegradedUserSeconds() / float64(ps.sideRuns), "user.s"},
		"traffic.microreboot_degraded_user_s": {in.reboot.SLO.DegradedUserSeconds() / float64(ps.sideRuns), "user.s"},

		"telemetry.record_ns":           {ns("telemetry.record"), "ns"},
		"telemetry.restore_ns":          {ns("telemetry.restore"), "ns"},
		"telemetry.hist_merge_ns":       {ns("telemetry.hist_merge"), "ns"},
		"journal.event_ns":              {ns("journal.event"), "ns"},
		"journal.restore_ns":            {ns("journal.restore"), "ns"},
		"journal.entries_per_wrong_run": {journalPerWrong, "count"},

		"campaign.image_build_ms":           {ns("campaign.image_build") / 1e6, "ms"},
		"campaign.summary_merge_ns":         {ns("campaign.summary_merge"), "ns"},
		"campaign.wall_runs_per_sec":        {chunkMedianRate(p.start, p.stamps), "runs/s"},
		"campaign.run_ms_p10":               {percentile(gaps, undisturbedQuantile), "ms"},
		"campaign.run_ms_p50":               {percentile(gaps, 0.50), "ms"},
		"campaign.run_ms_p90":               {percentile(gaps, 0.90), "ms"},
		"campaign.run_ms_max":               {percentile(gaps, 1), "ms"},
		"campaign.parallel2_speedup":        {p.elapsed.Seconds() / in.par2.Seconds(), "ratio"},
		"campaign.gc_share_pct":             {pct(p.gcCPUSeconds, p.elapsed.Seconds()), "%"},
		"campaign.gc_cycles":                {float64(p.gcCycles), "count"},
		"campaign.wrong_runs_pct":           {pct(float64(p.wrongRuns), runs), "%"},
		"campaign.unclassified_root_causes": {float64(unclassified), "count"},

		"trace.overhead_pct": {tracingOverheadPct(in.overhead), "%"},
		"trace.coverage_pct": {pct(explained, runNs), "%"},
	}
	return m
}
