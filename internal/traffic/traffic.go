// Package traffic is an open-loop workload layer: it simulates millions of
// end users issuing requests against the host without creating per-request
// simulator events. Users are aggregated into cohorts (batches sharing a
// request period and phase) parked on a hierarchical timing wheel whose
// coarse slots feed simclock exactly one event per tick; each tick fires
// the due cohorts' request batches and scores them arithmetically against
// the live service state (up, or inside a detect→pause→repair→resume
// window). Goodput dips, delayed completions, timeouts, and p99 inflation
// all fall out of fixed-point integer accounting instead of per-packet
// simulation, so a million-user population costs a few hundred events per
// run — campaign throughput stays within a few percent of traffic-off.
//
// This is the reception-rate idea of guest.NetSender (one flow, packet
// counting, recovery windows excluded by annotation) generalized to a
// population: instead of excluding the recovery window from a single
// flow's denominator, the population's requests that arrive inside the
// window are held open-loop and resolved at resume — late (delayed),
// past-deadline (timed out), or never (failed) — which is what end users
// actually experience through an outage (Candea & Fox's end-user
// microreboot metric; ROADMAP item 2).
//
// Determinism: the engine draws no randomness and owns no mutable state
// outside itself, and every accounting operation is an exact-integer
// commutative add — so run results are bit-identical at any campaign
// parallelism, fork-vs-cold, and seed-range split, and SLO.Merge is
// order-independent.
package traffic

import (
	"time"

	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
)

// tickTag labels the engine's single recurring simclock event.
const tickTag = "traffic-tick"

// Config describes the simulated population. The zero value disables the
// layer (Enabled() == false); all fields are plain scalars so the struct
// is comparable and survives a JSON round-trip exactly.
type Config struct {
	// Users is the simulated population size. 0 disables the engine.
	Users uint64
	// Cohorts is the number of aggregation batches the population is
	// split into (more cohorts = finer phase spread, more per-tick work).
	// Default: Users/1000, clamped to [1, 65536].
	Cohorts int
	// Period is each user's request period (open loop: one request per
	// user per period, regardless of completion). Default 1s.
	Period time.Duration
	// Timeout is the end-user request deadline: a request unanswered for
	// longer counts as timed out even if service later returns.
	// Default 500ms.
	Timeout time.Duration
	// BaseLatency is the modeled service latency of an undisturbed
	// request. Default 2ms.
	BaseLatency time.Duration
	// SlotWidth is the wheel tick quantum — arrival timestamps are
	// rounded to it, and the engine costs one simclock event per tick.
	// Default 5ms (400 events per 2s run).
	SlotWidth time.Duration
	// Interval is the goodput scoring window; each interval with offered
	// load is scored served/offered and the worst kept. Default 1s.
	Interval time.Duration
}

// Enabled reports whether the traffic layer is armed at all.
func (c Config) Enabled() bool { return c.Users > 0 }

// withDefaults fills unset fields and clamps the period into the wheel
// horizon. It never mutates the receiver.
func (c Config) withDefaults() Config {
	if c.SlotWidth <= 0 {
		c.SlotWidth = 5 * time.Millisecond
	}
	if c.Period < c.SlotWidth {
		if c.Period <= 0 {
			c.Period = time.Second
		}
		if c.Period < c.SlotWidth {
			c.Period = c.SlotWidth
		}
	}
	if maxPeriod := c.SlotWidth * (wheelHorizon - 1); c.Period > maxPeriod {
		c.Period = maxPeriod
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.BaseLatency <= 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Cohorts <= 0 {
		c.Cohorts = int(c.Users / 1000)
	}
	if c.Cohorts < 1 {
		c.Cohorts = 1
	}
	if c.Cohorts > 65536 {
		c.Cohorts = 65536
	}
	if uint64(c.Cohorts) > c.Users {
		c.Cohorts = int(c.Users)
	}
	return c
}

// pendBatch is one tick's worth of requests that arrived while service was
// down, held open-loop until resume (or end of run). Batches within a tick
// coalesce, so the pending list is bounded by the run's tick count.
type pendBatch struct {
	at time.Duration
	n  uint64
}

// interval accumulates one goodput-scoring window. lost counts timed-out
// and failed requests; served counts completions (including late ones,
// attributed to their arrival interval).
type interval struct {
	offered uint64
	served  uint64
	lost    uint64
}

// Engine runs one simulated population against one run's virtual clock.
// It is built once per campaign image and re-armed per run with Start
// (after the snapshot restore, like the NetBench sender) — all internal
// slices are retained across runs, so steady-state operation allocates
// nothing.
type Engine struct {
	cfg Config // normalized

	clk *simclock.Clock
	tel *telemetry.Telemetry

	cohorts []cohort
	wheel   wheel
	slo     SLO

	startAt     time.Duration
	stopAt      time.Duration
	periodTicks uint64
	baseUs      uint64
	timeoutUs   uint64

	down      bool
	downSince time.Duration

	pend  []pendBatch
	ivals []interval

	// lastGaugeIval tracks the live goodput gauge's interval cursor.
	lastGaugeIval int

	// chainLive is true while the tick event chain is scheduled; it is
	// the authoritative "may Cancel tickEv" flag (the handle alone is
	// unsafe to interrogate once the chain self-terminates, because the
	// clock recycles fired events).
	chainLive bool
	tickEv    *simclock.Event
	onTickFn  simclock.Func
}

// New builds an engine for cfg (normalized with defaults). The cohort slab
// is allocated here, once; Start re-seeds it per run.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		cohorts: make([]cohort, cfg.Cohorts),
	}
	e.onTickFn = e.onTick
	return e
}

// Start arms the engine against a run: seeds the cohorts phase-spread
// across one period, positions the wheel, zeroes the SLO, and schedules
// the first tick. Call it after the snapshot restore, exactly once per
// run; d is the measurement horizon (the benchmark duration).
func (e *Engine) Start(clk *simclock.Clock, tel *telemetry.Telemetry, d time.Duration) {
	cfg := e.cfg
	e.clk = clk
	e.tel = tel
	e.slo = SLO{Users: cfg.Users}
	e.startAt = clk.Now()
	e.stopAt = e.startAt + d
	e.periodTicks = uint64(cfg.Period / cfg.SlotWidth)
	e.baseUs = uint64(cfg.BaseLatency / time.Microsecond)
	e.timeoutUs = uint64(cfg.Timeout / time.Microsecond)
	e.down = false
	e.downSince = 0
	e.lastGaugeIval = 0

	numTicks := int(d / cfg.SlotWidth)
	if cap(e.pend) < numTicks+1 {
		e.pend = make([]pendBatch, 0, numTicks+1)
	}
	e.pend = e.pend[:0]
	nIvals := int((d + cfg.Interval - 1) / cfg.Interval)
	if nIvals < 1 {
		nIvals = 1
	}
	if cap(e.ivals) < nIvals {
		e.ivals = make([]interval, nIvals)
	}
	e.ivals = e.ivals[:nIvals]
	for i := range e.ivals {
		e.ivals[i] = interval{}
	}

	// Seed the population: cohort i's users are sized by even split (the
	// first Users%Cohorts cohorts take the remainder) and first fire at a
	// phase spread evenly across one period, starting at tick 1.
	e.wheel.init()
	nc := uint64(len(e.cohorts))
	base, rem := cfg.Users/nc, cfg.Users%nc
	for i := range e.cohorts {
		u := base
		if uint64(i) < rem {
			u++
		}
		e.cohorts[i].users = u
		due := 1 + (uint64(i)*e.periodTicks)/nc
		e.wheel.insert(e.cohorts, int32(i), due)
	}
	// Tick 0 is empty by construction (all dues ≥ 1); consume it so the
	// event firing at startAt + k·SlotWidth processes wheel tick k.
	e.wheel.advance(e.cohorts)

	if tel != nil {
		tel.SetGauge(telemetry.GaugeTrafficUsers, int64(cfg.Users))
	}
	if numTicks >= 1 {
		e.tickEv = clk.After(cfg.SlotWidth, tickTag, e.onTickFn)
		e.chainLive = true
	}
}

// ivalIndex maps a virtual time to its goodput interval, clamped into
// range (the boundary tick at exactly stopAt scores into the last one).
func (e *Engine) ivalIndex(at time.Duration) int {
	k := int((at - e.startAt) / e.cfg.Interval)
	if k >= len(e.ivals) {
		k = len(e.ivals) - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// fire processes one wheel tick at virtual time at: every due cohort's
// batch is offered, then either completed at base latency (service up) or
// held pending (service down), and the cohort is re-armed one period out.
// The entire batch path is integer adds into preallocated storage — zero
// allocations in steady state.
func (e *Engine) fire(at time.Duration) {
	head := e.wheel.advance(e.cohorts)
	if head == none {
		return
	}
	var n uint64
	for i := head; i != none; {
		co := &e.cohorts[i]
		next := co.next
		n += co.users
		e.wheel.insert(e.cohorts, i, co.due+e.periodTicks)
		i = next
	}
	e.slo.Offered += n
	k := e.ivalIndex(at)
	e.ivals[k].offered += n
	if e.down {
		if m := len(e.pend); m > 0 && e.pend[m-1].at == at {
			e.pend[m-1].n += n
		} else {
			e.pend = append(e.pend, pendBatch{at: at, n: n})
		}
	} else {
		e.slo.Completed += n
		e.slo.Latency.ObserveN(e.baseUs, n)
		e.ivals[k].served += n
	}
}

// onTick is the engine's only simclock callback: fire the current tick,
// refresh the live goodput gauge at interval boundaries, and reschedule
// until the measurement horizon (the event chain then self-terminates;
// reschedule-from-callback recycles the event, so ticking is alloc-free).
func (e *Engine) onTick() {
	now := e.clk.Now()
	e.fire(now)
	if k := e.ivalIndex(now); k > e.lastGaugeIval {
		// The gauge is live observability (served-so-far of the closed
		// interval; late completions land after close). The SLO's final
		// interval scores are computed from full data in Finish.
		iv := &e.ivals[e.lastGaugeIval]
		if iv.offered > 0 && e.tel != nil {
			e.tel.SetGauge(telemetry.GaugeTrafficGoodput, int64(iv.served*1000/iv.offered))
		}
		e.lastGaugeIval = k
	}
	if now+e.cfg.SlotWidth <= e.stopAt {
		e.tickEv = e.clk.After(e.cfg.SlotWidth, tickTag, e.onTickFn)
	} else {
		e.chainLive = false
		e.tickEv = nil
	}
}

// ServiceDown marks the service unavailable from now on (idempotent). The
// campaign wires it to the recovery engine's pause hook and to terminal
// hypervisor failure; requests arriving while down are held open-loop.
func (e *Engine) ServiceDown() {
	if e.down {
		return
	}
	e.down = true
	e.downSince = e.clk.Now()
	if e.downSince < e.stopAt {
		e.slo.Outages++
	}
}

// ServiceUp marks the service available again (idempotent): the outage
// window [downSince, now) is charged as population-wide degradation, and
// every held batch resolves — completed late if it is still inside the
// user deadline, timed out otherwise. Late completions and timeouts are
// attributed to their arrival interval, so goodput dips land where users
// experienced them.
func (e *Engine) ServiceUp() {
	if !e.down {
		return
	}
	e.down = false
	now := e.clk.Now()
	e.accountOutage(now)
	for bi := range e.pend {
		b := &e.pend[bi]
		waitUs := uint64((now - b.at) / time.Microsecond)
		k := e.ivalIndex(b.at)
		if waitUs+e.baseUs > e.timeoutUs {
			e.slo.TimedOut += b.n
			e.slo.ExcessWaitUs += b.n * e.timeoutUs
			e.ivals[k].lost += b.n
		} else {
			e.slo.Completed += b.n
			e.slo.Delayed += b.n
			e.slo.ExcessWaitUs += b.n * waitUs
			e.slo.Latency.ObserveN(waitUs+e.baseUs, b.n)
			e.ivals[k].served += b.n
		}
	}
	e.pend = e.pend[:0]
}

// accountOutage charges the outage window [downSince, until), clamped to
// the measurement horizon, as outage time and user-µs of degradation.
// Users × window stays far inside uint64 (and inside JSON-exact 2^53) for
// any plausible population and run length: 10M users × 1000s ≈ 10^16.
func (e *Engine) accountOutage(until time.Duration) {
	start, end := e.downSince, until
	if end > e.stopAt {
		end = e.stopAt
	}
	if start >= end {
		return
	}
	us := uint64((end - start) / time.Microsecond)
	e.slo.OutageUs += us
	e.slo.DegradedUserUs += us * e.cfg.Users
}

// Finish closes the run at the nominal measurement horizon (Start's d) and
// returns the run's SLO (owned by the engine; the caller copies it out).
// It is purely arithmetic, so it works identically whether the run
// completed or the clock halted early on terminal failure: ticks the
// halted clock never dispatched are drained synthetically (their requests
// were still offered — the users don't know the host died), an open outage
// is charged through the horizon, and still-held batches resolve as timed
// out (the user's deadline passed) or failed (the run ended first).
func (e *Engine) Finish() *SLO {
	end := e.stopAt
	if e.chainLive {
		e.clk.Cancel(e.tickEv)
		e.chainLive = false
		e.tickEv = nil
	}
	for {
		at := e.startAt + time.Duration(e.wheel.cur)*e.cfg.SlotWidth
		if at > end {
			break
		}
		e.fire(at)
	}
	if e.down {
		e.accountOutage(end)
	}
	for bi := range e.pend {
		b := &e.pend[bi]
		ageUs := uint64((end - b.at) / time.Microsecond)
		k := e.ivalIndex(b.at)
		e.ivals[k].lost += b.n
		if ageUs+e.baseUs > e.timeoutUs {
			e.slo.TimedOut += b.n
			e.slo.ExcessWaitUs += b.n * e.timeoutUs
		} else {
			e.slo.Failed += b.n
			e.slo.ExcessWaitUs += b.n * ageUs
		}
	}
	e.pend = e.pend[:0]

	worst := uint64(1000)
	var scored, degraded uint64
	for i := range e.ivals {
		iv := &e.ivals[i]
		if iv.offered == 0 {
			continue
		}
		scored++
		if p := iv.served * 1000 / iv.offered; p < worst {
			worst = p
		}
		if iv.lost*10 > iv.offered {
			degraded++
		}
	}
	e.slo.Intervals = scored
	e.slo.DegradedIntervals = degraded
	if scored > 0 {
		e.slo.WorstIntervalPermille = worst
	}

	if e.tel != nil {
		e.tel.Hists[telemetry.HistRequestLatencyUs].Merge(&e.slo.Latency)
		e.tel.SetGauge(telemetry.GaugeTrafficGoodput, int64(e.slo.GoodputPermille()))
	}
	return &e.slo
}
