// Package traffic is an open-loop workload layer: it scores what millions
// of end users see of a run without creating a single simulator event.
// Users are aggregated into cohorts (batches sharing a request period and
// phase) whose request batches land on fixed 5ms slots. During the run the
// engine only records the instants at which service went down and came
// back; Finish then walks the slots arithmetically and scores each batch
// against those outage windows — served at base latency, or held until
// service returns and resolved as delayed, timed out or failed. Goodput
// dips, delayed completions, timeouts and p99 inflation all fall out of
// fixed-point integer accounting instead of per-packet simulation, so a
// million-user population costs a few microseconds per run.
//
// This is the reception-rate idea of guest.NetSender (one flow, packet
// counting, recovery windows excluded by annotation) generalized to a
// population: instead of excluding the recovery window from a single
// flow's denominator, the population's requests that arrive inside the
// window are held open-loop and resolved at resume — late (delayed),
// past-deadline (timed out), or never (failed) — which is what end users
// actually experience through an outage (Candea & Fox's end-user
// microreboot metric).
//
// Determinism: the engine draws no randomness, its only inputs from a run
// are the ServiceDown and ServiceUp instants, and every accounting
// operation is an exact-integer commutative add — so run results are
// bit-identical at any campaign parallelism, fork-vs-cold, and seed-range
// split, and SLO.Merge is order-independent.
package traffic

import (
	"time"

	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
)

const (
	// slot is the arrival quantum: every request batch is timestamped at
	// a multiple of it after Start.
	slot = 5 * time.Millisecond
	// baseUs is the modeled service latency of an undisturbed request,
	// 2ms, in µs.
	baseUs = 2000
	// interval is the goodput scoring window; each interval with offered
	// load is scored served/offered and the worst kept.
	interval = time.Second
	// usersPerCohort and maxCohorts size the cohort split.
	usersPerCohort = 1000
	maxCohorts     = 65536
)

// Config describes the simulated population. The zero value disables the
// layer (Enabled() == false); all fields are plain scalars so the struct
// is comparable and survives a JSON round-trip exactly.
type Config struct {
	// Users is the simulated population size. 0 disables the engine.
	Users uint64
	// Period is each user's request period (open loop: one request per
	// user per period, regardless of completion). Default 1s, at least
	// one slot.
	Period time.Duration
	// Timeout is the end-user request deadline: a request unanswered for
	// longer counts as timed out even if service later returns.
	// Default 500ms.
	Timeout time.Duration
}

// Enabled reports whether the traffic layer is armed at all.
func (c Config) Enabled() bool { return c.Users > 0 }

// withDefaults fills unset fields and raises the period to one slot. It
// never mutates the receiver.
func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.Period < slot {
		c.Period = slot
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	return c
}

// cohorts returns how many cohorts the population is split into: one per
// 1000 users, at least one (which never exceeds Users when Users ≥ 1) and
// at most 65536.
func (c Config) cohorts() uint64 {
	return max(min(c.Users/usersPerCohort, maxCohorts), 1)
}

// window is one closed outage, [start, end).
type window struct{ start, end time.Duration }

// ivalScore accumulates one goodput-scoring interval. lost counts timed-out
// and failed requests; served counts completions (including late ones,
// attributed to their arrival interval).
type ivalScore struct {
	offered uint64
	served  uint64
	lost    uint64
}

// Engine scores one simulated population against one run. It is built
// once per campaign image and re-armed per run with Start (after the
// snapshot restore, like the NetBench sender); the window list is retained
// across runs, so steady-state operation allocates nothing.
type Engine struct {
	cfg Config // normalized

	clk *simclock.Clock
	tel *telemetry.Telemetry
	slo SLO

	startAt time.Duration
	stopAt  time.Duration

	down      bool
	downSince time.Duration
	windows   []window
}

// New builds an engine for cfg (normalized with defaults).
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Start arms the engine against a run: it zeroes the SLO and the outage
// record and notes the run's start. Call it after the snapshot restore,
// exactly once per run; d is the measurement horizon (the benchmark
// duration).
func (e *Engine) Start(clk *simclock.Clock, tel *telemetry.Telemetry, d time.Duration) {
	e.clk = clk
	e.tel = tel
	e.slo = SLO{Users: e.cfg.Users}
	e.startAt = clk.Now()
	e.stopAt = e.startAt + d
	e.down = false
	e.windows = e.windows[:0]
	tel.SetGauge(telemetry.GaugeTrafficUsers, int64(e.cfg.Users))
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
// window [downSince, now) is recorded and charged as population-wide
// degradation. The requests it held are resolved in Finish.
func (e *Engine) ServiceUp() {
	if !e.down {
		return
	}
	e.down = false
	now := e.clk.Now()
	e.accountOutage(now)
	e.windows = append(e.windows, window{e.downSince, now})
}

// accountOutage charges the outage window [downSince, until), clamped to
// the measurement horizon, as outage time and user-µs of degradation.
// Users × window stays far inside uint64 (and inside JSON-exact 2^53) for
// any plausible population and run length: 10M users × 1000s ≈ 10^16.
func (e *Engine) accountOutage(until time.Duration) {
	start, end := e.downSince, min(until, e.stopAt)
	if start >= end {
		return
	}
	us := uint64((end - start) / time.Microsecond)
	e.slo.OutageUs += us
	e.slo.DegradedUserUs += us * e.cfg.Users
}

// arrivals yields, slot by slot from slot 1, the users whose requests
// land on each slot. Cohort i of C (sized by even split, the first
// Users%C cohorts taking one more user) first fires at slot 1 + ⌊i·P/C⌋
// and every P slots after, so the cohorts due at slot t are those with
// ⌊i·P/C⌋ = r = (t-1) mod P: the index range [⌈r·C/P⌉, ⌈(r+1)·C/P⌉).
// Consecutive slots' ranges abut, so a step costs one division and no
// storage proportional to P.
type arrivals struct {
	base, rem uint64 // users per cohort, and how many cohorts take one more
	nc, p     uint64 // cohorts, and the period in slots
	r, lo     uint64 // the next slot's residue and first cohort
}

func newArrivals(cfg Config) arrivals {
	nc := cfg.cohorts()
	return arrivals{base: cfg.Users / nc, rem: cfg.Users % nc, nc: nc, p: uint64(cfg.Period / slot)}
}

// next returns the users offered at the next slot.
func (a *arrivals) next() uint64 {
	hi := ((a.r+1)*a.nc + a.p - 1) / a.p
	n := (hi - a.lo) * a.base
	if a.lo < a.rem {
		n += min(hi, a.rem) - a.lo
	}
	a.r, a.lo = a.r+1, hi
	if a.r == a.p {
		a.r, a.lo = 0, 0
	}
	return n
}

// Finish closes the run at the nominal measurement horizon (Start's d) and
// returns the run's SLO (owned by the engine; the caller copies it out).
// It walks the slots 1..⌊d/slot⌋ in order and scores each slot's batch
// against the outage windows: a slot at instant at is held iff some window
// has start ≤ at < end, so a pause at a slot instant holds that slot and a
// resume at a slot instant serves it. A held batch resolves at its
// window's end as delayed or timed out. A halted clock changes nothing:
// the users don't know the host died, so every slot to the horizon is
// offered, and a still-open outage is charged through the horizon, where
// its batches resolve as timed out or failed (the run ended first). Every
// batch is scored in its arrival interval, so goodput dips land where
// users experienced them.
func (e *Engine) Finish() *SLO {
	end := e.stopAt
	if e.down {
		e.accountOutage(end)
	}
	arr := newArrivals(e.cfg)
	timeoutUs := uint64(e.cfg.Timeout / time.Microsecond)

	var iv ivalScore
	closeInterval := func() {
		if iv.offered == 0 {
			return
		}
		if p := iv.served * 1000 / iv.offered; e.slo.Intervals == 0 || p < e.slo.WorstIntervalPermille {
			e.slo.WorstIntervalPermille = p
		}
		e.slo.Intervals++
		if iv.lost*10 > iv.offered {
			e.slo.DegradedIntervals++
		}
		iv = ivalScore{}
	}

	w, ivalEnd := 0, e.startAt+interval
	for t, numSlots := uint64(1), uint64((end-e.startAt)/slot); t <= numSlots; t++ {
		at := e.startAt + time.Duration(t)*slot
		// The boundary slot at exactly the horizon scores into the last
		// interval.
		if at >= ivalEnd && at < end {
			closeInterval()
			ivalEnd += interval
		}
		n := arr.next()
		if n == 0 {
			continue
		}
		e.slo.Offered += n
		iv.offered += n
		for w < len(e.windows) && e.windows[w].end <= at {
			w++
		}
		var waitUs uint64
		answered := true
		switch {
		case w < len(e.windows) && e.windows[w].start <= at:
			// Held, answered when service returned.
			waitUs = uint64((e.windows[w].end - at) / time.Microsecond)
		case e.down && e.downSince <= at:
			// Held, never answered: the run ended first.
			waitUs, answered = uint64((end-at)/time.Microsecond), false
		default:
			e.slo.Completed += n
			e.slo.Latency.ObserveN(baseUs, n)
			iv.served += n
			continue
		}
		switch {
		case waitUs+baseUs > timeoutUs:
			e.slo.TimedOut += n
			e.slo.ExcessWaitUs += n * timeoutUs
			iv.lost += n
		case answered:
			e.slo.Completed += n
			e.slo.Delayed += n
			e.slo.ExcessWaitUs += n * waitUs
			e.slo.Latency.ObserveN(waitUs+baseUs, n)
			iv.served += n
		default:
			e.slo.Failed += n
			e.slo.ExcessWaitUs += n * waitUs
			iv.lost += n
		}
	}
	closeInterval()
	if e.tel != nil {
		e.tel.Hists[telemetry.HistRequestLatencyUs].Merge(&e.slo.Latency)
		e.tel.SetGauge(telemetry.GaugeTrafficGoodput, int64(e.slo.GoodputPermille()))
	}
	return &e.slo
}
