// Package health is the per-host health model: it folds the recovery
// journal's episode outcomes and the telemetry-derived SLO damage into a
// rolling window and collapses them to a Healthy/Degraded/Exhausted state
// machine with deterministic transitions.
//
// This is the exact signal the fleet cordon loop (ROADMAP item 1) will
// consume: a Degraded host is a candidate for workload drain, an
// Exhausted host for cordon/evacuate/replace. Until the fleet layer
// exists, the campaign layer replays a campaign's runs in seed order as
// one host's life — many faults hitting the same host over time — and
// reports the trajectory.
//
// Determinism contract: every input is an exact integer, every rule an
// integer comparison, and the window is a fixed-order ring — observing the
// same episode sequence always produces the same transitions. The model
// holds no clock and no randomness.
package health

import "fmt"

// State is a host's health state.
type State uint8

// States, in increasing order of concern.
const (
	// Healthy: recoveries are succeeding on the cheap rungs with no
	// accumulated service degradation.
	Healthy State = iota + 1
	// Degraded: the host still recovers, but the window shows pressure —
	// depressed success rate, ladder climbing toward its top rung,
	// accumulated degraded verdicts, or excessive SLO damage. A fleet
	// would drain new placements away from it.
	Degraded
	// Exhausted: the recovery ladder failed terminally (or failures
	// accumulated past the limit). Exhausted is sticky: no later quiet
	// window un-exhausts a host — a fleet replaces it.
	Exhausted
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Exhausted:
		return "exhausted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Sample is one recovery episode's health-relevant outcome, distilled from
// the journal and the run's SLO record. All fields are exact integers, so
// samples JSON-round-trip losslessly and merge-order never matters.
type Sample struct {
	// Recovered reports whether the episode's recovery held (the paper's
	// success criterion); false is a terminal recovery failure.
	Recovered bool `json:"recovered"`
	// Attempts is the ladder depth the episode used; MaxAttempts the
	// ladder's capacity (Attempts == MaxAttempts on a non-recovered
	// episode means the ladder was exhausted outright).
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// DegradedVerdicts counts AppVMs the episode's audits sacrificed.
	DegradedVerdicts int `json:"degraded_verdicts,omitempty"`
	// SLODamageUs is the episode's user-microseconds of degradation
	// (traffic.SLO.DegradedUserUs; zero when no traffic was armed).
	SLODamageUs uint64 `json:"slo_damage_us,omitempty"`
}

// Config parameterizes the health model. The zero value gets defaults via
// the model constructor.
type Config struct {
	// Window is the rolling episode window (default 16).
	Window int
	// MinSuccessPermille is the window success-rate floor, in ‰ of the
	// window's episodes (default 900: more than 1-in-10 failing recovery
	// marks the host Degraded even before exhaustion rules fire).
	MinSuccessPermille int
	// MaxDegradedVerdicts bounds accumulated sacrificed-AppVM verdicts in
	// the window before the host is Degraded (default 2).
	MaxDegradedVerdicts int
	// MaxFullLadder bounds window episodes that climbed to the ladder's
	// top rung before the host is Degraded (default 2) — ladder-depth
	// pressure: the cheap rungs are no longer sufficient.
	MaxFullLadder int
	// MaxFailures bounds terminal recovery failures in the window before
	// the host is Exhausted (default 1: one ladder exhaustion on a real
	// host means the hypervisor is down and must be replaced).
	MaxFailures int
	// MaxSLODamageUsPerEpisode bounds the window's mean per-episode SLO
	// damage, in user-microseconds (default 120s of user-degradation per
	// episode — well above a clean microreset episode, below a host that
	// is routinely dragging users through long outages).
	MaxSLODamageUsPerEpisode uint64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSuccessPermille <= 0 {
		c.MinSuccessPermille = 900
	}
	if c.MaxDegradedVerdicts <= 0 {
		c.MaxDegradedVerdicts = 2
	}
	if c.MaxFullLadder <= 0 {
		c.MaxFullLadder = 2
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 1
	}
	if c.MaxSLODamageUsPerEpisode == 0 {
		c.MaxSLODamageUsPerEpisode = 120_000_000
	}
	return c
}

// Transition is one state-machine edge: after observing episode Episode
// (1-based), the host moved From → To because of Reason.
type Transition struct {
	Episode int    `json:"episode"`
	From    string `json:"from"`
	To      string `json:"to"`
	Reason  string `json:"reason"`
}

// Model is one host's health state machine.
type Model struct {
	cfg      Config
	win      []Sample // ring buffer of the last cfg.Window episodes
	episodes int
	state    State
	trans    []Transition
}

// New builds a model starting Healthy.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	return &Model{cfg: cfg, win: make([]Sample, 0, cfg.Window), state: Healthy}
}

// State returns the current state.
func (m *Model) State() State { return m.state }

// Transitions returns the recorded state transitions, in order.
func (m *Model) Transitions() []Transition { return m.trans }

// Observe folds one recovery episode into the window and returns the
// resulting state. Rules are evaluated in strict priority order and the
// first match names the transition reason, so the trajectory is a pure
// function of the episode sequence.
func (m *Model) Observe(s Sample) State {
	m.episodes++
	if len(m.win) < m.cfg.Window {
		m.win = append(m.win, s)
	} else {
		copy(m.win, m.win[1:])
		m.win[len(m.win)-1] = s
	}

	next, reason := m.evaluate()
	if m.state == Exhausted {
		// Sticky: a replaced host, not a recovered one.
		next = Exhausted
	}
	if next != m.state {
		m.trans = append(m.trans, Transition{
			Episode: m.episodes,
			From:    m.state.String(), To: next.String(),
			Reason: reason,
		})
		m.state = next
	}
	return m.state
}

// evaluate computes the window's state and the first-matching rule name.
func (m *Model) evaluate() (State, string) {
	var failures, fullLadder, degraded int
	var damageUs uint64
	for _, s := range m.win {
		if !s.Recovered {
			failures++
		}
		if s.MaxAttempts > 1 && s.Attempts >= s.MaxAttempts {
			fullLadder++
		}
		degraded += s.DegradedVerdicts
		damageUs += s.SLODamageUs
	}
	n := len(m.win)
	switch {
	case failures >= m.cfg.MaxFailures:
		return Exhausted, fmt.Sprintf("%d terminal recovery failure(s) in window (limit %d)",
			failures, m.cfg.MaxFailures)
	case failures*1000 > (1000-m.cfg.MinSuccessPermille)*n:
		return Degraded, fmt.Sprintf("window success rate below %d‰ (%d/%d failed)",
			m.cfg.MinSuccessPermille, failures, n)
	case degraded >= m.cfg.MaxDegradedVerdicts:
		return Degraded, fmt.Sprintf("%d degraded verdict(s) accumulated in window (limit %d)",
			degraded, m.cfg.MaxDegradedVerdicts)
	case fullLadder >= m.cfg.MaxFullLadder:
		return Degraded, fmt.Sprintf("%d episode(s) climbed to the top ladder rung (limit %d)",
			fullLadder, m.cfg.MaxFullLadder)
	case n > 0 && damageUs > m.cfg.MaxSLODamageUsPerEpisode*uint64(n):
		return Degraded, fmt.Sprintf("mean SLO damage %dus/episode over limit %dus",
			damageUs/uint64(n), m.cfg.MaxSLODamageUsPerEpisode)
	default:
		return Healthy, "window clear"
	}
}

// Report is a host's health trajectory over an episode sequence.
type Report struct {
	// Final is the state after the last episode; Episodes counts them.
	Final    string `json:"final"`
	Episodes int    `json:"episodes"`
	// Failures/FullLadder/DegradedVerdicts/SLODamageUs total the raw
	// pressure signals over ALL episodes (not just the final window).
	Failures         int    `json:"failures"`
	FullLadder       int    `json:"full_ladder"`
	DegradedVerdicts int    `json:"degraded_verdicts"`
	SLODamageUs      uint64 `json:"slo_damage_us"`
	// Transitions is the full transition history.
	Transitions []Transition `json:"transitions,omitempty"`
}

// Replay runs an episode sequence through a fresh model and reports the
// trajectory. The caller fixes the episode order (the campaign layer uses
// seed order), which makes the report bit-identical however the episodes
// were computed.
func Replay(cfg Config, samples []Sample) Report {
	m := New(cfg)
	rep := Report{Final: Healthy.String()}
	for _, s := range samples {
		m.Observe(s)
		rep.Episodes++
		if !s.Recovered {
			rep.Failures++
		}
		if s.MaxAttempts > 1 && s.Attempts >= s.MaxAttempts {
			rep.FullLadder++
		}
		rep.DegradedVerdicts += s.DegradedVerdicts
		rep.SLODamageUs += s.SLODamageUs
	}
	rep.Final = m.State().String()
	rep.Transitions = m.Transitions()
	return rep
}

// Format renders the report as a short block.
func (r Report) Format() string {
	if r.Episodes == 0 {
		return "host health: healthy (no recovery episodes)\n"
	}
	out := fmt.Sprintf("host health: %s after %d episode(s) — %d failure(s), %d top-rung climb(s), %d degraded verdict(s)",
		r.Final, r.Episodes, r.Failures, r.FullLadder, r.DegradedVerdicts)
	if r.SLODamageUs > 0 {
		out += fmt.Sprintf(", %.1f user-sec SLO damage", float64(r.SLODamageUs)/1e6)
	}
	out += "\n"
	for _, t := range r.Transitions {
		out += fmt.Sprintf("  episode %d: %s → %s (%s)\n", t.Episode, t.From, t.To, t.Reason)
	}
	return out
}
