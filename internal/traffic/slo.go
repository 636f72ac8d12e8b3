package traffic

import "nilihype/internal/telemetry"

// SLO is the user-visible outcome of one run (or, after merging, of a whole
// campaign): what the open-loop user population experienced while the
// hypervisor detected, paused, repaired, and resumed. Every field is an
// exact integer so Merge is associative and commutative bit-for-bit —
// campaign shards, workers, and fork-vs-cold paths combine in any order and
// produce identical summaries, the same contract the rest of Summary obeys.
//
// Units: all durations are microseconds (µs). Fixed-point integer µs keep
// a million users × seconds of outage well inside uint64 (and inside the
// 2^53 window that survives a JSON round-trip exactly).
type SLO struct {
	// Users is the simulated population size (max across merges — every
	// run in a campaign offers the same population, so max == the value).
	Users uint64

	// Offered counts requests issued by the population; Completed the
	// ones that got a response within the timeout. Completed includes
	// Delayed — requests that arrived during an outage and were answered
	// late (but within timeout) at resume. TimedOut requests waited past
	// the timeout before service returned; Failed requests were still
	// unanswered when the run ended (terminal hypervisor failure).
	// Offered == Completed + TimedOut + Failed always holds.
	Offered   uint64
	Completed uint64
	Delayed   uint64
	TimedOut  uint64
	Failed    uint64

	// ExcessWaitUs sums, over all delayed/timed-out requests, the extra
	// µs each user waited beyond the base service latency (timed-out
	// requests charge the full timeout). User-weighted: a cohort of n
	// users waiting w µs adds n·w.
	ExcessWaitUs uint64

	// DegradedUserUs is the headline metric: user-seconds of degradation
	// in µs — for every outage window, population × window length. This
	// is what makes microreset's 2.15 ms vs microreboot's 713 ms vs a
	// PrivVM restart's 2.07 s directly comparable as end-user damage.
	DegradedUserUs uint64

	// Outages counts service-down windows; OutageUs sums their lengths.
	Outages  uint64
	OutageUs uint64

	// Interval accounting: the run is scored in fixed goodput intervals.
	// Intervals counts intervals with any offered load; DegradedIntervals
	// those where more than 10% of offered requests were lost (timed out
	// or failed); WorstIntervalPermille is the worst per-interval goodput
	// in ‰ of offered (1000 = clean; merged by min).
	Intervals             uint64
	DegradedIntervals     uint64
	WorstIntervalPermille uint64

	// Latency is the end-user request latency distribution in µs.
	Latency telemetry.Hist
}

// Merge folds other into s. Counter adds, a max (Users), a guarded min
// (WorstIntervalPermille), and a Hist merge — all exact-integer and
// order-independent. The zero SLO is the merge identity: the min guard
// skips sides with no scored intervals so an empty shard never drags the
// worst-interval figure to zero.
func (s *SLO) Merge(other *SLO) {
	if other.Users > s.Users {
		s.Users = other.Users
	}
	s.Offered += other.Offered
	s.Completed += other.Completed
	s.Delayed += other.Delayed
	s.TimedOut += other.TimedOut
	s.Failed += other.Failed
	s.ExcessWaitUs += other.ExcessWaitUs
	s.DegradedUserUs += other.DegradedUserUs
	s.Outages += other.Outages
	s.OutageUs += other.OutageUs
	if other.Intervals > 0 {
		if s.Intervals == 0 || other.WorstIntervalPermille < s.WorstIntervalPermille {
			s.WorstIntervalPermille = other.WorstIntervalPermille
		}
	}
	s.Intervals += other.Intervals
	s.DegradedIntervals += other.DegradedIntervals
	s.Latency.Merge(&other.Latency)
}

// Lost returns the requests users never got answered in time.
func (s *SLO) Lost() uint64 { return s.TimedOut + s.Failed }

// GoodputPermille returns overall completed/offered in ‰ (1000 if nothing
// was offered).
func (s *SLO) GoodputPermille() uint64 {
	if s.Offered == 0 {
		return 1000
	}
	return s.Completed * 1000 / s.Offered
}

// DegradedUserSeconds converts the headline metric to float seconds for
// display (accounting stays integer µs).
func (s *SLO) DegradedUserSeconds() float64 {
	return float64(s.DegradedUserUs) / 1e6
}
