package guest

import (
	"time"

	"nilihype/internal/hw"
)

// NetSender is the NetBench sender: a process on a separate physical host
// that sends one UDP packet per millisecond to the receiver AppVM and
// measures replies (§VI-A). Because it is outside the target system, it
// keeps running during hypervisor recovery — which is exactly how the
// paper measures recovery latency as service interruption (§VII-B).
type NetSender struct {
	w           *World
	period      time.Duration
	intervalLen time.Duration
	// sendFn is s.send as a method value, taken once: the send chain
	// reschedules itself every period.
	sendFn func()
	senderState
}

// senderState is one run's flow and measurements; reset zeroes it.
type senderState struct {
	flow    int
	startAt time.Duration
	stopAt  time.Duration
	seq     uint64

	// Sent/Received count packets and replies.
	Sent     uint64
	Received uint64

	lastReply  time.Duration
	gotReply   bool
	maxGap     time.Duration
	replyTimes []time.Duration
	exclusions []window
}

type window struct{ start, end time.Duration }

func newNetSender(w *World) *NetSender {
	s := &NetSender{w: w, period: time.Millisecond, intervalLen: time.Second}
	s.sendFn = s.send
	w.H.Machine.NIC().SetTxSink(s.onReply)
	return s
}

// Start begins sending to the receiver domain for the given duration.
func (s *NetSender) Start(flow int, duration time.Duration) {
	s.flow = flow
	s.startAt = s.w.H.Clock.Now()
	s.stopAt = s.startAt + duration
	s.scheduleSend()
}

func (s *NetSender) scheduleSend() {
	s.w.H.Clock.After(s.period, "netbench-send", s.sendFn)
}

// send injects one packet and schedules the next, until the run's end or
// the hypervisor's failure.
func (s *NetSender) send() {
	now := s.w.H.Clock.Now()
	if now >= s.stopAt {
		return
	}
	if failed, _ := s.w.H.Failed(); failed {
		return
	}
	s.seq++
	s.Sent++
	s.w.H.Machine.NIC().Inject(hw.Packet{Flow: s.flow, Seq: s.seq, SentAt: now})
	s.scheduleSend()
}

// onReply records one reply from the receiver.
func (s *NetSender) onReply(p hw.Packet) {
	now := s.w.H.Clock.Now()
	s.Received++
	s.replyTimes = append(s.replyTimes, now)
	if s.gotReply && now-s.lastReply > s.maxGap {
		s.maxGap = now - s.lastReply
	}
	s.gotReply = true
	s.lastReply = now
}

// ServiceInterruption estimates the service outage: the longest gap minus
// the nominal reply spacing.
func (s *NetSender) ServiceInterruption() time.Duration {
	if s.maxGap <= s.period {
		return 0
	}
	return s.maxGap - s.period
}

// ExcludeWindow marks [start, end) as an announced outage (the recovery
// window) that the reception-rate criterion does not penalize. The paper
// applies the 10%-drop criterion to steady-state behavior and separately
// reports the recovery gap as latency (§VI-A, §VII-B).
//
// The exclusion set is kept sorted, disjoint, and coalesced on insert.
// Escalating recoveries announce one window per attempt and those windows
// share a start (the first detection instant), so without coalescing the
// per-window overlap sum would double-count the shared span and
// over-discount an interval's usable time — masking genuinely failed
// intervals. Adjacent windows ([a,b) + [b,c)) merge too: exclusion is
// about covered time, and they cover [a,c).
func (s *NetSender) ExcludeWindow(start, end time.Duration) {
	if end <= start {
		return
	}
	// Find the run [i, j) of existing windows that overlap or touch
	// [start, end); they merge with it into one.
	i := 0
	for i < len(s.exclusions) && s.exclusions[i].end < start {
		i++
	}
	j := i
	for j < len(s.exclusions) && s.exclusions[j].start <= end {
		if s.exclusions[j].start < start {
			start = s.exclusions[j].start
		}
		if s.exclusions[j].end > end {
			end = s.exclusions[j].end
		}
		j++
	}
	if i == j {
		// No overlap: splice the new window in at i.
		s.exclusions = append(s.exclusions, window{})
		copy(s.exclusions[i+1:], s.exclusions[i:])
		s.exclusions[i] = window{start, end}
		return
	}
	s.exclusions[i] = window{start, end}
	s.exclusions = append(s.exclusions[:i+1], s.exclusions[j:]...)
}

// FailedIntervals applies the paper's criterion: the number of 1-second
// intervals whose reception rate dropped more than 10% below nominal,
// with excluded windows discounted.
func (s *NetSender) FailedIntervals() int {
	if s.stopAt == 0 {
		return 0
	}
	failed := 0
	for t := s.startAt; t < s.stopAt; t += s.intervalLen {
		end := min(t+s.intervalLen, s.stopAt)
		usable := (end - t) - s.overlap(t, end)
		expected := float64(usable) / float64(s.period)
		if expected < 1 {
			continue
		}
		got := 0
		for _, rt := range s.replyTimes {
			if rt >= t && rt < end {
				got++
			}
		}
		if float64(got) < 0.9*expected {
			failed++
		}
	}
	return failed
}

// overlap returns how much of [a,b) is covered by exclusion windows.
// Because the set is disjoint, the per-window sum is exact (and can never
// exceed b-a).
func (s *NetSender) overlap(a, b time.Duration) time.Duration {
	var total time.Duration
	for _, w := range s.exclusions {
		lo, hi := max(a, w.start), min(b, w.end)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
