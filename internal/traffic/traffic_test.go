package traffic

import (
	"testing"
	"time"

	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
)

// drain dispatches events until the queue empties or the clock halts.
func drain(clk *simclock.Clock) {
	for clk.Step() {
	}
}

// testCfg is a small, exactly-analyzable population: 10k users in 10
// cohorts of 1000, one request per 100ms (20 slots of 5ms). Cohort i fires
// at slot 1+2i, so the batches land on the odd slots 5ms, 15ms, ...,
// 995ms, 1000 users each: over a 1s run (one goodput interval) every user
// sends exactly 10 requests.
func testCfg() Config {
	return Config{
		Users:   10_000,
		Period:  100 * time.Millisecond,
		Timeout: 500 * time.Millisecond,
	}
}

func runEngine(t *testing.T, cfg Config, d time.Duration, arm func(clk *simclock.Clock, e *Engine)) *SLO {
	t.Helper()
	clk := simclock.New()
	e := New(cfg)
	e.Start(clk, nil, d)
	if arm != nil {
		arm(clk, e)
	}
	drain(clk)
	return e.Finish()
}

func TestSteadyStateExactCounts(t *testing.T) {
	cfg := testCfg()
	slo := runEngine(t, cfg, time.Second, nil)

	// 10k users × 10 periods each: every request offered and completed at
	// base latency, zero outage, all intervals clean.
	wantOffered := uint64(100_000)
	if slo.Offered != wantOffered {
		t.Fatalf("Offered = %d, want %d", slo.Offered, wantOffered)
	}
	if slo.Completed != wantOffered || slo.Delayed != 0 || slo.TimedOut != 0 || slo.Failed != 0 {
		t.Fatalf("completed/delayed/timedout/failed = %d/%d/%d/%d, want %d/0/0/0",
			slo.Completed, slo.Delayed, slo.TimedOut, slo.Failed, wantOffered)
	}
	if slo.Outages != 0 || slo.OutageUs != 0 || slo.DegradedUserUs != 0 || slo.ExcessWaitUs != 0 {
		t.Fatalf("outage accounting nonzero on clean run: %+v", slo)
	}
	if slo.Latency.Count != wantOffered || slo.Latency.Sum != wantOffered*2000 || slo.Latency.Max != 2000 {
		t.Fatalf("latency hist = count %d sum %d max %d, want %d/%d/2000",
			slo.Latency.Count, slo.Latency.Sum, slo.Latency.Max, wantOffered, wantOffered*2000)
	}
	if slo.Intervals != 1 || slo.DegradedIntervals != 0 || slo.WorstIntervalPermille != 1000 {
		t.Fatalf("intervals = %d/%d/worst %d‰, want 1/0/1000",
			slo.Intervals, slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
	if slo.GoodputPermille() != 1000 {
		t.Fatalf("goodput = %d‰, want 1000", slo.GoodputPermille())
	}
}

// TestOutageDelayedOnly: a 50ms outage with a 500ms timeout — every held
// request completes late, none time out. The outage window and user-µs of
// degradation are exact. The batches at 305ms..345ms (5 slots, 5000
// requests) are held and answered at 352ms, after 47+37+27+17+7 = 135ms.
func TestOutageDelayedOnly(t *testing.T) {
	cfg := testCfg()
	slo := runEngine(t, cfg, time.Second, func(clk *simclock.Clock, e *Engine) {
		clk.At(302*time.Millisecond, "down", e.ServiceDown)
		clk.At(352*time.Millisecond, "up", e.ServiceUp)
	})

	if slo.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", slo.Outages)
	}
	if slo.OutageUs != 50_000 {
		t.Fatalf("OutageUs = %d, want 50000", slo.OutageUs)
	}
	if want := uint64(50_000) * cfg.Users; slo.DegradedUserUs != want {
		t.Fatalf("DegradedUserUs = %d, want %d", slo.DegradedUserUs, want)
	}
	if slo.TimedOut != 0 || slo.Failed != 0 {
		t.Fatalf("timedout/failed = %d/%d, want 0/0 (timeout far above outage)", slo.TimedOut, slo.Failed)
	}
	if slo.Delayed != 5000 || slo.ExcessWaitUs != 1000*135_000 {
		t.Fatalf("delayed/excess = %d/%d, want 5000/135000000", slo.Delayed, slo.ExcessWaitUs)
	}
	if slo.Completed != slo.Offered {
		t.Fatalf("Completed = %d, Offered = %d: every request should complete (late at worst)", slo.Completed, slo.Offered)
	}
	// Offered is outage-independent: open-loop users keep sending.
	if slo.Offered != 100_000 {
		t.Fatalf("Offered = %d, want 100000", slo.Offered)
	}
}

// TestOutageTimeouts: a 300ms outage against a 100ms timeout — requests
// arriving early in the outage time out, late arrivals complete late. The
// 30 batches 305ms..595ms are held until 602ms. The 20 of them up to 495ms
// wait over 98ms, which with the 2ms base latency passes the deadline:
// 20,000 time out and charge 100ms each. The 10 from 505ms complete
// after 97+87+...+7 = 520ms in all. The one interval loses 20% of its
// 100,000 requests, so it is degraded at 800‰.
func TestOutageTimeouts(t *testing.T) {
	cfg := testCfg()
	cfg.Timeout = 100 * time.Millisecond
	slo := runEngine(t, cfg, time.Second, func(clk *simclock.Clock, e *Engine) {
		clk.At(302*time.Millisecond, "down", e.ServiceDown)
		clk.At(602*time.Millisecond, "up", e.ServiceUp)
	})

	if slo.TimedOut != 20_000 || slo.Delayed != 10_000 || slo.Completed != 80_000 || slo.Failed != 0 {
		t.Fatalf("timedout/delayed/completed/failed = %d/%d/%d/%d, want 20000/10000/80000/0",
			slo.TimedOut, slo.Delayed, slo.Completed, slo.Failed)
	}
	if want := uint64(20_000*100_000 + 1000*520_000); slo.ExcessWaitUs != want {
		t.Fatalf("ExcessWaitUs = %d, want %d", slo.ExcessWaitUs, want)
	}
	if slo.DegradedIntervals != 1 || slo.WorstIntervalPermille != 800 {
		t.Fatalf("intervals = %d degraded, worst %d‰, want 1 and 800‰",
			slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
}

// TestFinishWhileDown: service goes down and never returns — the outage is
// charged through the measurement horizon, held requests past the deadline
// are timeouts, younger ones failed. The 30 batches 5ms..295ms are served;
// the 70 from 305ms are held to 1s. The 20 up to 495ms are older than
// 498ms there and time out, charging 500ms each; the 50 from 505ms fail
// after 495+485+...+5 = 12,500ms in all.
func TestFinishWhileDown(t *testing.T) {
	cfg := testCfg()
	slo := runEngine(t, cfg, time.Second, func(clk *simclock.Clock, e *Engine) {
		clk.At(302*time.Millisecond, "down", e.ServiceDown)
	})

	wantOutage := uint64((time.Second - 302*time.Millisecond) / time.Microsecond)
	if slo.OutageUs != wantOutage {
		t.Fatalf("OutageUs = %d, want %d", slo.OutageUs, wantOutage)
	}
	if slo.DegradedUserUs != wantOutage*cfg.Users {
		t.Fatalf("DegradedUserUs = %d, want %d", slo.DegradedUserUs, wantOutage*cfg.Users)
	}
	if slo.TimedOut != 20_000 || slo.Failed != 50_000 || slo.Completed != 30_000 {
		t.Fatalf("timedout/failed/completed = %d/%d/%d, want 20000/50000/30000",
			slo.TimedOut, slo.Failed, slo.Completed)
	}
	if want := uint64(20_000*500_000 + 1000*12_500_000); slo.ExcessWaitUs != want {
		t.Fatalf("ExcessWaitUs = %d, want %d", slo.ExcessWaitUs, want)
	}
	if slo.DegradedIntervals != 1 || slo.WorstIntervalPermille != 300 {
		t.Fatalf("intervals = %d degraded, worst %d‰, want 1 and 300‰",
			slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
	if slo.Delayed != 0 {
		t.Fatalf("Delayed = %d, want 0 (nothing ever resumed)", slo.Delayed)
	}
	if slo.Offered != 100_000 {
		t.Fatalf("Offered = %d, want 100000 (open-loop arrivals continue while down)", slo.Offered)
	}
	if slo.Offered != slo.Completed+slo.TimedOut+slo.Failed {
		t.Fatalf("conservation violated: %d != %d+%d+%d", slo.Offered, slo.Completed, slo.TimedOut, slo.Failed)
	}
}

// TestHaltedClockSyntheticDrain: the clock halts mid-run (terminal
// hypervisor failure). Finish must still account the full nominal horizon
// — same Offered as a completed run — though the clock never reached it.
// The 40 batches 5ms..395ms were served, so the one interval scores
// 400‰.
func TestHaltedClockSyntheticDrain(t *testing.T) {
	cfg := testCfg()
	clk := simclock.New()
	e := New(cfg)
	e.Start(clk, nil, time.Second)
	clk.At(402*time.Millisecond, "failure", func() {
		clk.Halt()
	})
	drain(clk)
	e.ServiceDown() // the campaign marks terminal failure as service loss
	slo := e.Finish()

	if slo.Offered != 100_000 {
		t.Fatalf("Offered = %d, want 100000 despite the halt at 402ms", slo.Offered)
	}
	if slo.Offered != slo.Completed+slo.TimedOut+slo.Failed {
		t.Fatalf("conservation violated: %d != %d+%d+%d", slo.Offered, slo.Completed, slo.TimedOut, slo.Failed)
	}
	wantOutage := uint64((time.Second - 402*time.Millisecond) / time.Microsecond)
	if slo.OutageUs != wantOutage {
		t.Fatalf("OutageUs = %d, want %d", slo.OutageUs, wantOutage)
	}
	if slo.WorstIntervalPermille != 400 {
		t.Fatalf("worst interval = %d‰, want 400 (only pre-failure requests were served)", slo.WorstIntervalPermille)
	}
}

// TestEngineReuseAcrossRuns: the campaign re-arms one engine per run.
// Run 2 on a reused engine must produce exactly run 1's SLO.
func TestEngineReuseAcrossRuns(t *testing.T) {
	cfg := testCfg()
	run := func(e *Engine) SLO {
		clk := simclock.New()
		e.Start(clk, nil, time.Second)
		clk.At(302*time.Millisecond, "down", e.ServiceDown)
		clk.At(602*time.Millisecond, "up", e.ServiceUp)
		drain(clk)
		return *e.Finish()
	}
	e := New(cfg)
	first := run(e)
	second := run(e)
	if first != second {
		t.Fatalf("reused engine diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestMergeProperties(t *testing.T) {
	mk := func(seed uint64) SLO {
		s := SLO{
			Users: 1000 * seed, Offered: 100 * seed, Completed: 90 * seed,
			Delayed: 5 * seed, TimedOut: 7 * seed, Failed: 3 * seed,
			ExcessWaitUs: 11 * seed, DegradedUserUs: 13 * seed,
			Outages: seed, OutageUs: 17 * seed,
			Intervals: 2 * seed, DegradedIntervals: seed,
			WorstIntervalPermille: 1000 - 100*seed,
		}
		s.Latency.ObserveN(100*seed, 10*seed)
		return s
	}
	a, b, c := mk(1), mk(2), mk(3)

	// Commutativity.
	ab, ba := a, b
	ab.Merge(&b)
	ba.Merge(&a)
	if ab != ba {
		t.Fatalf("merge not commutative:\na+b = %+v\nb+a = %+v", ab, ba)
	}
	// Associativity.
	abc1 := a
	abc1.Merge(&b)
	abc1.Merge(&c)
	bc := b
	bc.Merge(&c)
	abc2 := a
	abc2.Merge(&bc)
	if abc1 != abc2 {
		t.Fatalf("merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", abc1, abc2)
	}
	// The zero SLO is the identity on both sides — in particular the min
	// guard must not let an empty shard zero the worst-interval figure.
	var zero SLO
	za := zero
	za.Merge(&a)
	az := a
	az.Merge(&zero)
	if za != a || az != a {
		t.Fatalf("zero not identity:\n0+a = %+v\na+0 = %+v\na   = %+v", za, az, a)
	}
}

// TestZeroAllocSteadyState: after one warm-up run, a whole run with an
// outage — Start, ServiceDown, ServiceUp, Finish — allocates nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	clk := simclock.New()
	e := New(testCfg())
	run := func() {
		start := clk.Now()
		e.Start(clk, nil, time.Second)
		clk.RunUntil(start + 302*time.Millisecond)
		e.ServiceDown()
		clk.RunUntil(start + 602*time.Millisecond)
		e.ServiceUp()
		e.Finish()
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warm run allocates %v/op, want 0", avg)
	}
}

// TestTelemetryWiring: the request-latency histogram and traffic gauges
// land in the shared registry at Finish.
func TestTelemetryWiring(t *testing.T) {
	cfg := testCfg()
	clk := simclock.New()
	tel := telemetry.New(16, clk.Now)
	e := New(cfg)
	e.Start(clk, tel, time.Second)
	drain(clk)
	slo := e.Finish()

	if h := &tel.Hists[telemetry.HistRequestLatencyUs]; h.Count != slo.Latency.Count || h.Sum != slo.Latency.Sum {
		t.Fatalf("registry hist = %d/%d, want %d/%d", h.Count, h.Sum, slo.Latency.Count, slo.Latency.Sum)
	}
	if g := tel.Gauges[telemetry.GaugeTrafficUsers]; g != int64(cfg.Users) {
		t.Fatalf("users gauge = %d, want %d", g, cfg.Users)
	}
	if g := tel.Gauges[telemetry.GaugeTrafficGoodput]; g != 1000 {
		t.Fatalf("goodput gauge = %d, want 1000", g)
	}
}

// TestConfigDefaults pins the documented defaults and the cohort clamps.
func TestConfigDefaults(t *testing.T) {
	c := Config{Users: 1_000_000}.withDefaults()
	if c.Period != time.Second || c.Timeout != 500*time.Millisecond {
		t.Fatalf("defaults = %+v", c)
	}
	if c := (Config{Period: time.Millisecond}).withDefaults(); c.Period != slot {
		t.Fatalf("sub-slot Period = %v, want one slot", c.Period)
	}
	for _, tc := range []struct{ users, cohorts uint64 }{
		{1_000_000, 1000},
		{10, 1}, // Users/1000 clamps up to 1
		{1, 1},  // never more cohorts than users
		{1 << 40, 65536},
	} {
		if got := (Config{Users: tc.users}).cohorts(); got != tc.cohorts {
			t.Fatalf("Users %d: cohorts = %d, want %d", tc.users, got, tc.cohorts)
		}
	}
}

// TestSlotInstantTies pins what happens when a service transition lands on
// a slot instant. 10k users in 10 cohorts on a 100ms period fire on the
// odd 5ms slots (5ms, 15ms, ...), 1000 users each. A window is half-open:
// a slot at its start is held and a slot at its end is served.
func TestSlotInstantTies(t *testing.T) {
	cfg := Config{Users: 10_000, Period: 100 * time.Millisecond}

	// Down at 305ms, up at 605ms: the 30 slots 305ms..595ms are held and
	// resolve at 605ms, waiting 300ms..10ms (sum 4650ms) under the 500ms
	// deadline; the 605ms slot is served on time.
	slo := runEngine(t, cfg, time.Second, func(clk *simclock.Clock, e *Engine) {
		clk.At(305*time.Millisecond, "down", e.ServiceDown)
		clk.At(605*time.Millisecond, "up", e.ServiceUp)
	})
	if slo.Delayed != 30_000 || slo.ExcessWaitUs != 4_650_000_000 {
		t.Fatalf("delayed/excess = %d/%d, want 30000/4650000000", slo.Delayed, slo.ExcessWaitUs)
	}

	// A halt at 405ms, then ServiceDown: the 40 slots 5ms..395ms are
	// served and the 60 slots 405ms..995ms are held to the 1s horizon.
	// The 10 slots 405ms..495ms have waited past 498ms by then, so with
	// the 2ms base latency they miss the 500ms deadline and time out; the
	// other 50 slots fail.
	clk := simclock.New()
	e := New(cfg)
	e.Start(clk, nil, time.Second)
	clk.At(405*time.Millisecond, "failure", clk.Halt)
	drain(clk)
	e.ServiceDown()
	slo = e.Finish()
	if slo.Completed != 40_000 || slo.TimedOut != 10_000 || slo.Failed != 50_000 {
		t.Fatalf("completed/timedout/failed = %d/%d/%d, want 40000/10000/50000",
			slo.Completed, slo.TimedOut, slo.Failed)
	}
}

// TestUnevenCohortSplit: when the cohorts do not divide the population
// (12,345 users in 12 cohorts, 1,000,999 in 1000), the first Users%C
// cohorts carry one user more, and every user still sends exactly one
// request per period. Over 1.4s (280 slots) a period of P slots that
// divides 280 offers Users × 280/P requests.
func TestUnevenCohortSplit(t *testing.T) {
	for _, users := range []uint64{1, 3, 12_345, 1_000_999} {
		for _, periodSlots := range []uint64{1, 7, 40, 280} {
			cfg := Config{Users: users, Period: time.Duration(periodSlots) * slot}
			slo := runEngine(t, cfg, 1400*time.Millisecond, nil)
			if want := users * 280 / periodSlots; slo.Offered != want || slo.Completed != want {
				t.Fatalf("Users %d, period %d slots: offered/completed = %d/%d, want %d",
					users, periodSlots, slo.Offered, slo.Completed, want)
			}
		}
	}
}
