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
// cohorts, one request per 100ms, 5ms ticks — so over a 1s run every user
// sends exactly 10 requests.
func testCfg() Config {
	return Config{
		Users:       10_000,
		Cohorts:     10,
		Period:      100 * time.Millisecond,
		Timeout:     500 * time.Millisecond,
		BaseLatency: 2 * time.Millisecond,
		SlotWidth:   5 * time.Millisecond,
		Interval:    100 * time.Millisecond,
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
	if slo.Intervals != 10 || slo.DegradedIntervals != 0 || slo.WorstIntervalPermille != 1000 {
		t.Fatalf("intervals = %d/%d/worst %d‰, want 10/0/1000",
			slo.Intervals, slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
	if slo.GoodputPermille() != 1000 {
		t.Fatalf("goodput = %d‰, want 1000", slo.GoodputPermille())
	}
}

// TestOutageDelayedOnly: a 50ms outage with a 500ms timeout — every held
// request completes late, none time out. The outage window and user-µs of
// degradation are exact.
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
	if slo.Delayed == 0 {
		t.Fatal("no delayed completions through a mid-run outage")
	}
	if slo.Completed != slo.Offered {
		t.Fatalf("Completed = %d, Offered = %d: every request should complete (late at worst)", slo.Completed, slo.Offered)
	}
	if slo.ExcessWaitUs == 0 {
		t.Fatal("delayed completions carried no excess wait")
	}
	// Offered is outage-independent: open-loop users keep sending.
	if slo.Offered != 100_000 {
		t.Fatalf("Offered = %d, want 100000", slo.Offered)
	}
}

// TestOutageTimeouts: a 300ms outage against a 100ms timeout — requests
// arriving early in the outage time out, late arrivals complete late.
func TestOutageTimeouts(t *testing.T) {
	cfg := testCfg()
	cfg.Timeout = 100 * time.Millisecond
	slo := runEngine(t, cfg, time.Second, func(clk *simclock.Clock, e *Engine) {
		clk.At(302*time.Millisecond, "down", e.ServiceDown)
		clk.At(602*time.Millisecond, "up", e.ServiceUp)
	})

	if slo.TimedOut == 0 || slo.Delayed == 0 {
		t.Fatalf("timedout = %d, delayed = %d: want both nonzero", slo.TimedOut, slo.Delayed)
	}
	if slo.Failed != 0 {
		t.Fatalf("Failed = %d, want 0 (service came back)", slo.Failed)
	}
	if slo.Offered != slo.Completed+slo.TimedOut+slo.Failed {
		t.Fatalf("conservation violated: %d != %d+%d+%d", slo.Offered, slo.Completed, slo.TimedOut, slo.Failed)
	}
	if slo.DegradedIntervals == 0 || slo.WorstIntervalPermille == 1000 {
		t.Fatalf("intervals = %d degraded, worst %d‰: a 300ms outage must degrade goodput",
			slo.DegradedIntervals, slo.WorstIntervalPermille)
	}
	// Timed-out requests charge the full timeout as excess wait.
	if slo.ExcessWaitUs < slo.TimedOut*100_000 {
		t.Fatalf("ExcessWaitUs = %d < timedout×timeout = %d", slo.ExcessWaitUs, slo.TimedOut*100_000)
	}
}

// TestFinishWhileDown: service goes down and never returns — the outage is
// charged through the measurement horizon, held requests past the deadline
// are timeouts, younger ones failed.
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
	if slo.TimedOut == 0 || slo.Failed == 0 {
		t.Fatalf("timedout = %d, failed = %d: want both nonzero (698ms of arrivals vs 500ms deadline)",
			slo.TimedOut, slo.Failed)
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
// — same Offered as a completed run — by draining the remaining wheel
// ticks arithmetically.
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
	if slo.WorstIntervalPermille != 0 {
		t.Fatalf("worst interval = %d‰, want 0 (post-failure intervals got nothing)", slo.WorstIntervalPermille)
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

// TestZeroAllocSteadyState: after warmup, ticking (including through an
// outage's pend-batch path) allocates nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	cfg := testCfg()
	clk := simclock.New()
	e := New(cfg)
	e.Start(clk, nil, time.Hour)
	// Warm up: a couple of ticks plus one down/up cycle grows every
	// buffer to steady-state size.
	for i := 0; i < 20; i++ {
		clk.Step()
	}
	e.ServiceDown()
	for i := 0; i < 20; i++ {
		clk.Step()
	}
	e.ServiceUp()

	if avg := testing.AllocsPerRun(200, func() { clk.Step() }); avg != 0 {
		t.Fatalf("steady-state tick allocates %v/op, want 0", avg)
	}
	e.ServiceDown()
	if avg := testing.AllocsPerRun(200, func() { clk.Step() }); avg != 0 {
		t.Fatalf("down-path tick allocates %v/op, want 0", avg)
	}
	e.ServiceUp()
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

// TestConfigDefaults pins the documented defaults and clamps.
func TestConfigDefaults(t *testing.T) {
	c := Config{Users: 1_000_000}.withDefaults()
	if c.Cohorts != 1000 {
		t.Fatalf("Cohorts = %d, want 1000", c.Cohorts)
	}
	if c.Period != time.Second || c.Timeout != 500*time.Millisecond ||
		c.BaseLatency != 2*time.Millisecond || c.SlotWidth != 5*time.Millisecond ||
		c.Interval != time.Second {
		t.Fatalf("defaults = %+v", c)
	}
	if c := (Config{Users: 10}).withDefaults(); c.Cohorts != 1 {
		t.Fatalf("tiny population Cohorts = %d, want 1 (Users/1000 clamps up to 1)", c.Cohorts)
	}
	if c := (Config{Users: 1, Cohorts: 1 << 20}).withDefaults(); c.Cohorts != 1 {
		t.Fatalf("clamped Cohorts = %d, want 1", c.Cohorts)
	}
}
