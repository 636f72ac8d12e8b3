package traffic

import (
	"testing"
	"time"

	"nilihype/internal/simclock"
)

// BenchmarkWheelAdvance measures the bare wheel: 1000 cohorts on a
// 200-tick period, advanced tick by tick with periodic re-insertion —
// the steady-state inner loop of a million-user population.
func BenchmarkWheelAdvance(b *testing.B) {
	const n = 1000
	const period = 200
	cs := make([]cohort, n)
	var w wheel
	w.init()
	for i := range cs {
		cs[i].users = 1000
		w.insert(cs, int32(i), 1+uint64(i*period)/n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := w.advance(cs); i != none; {
			next := cs[i].next
			w.insert(cs, i, cs[i].due+period)
			i = next
		}
	}
}

// BenchmarkTrafficTick measures the full tick path through simclock: event
// dispatch, batch accounting, histogram update, reschedule. One iteration
// is one 5ms tick carrying a 1M-user population.
func BenchmarkTrafficTick(b *testing.B) {
	clk := simclock.New()
	e := New(Config{Users: 1_000_000})
	// Horizon long enough that the tick chain outlives b.N (5ms per tick).
	e.Start(clk, nil, time.Duration(b.N+100)*5*time.Millisecond)
	for i := 0; i < 50; i++ {
		clk.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}

// BenchmarkTrafficRun measures a whole armed run: Start, 2s of ticks with
// one 700ms outage (the microreboot shape), Finish.
func BenchmarkTrafficRun(b *testing.B) {
	e := New(Config{Users: 1_000_000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := simclock.New()
		e.Start(clk, nil, 2*time.Second)
		clk.At(500*time.Millisecond, "down", e.ServiceDown)
		clk.At(1200*time.Millisecond, "up", e.ServiceUp)
		drain(clk)
		e.Finish()
	}
}
