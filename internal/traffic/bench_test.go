package traffic

import (
	"testing"
	"time"

	"nilihype/internal/simclock"
)

// BenchmarkTrafficRun measures a whole armed run: Start, 2s of traffic
// with one 700ms outage (the microreboot shape), Finish.
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
