package simclock

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures the steady-state schedule+dispatch cycle:
// every iteration schedules one event and dispatches one. This is the
// kernel's hot loop — hundreds of these per virtual millisecond per run.
func BenchmarkScheduleFire(b *testing.B) {
	c := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(time.Microsecond, "bench", fn)
		c.Step()
	}
}

// BenchmarkScheduleFireDepth64 keeps 64 events pending so sift-down walks
// real heap levels (the cache-miss case the 4-ary layout targets).
func BenchmarkScheduleFireDepth64(b *testing.B) {
	c := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Microsecond, "fill", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(65*time.Microsecond, "bench", fn)
		c.Step()
	}
}

// BenchmarkCancel measures the schedule+cancel cycle (timer re-arm
// patterns: the APIC one-shot cancels and re-arms constantly).
func BenchmarkCancel(b *testing.B) {
	c := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := c.After(time.Millisecond, "bench", fn)
		c.Cancel(e)
	}
}
