package evtchn

import "testing"

// BenchmarkSendLastPending measures the event-channel delivery path a
// hypercall and the guest's upcall take: Send across a bound pair, find
// the highest pending port, clear the pending set.
func BenchmarkSendLastPending(b *testing.B) {
	br := NewBroker()
	t0, t1 := NewTable(0, DefaultPorts), NewTable(1, DefaultPorts)
	br.Register(t0)
	br.Register(t1)
	back, err := t0.AllocUnbound(1)
	if err != nil {
		b.Fatal(err)
	}
	front, err := br.BindInterdomain(1, 0, back)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Send(1, front); err != nil {
			b.Fatal(err)
		}
		if t0.LastPending() != back {
			b.Fatal("send did not reach the peer port")
		}
		t0.ClearPending()
	}
}
