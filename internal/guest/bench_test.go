package guest

import (
	"testing"
	"time"

	"nilihype/internal/hw"
)

// BenchmarkNICRoundTrip measures one NetBench packet through every layer
// it crosses: NIC.Inject → RX wire → IRQNIC → the device-IRQ program →
// onNetPacket's event-channel hypercall (every eighth packet also remaps a
// grant) → NIC.Transmit → TX wire → sink. allocs/op is the regression
// signal: the steady state allocates nothing.
func BenchmarkNICRoundTrip(b *testing.B) {
	w, h, clk := newWorld(b)
	vm, err := w.AddAppVM(Config{Kind: NetBench, Dom: 2, CPU: 2, Duration: 24 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	vm.Start()
	replies := 0
	nic := h.Machine.NIC()
	nic.SetTxSink(func(hw.Packet) { replies++ })
	roundTrip := func(seq uint64) {
		want := replies + 1
		nic.Inject(hw.Packet{Flow: 2, Seq: seq, SentAt: clk.Now()})
		for replies < want && clk.Step() {
		}
	}
	for seq := uint64(1); seq <= 64; seq++ {
		roundTrip(seq) // pools, rings and the event free list reach steady size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(uint64(65 + i))
	}
	b.StopTimer()
	if replies != 64+b.N {
		b.Fatalf("%d replies for %d packets", replies, 64+b.N)
	}
	if failed, reason := h.Failed(); failed {
		b.Fatalf("hypervisor failed: %s", reason)
	}
}
