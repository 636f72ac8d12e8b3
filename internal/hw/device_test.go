package hw

import (
	"testing"
	"time"
)

func routeAll(m *Machine) {
	m.IOAPIC().Route(IRQBlock, 0, VecBlock)
	m.IOAPIC().Route(IRQNIC, 0, VecNIC)
}

func TestIOAPICDelivery(t *testing.T) {
	m, _, sink := newTestMachine(t)
	m.IOAPIC().Route(IRQBlock, 2, VecBlock)
	m.IOAPIC().Raise(IRQBlock)
	if len(sink.delivered) != 1 || sink.delivered[0].cpu != 2 || sink.delivered[0].vec != VecBlock {
		t.Fatalf("delivered = %v", sink.delivered)
	}
	if !m.IOAPIC().InService(IRQBlock) {
		t.Fatal("line not in service after delivery")
	}
}

func TestIOAPICMaskedLineDropsInterrupt(t *testing.T) {
	m, _, sink := newTestMachine(t)
	m.IOAPIC().Route(IRQBlock, 0, VecBlock)
	m.IOAPIC().CorruptRoute(IRQBlock, CorruptDisable)
	m.IOAPIC().Raise(IRQBlock)
	if len(sink.delivered) != 0 {
		t.Fatal("masked line delivered an interrupt")
	}
}

func TestIOAPICInServiceBlocksRedelivery(t *testing.T) {
	m, _, sink := newTestMachine(t)
	m.IOAPIC().Route(IRQBlock, 0, VecBlock)
	m.IOAPIC().Raise(IRQBlock)
	m.IOAPIC().Raise(IRQBlock) // latched pending, not delivered
	if len(sink.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 while in service", len(sink.delivered))
	}
	m.IOAPIC().EOI(IRQBlock)
	if len(sink.delivered) != 2 {
		t.Fatalf("delivered %d after EOI, want 2 (latched assertion)", len(sink.delivered))
	}
}

func TestIOAPICMissingEOISilencesDevice(t *testing.T) {
	// This is the mechanistic basis for the recovery requirement to
	// acknowledge in-service interrupts: without EOI the line stays
	// blocked forever.
	m, _, sink := newTestMachine(t)
	m.IOAPIC().Route(IRQNIC, 1, VecNIC)
	m.IOAPIC().Raise(IRQNIC)
	for i := 0; i < 5; i++ {
		m.IOAPIC().Raise(IRQNIC)
	}
	if len(sink.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (no EOI)", len(sink.delivered))
	}
	m.IOAPIC().AckAll()
	if m.IOAPIC().InService(IRQNIC) {
		t.Fatal("AckAll left line in service")
	}
	m.IOAPIC().Raise(IRQNIC)
	if len(sink.delivered) != 2 {
		t.Fatal("line still blocked after AckAll")
	}
}

func TestIOAPICLineFor(t *testing.T) {
	m, _, _ := newTestMachine(t)
	routeAll(m)
	lineFor := func(vec Vector) IRQLine {
		for i, st := range m.IOAPIC().lines {
			if i > 0 && st.enabled && st.vec == vec {
				return IRQLine(i)
			}
		}
		return -1
	}
	if got := lineFor(VecNIC); got != IRQNIC {
		t.Fatalf("VecNIC delivered by %v, want IRQNIC", got)
	}
	if got := lineFor(VecIPI); got != -1 {
		t.Fatalf("VecIPI delivered by %v, want no line", got)
	}
}

func TestIOAPICRedirWriteCounting(t *testing.T) {
	m, _, _ := newTestMachine(t)
	before := m.IOAPIC().RedirWrites
	m.IOAPIC().Route(IRQBlock, 0, VecBlock)
	m.IOAPIC().Route(IRQNIC, 1, VecNIC)
	if m.IOAPIC().RedirWrites != before+2 {
		t.Fatalf("RedirWrites = %d, want %d", m.IOAPIC().RedirWrites, before+2)
	}
}

func TestBlockDeviceCompletion(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	routeAll(m)
	m.Block().Submit(BlockRequest{Owner: 1, Sectors: 8, Cookie: 42})
	drain(clk)
	if len(sink.delivered) != 1 || sink.delivered[0].vec != VecBlock {
		t.Fatalf("delivered = %v, want one VecBlock", sink.delivered)
	}
	comps := m.Block().DrainCompletions()
	if len(comps) != 1 || comps[0].Req.Cookie != 42 || !comps[0].OK {
		t.Fatalf("completions = %v", comps)
	}
	if m.Block().DrainCompletions() != nil {
		t.Fatal("DrainCompletions not cleared")
	}
}

func TestBlockDeviceFIFOAndTiming(t *testing.T) {
	m, clk, _ := newTestMachine(t)
	routeAll(m)
	var doneAt []time.Duration
	for i := 0; i < 3; i++ {
		m.Block().Submit(BlockRequest{Owner: 1, Sectors: 0, Cookie: uint64(i)})
	}
	// Service time is 100µs each, sequential.
	for i := 1; i <= 3; i++ {
		clk.RunUntil(time.Duration(i) * 100 * time.Microsecond)
		doneAt = append(doneAt, clk.Now())
	}
	drain(clk)
	if m.Block().Completed != 3 {
		t.Fatalf("Completed = %d, want 3", m.Block().Completed)
	}
	if len(m.Block().queue) != 0 {
		t.Fatalf("queue depth = %d, want 0", len(m.Block().queue))
	}
	if m.Block().Submitted != 3 {
		t.Fatalf("Submitted = %d, want 3", m.Block().Submitted)
	}
}

func TestBlockDeviceSectorScaling(t *testing.T) {
	m, clk, _ := newTestMachine(t)
	routeAll(m)
	m.Block().Submit(BlockRequest{Owner: 1, Sectors: 100})
	drain(clk)
	want := 100*time.Microsecond + 100*500*time.Nanosecond
	if clk.Now() != want {
		t.Fatalf("completion at %v, want %v", clk.Now(), want)
	}
}

func TestNICInjectRaisesIRQAfterLatency(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	routeAll(m)
	m.NIC().Inject(Packet{Flow: 1, Seq: 7, SentAt: 0})
	drain(clk)
	if clk.Now() != 10*time.Microsecond {
		t.Fatalf("RX at %v, want 10µs", clk.Now())
	}
	if len(sink.delivered) != 1 || sink.delivered[0].vec != VecNIC {
		t.Fatalf("delivered = %v", sink.delivered)
	}
	rx := m.NIC().DrainRx()
	if len(rx) != 1 || rx[0].Seq != 7 {
		t.Fatalf("rx = %v", rx)
	}
	if len(m.NIC().rxRing) != 0 {
		t.Fatal("RX ring not drained")
	}
}

func TestNICTransmitReachesSink(t *testing.T) {
	m, clk, _ := newTestMachine(t)
	var got []Packet
	m.NIC().SetTxSink(func(p Packet) { got = append(got, p) })
	m.NIC().Transmit(Packet{Flow: 2, Seq: 9})
	drain(clk)
	if len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("tx sink got %v", got)
	}
	if m.NIC().TxCount != 1 {
		t.Fatalf("TxCount = %d", m.NIC().TxCount)
	}
}

func TestNICTransmitWithoutSinkIsDropped(t *testing.T) {
	m, clk, _ := newTestMachine(t)
	m.NIC().Transmit(Packet{Flow: 1})
	drain(clk) // must not panic
}
