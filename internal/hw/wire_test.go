package hw

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nilihype/internal/simclock"
)

// These tests pin what the devices deliver — which packet or request, in
// what order, at what time — against expectations written out by hand, so
// they hold for any representation of the state in flight.

const us = time.Microsecond

// drainingSink plays the hypervisor's device handlers: on a device
// interrupt it drains the device, logs what it found with the arrival
// time, and acknowledges the line.
type drainingSink struct {
	m     *Machine
	clk   *simclock.Clock
	log   []string
	quiet bool // drain and acknowledge without logging
}

func (s *drainingSink) logf(format string, args ...any) {
	if !s.quiet {
		s.log = append(s.log, fmt.Sprintf("%v ", s.clk.Now())+fmt.Sprintf(format, args...))
	}
}

func (s *drainingSink) DeliverInterrupt(_ int, vec Vector) bool {
	switch vec {
	case VecNIC:
		for _, p := range s.m.NIC().DrainRx() {
			s.logf("rx flow=%d seq=%d sent=%v", p.Flow, p.Seq, p.SentAt)
		}
		s.m.IOAPIC().EOI(IRQNIC)
	case VecBlock:
		for _, c := range s.m.Block().DrainCompletions() {
			s.logf("blk owner=%d cookie=%d ok=%v", c.Req.Owner, c.Req.Cookie, c.OK)
		}
		s.m.IOAPIC().EOI(IRQBlock)
	}
	return true
}

func (s *drainingSink) onTx(p Packet) {
	s.logf("tx flow=%d seq=%d sent=%v", p.Flow, p.Seq, p.SentAt)
}

// newDrainedMachine builds the test machine (NIC latency 10µs, block
// service 100µs) behind a drainingSink.
func newDrainedMachine(t *testing.T) (*Machine, *simclock.Clock, *drainingSink) {
	t.Helper()
	m, clk, _ := newTestMachine(t)
	routeAll(m)
	s := &drainingSink{m: m, clk: clk}
	m.SetSink(s)
	m.NIC().SetTxSink(s.onTx)
	return m, clk, s
}

func TestNICPacketsArriveInInjectionOrder(t *testing.T) {
	m, clk, s := newDrainedMachine(t)
	// All three are on the wire together: the last is injected before the
	// first arrives.
	for i, at := range []time.Duration{1 * us, 4 * us, 9 * us} {
		clk.RunUntil(at)
		m.NIC().Inject(Packet{Flow: 7, Seq: uint64(10 + i), SentAt: at})
	}
	drain(clk)
	want := []string{
		"11µs rx flow=7 seq=10 sent=1µs",
		"14µs rx flow=7 seq=11 sent=4µs",
		"19µs rx flow=7 seq=12 sent=9µs",
	}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("arrivals = %q\nwant       %q", s.log, want)
	}
	if m.NIC().RxCount != 3 || m.NIC().RxDropped != 0 {
		t.Fatalf("RxCount=%d RxDropped=%d, want 3/0", m.NIC().RxCount, m.NIC().RxDropped)
	}
}

func TestNICSameInstantPacketsKeepOrder(t *testing.T) {
	m, clk, s := newDrainedMachine(t)
	for seq := uint64(1); seq <= 5; seq++ {
		m.NIC().Inject(Packet{Flow: 1, Seq: seq})
		m.NIC().Transmit(Packet{Flow: 2, Seq: 100 + seq})
	}
	drain(clk)
	var want []string
	for seq := 1; seq <= 5; seq++ {
		want = append(want,
			fmt.Sprintf("10µs rx flow=1 seq=%d sent=0s", seq),
			fmt.Sprintf("10µs tx flow=2 seq=%d sent=0s", 100+seq))
	}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("deliveries = %q\nwant         %q", s.log, want)
	}
}

func TestNICRingFullDropsAndCounts(t *testing.T) {
	// The stock sink accepts the interrupt but never drains: the ring
	// fills, and the packet after the last slot is lost.
	m, clk, _ := newTestMachine(t)
	routeAll(m)
	for seq := uint64(1); seq <= RxRingSlots+1; seq++ {
		m.NIC().Inject(Packet{Flow: 1, Seq: seq})
	}
	drain(clk)
	n := m.NIC()
	if n.RxCount != RxRingSlots || n.RxDropped != 1 || len(n.rxRing) != RxRingSlots {
		t.Fatalf("RxCount=%d RxDropped=%d rx ring=%d, want %d/1/%d",
			n.RxCount, n.RxDropped, len(n.rxRing), RxRingSlots, RxRingSlots)
	}
	rx := n.DrainRx()
	if rx[0].Seq != 1 || rx[RxRingSlots-1].Seq != RxRingSlots {
		t.Fatalf("ring holds seq %d..%d, want 1..%d", rx[0].Seq, rx[RxRingSlots-1].Seq, RxRingSlots)
	}
	// Draining made room: the next packet lands.
	n.Inject(Packet{Flow: 1, Seq: 99})
	drain(clk)
	if rx := n.DrainRx(); len(rx) != 1 || rx[0].Seq != 99 || n.RxDropped != 1 {
		t.Fatalf("after drain: rx=%v RxDropped=%d", rx, n.RxDropped)
	}
}

// TestSnapshotCarriesInFlightDeviceState snapshots machine and clock with
// three packets on each wire, one block request in service and two queued,
// and checks that what is delivered after the snapshot is delivered again,
// identically, after a restore. The wire and completion events survive in
// the clock snapshot; the packets and the request they deliver must
// survive in the machine's.
func TestSnapshotCarriesInFlightDeviceState(t *testing.T) {
	m, clk, s := newDrainedMachine(t)
	for i := 0; i < 3; i++ {
		m.Block().Submit(BlockRequest{Owner: 1 + i, Cookie: uint64(41 + i)})
	}
	for i := 0; i < 3; i++ {
		clk.RunUntil(time.Duration(2*i) * us)
		m.NIC().Inject(Packet{Flow: 1, Seq: uint64(1 + i), SentAt: clk.Now()})
		clk.RunUntil(time.Duration(2*i+1) * us)
		m.NIC().Transmit(Packet{Flow: 2, Seq: uint64(101 + i), SentAt: clk.Now()})
	}
	if len(s.log) != 0 {
		t.Fatalf("deliveries before the snapshot: %q", s.log)
	}
	cs, ms := clk.Snapshot(), m.Snapshot()

	want := []string{
		"10µs rx flow=1 seq=1 sent=0s",
		"11µs tx flow=2 seq=101 sent=1µs",
		"12µs rx flow=1 seq=2 sent=2µs",
		"13µs tx flow=2 seq=102 sent=3µs",
		"14µs rx flow=1 seq=3 sent=4µs",
		"15µs tx flow=2 seq=103 sent=5µs",
		"100µs blk owner=1 cookie=41 ok=true",
		"200µs blk owner=2 cookie=42 ok=true",
		"300µs blk owner=3 cookie=43 ok=true",
	}
	for pass := 1; pass <= 2; pass++ {
		drain(clk)
		if !reflect.DeepEqual(s.log, want) {
			t.Fatalf("pass %d delivered %q\nwant             %q", pass, s.log, want)
		}
		if m.Block().Completed != 3 || m.NIC().RxCount != 3 || m.NIC().TxCount != 3 {
			t.Fatalf("pass %d: Completed=%d RxCount=%d TxCount=%d, want 3/3/3",
				pass, m.Block().Completed, m.NIC().RxCount, m.NIC().TxCount)
		}
		// Leave different state behind than the snapshot holds before
		// rewinding.
		m.NIC().Inject(Packet{Flow: 9, Seq: 900})
		m.Block().Submit(BlockRequest{Owner: 9, Cookie: 900})
		s.log = nil
		clk.Restore(cs)
		m.Restore(ms)
	}
}

func TestDeviceSteadyStateDoesNotAllocate(t *testing.T) {
	m, clk, s := newDrainedMachine(t)
	s.quiet = true
	// Warm-up grows the queues, the rings and their spares, the owner's
	// tag and the clock's event pool.
	cycle := func() {
		for i := 0; i < 4; i++ {
			m.Block().Submit(BlockRequest{Owner: 1, Cookie: uint64(i)})
			m.NIC().Inject(Packet{Flow: 1, Seq: uint64(i)})
			m.NIC().Transmit(Packet{Flow: 1, Seq: uint64(i)})
		}
		drain(clk)
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state device cycle allocates %.0f objects, want 0", allocs)
	}
}
