package hw

import (
	"fmt"
	"time"

	"nilihype/internal/simclock"
)

// popFront removes and returns q's first element in place. Device queues
// are a handful of entries deep, so the copy-down is cheap, and unlike
// q = q[1:] it keeps the backing array's start fixed: later appends reuse
// the same storage instead of reallocating every cap(q) pushes.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	*q = s[:n]
	return v
}

// BlockRequest is one I/O request submitted to the block device.
type BlockRequest struct {
	// Owner identifies the requesting domain; the completion callback
	// receives it back so the hypervisor can post the right event.
	Owner int
	// Sectors is the request size in 512-byte sectors; service time
	// scales mildly with it.
	Sectors int
	// Write distinguishes writes from reads (same timing model; recorded
	// for workload statistics).
	Write bool
	// Cookie is an opaque request tag returned on completion.
	Cookie uint64
}

// BlockCompletion is passed to the completion callback registered with
// SetCompleter.
type BlockCompletion struct {
	Req BlockRequest
	OK  bool
}

// BlockDevice models a single-queue disk: requests are serviced in FIFO
// order, each taking the configured service time (plus a per-sector
// component), and completion raises IRQBlock through the IO-APIC.
//
// The steady state allocates nothing: one request is ever in service, so
// it lives in cur and its completion event carries the one cached
// callback instead of a closure over the request.
type BlockDevice struct {
	machine *Machine
	svc     time.Duration

	blockState
	// spare is the buffer the last DrainCompletions handed out, swapped
	// back in at the next drain (same ownership rule as NIC.DrainRx).
	spare []BlockCompletion

	// completeFn is b.complete as a method value, taken once.
	completeFn simclock.Func
	// tags holds each owner's completion-event tag, formatted on the
	// owner's first request.
	tags map[int]string
}

// blockState is the device's queue, the request in service, the
// completion ring and the counters.
type blockState struct {
	queue     []BlockRequest // waiting requests, FIFO
	cur       BlockRequest   // the request in service, valid while busy
	busy      bool
	completed []BlockCompletion

	// Stats
	Submitted uint64
	Completed uint64
}

func newBlockDevice(m *Machine, svc time.Duration) *BlockDevice {
	b := &BlockDevice{machine: m, svc: svc, tags: make(map[int]string)}
	b.completeFn = b.complete
	return b
}

// Submit enqueues a request. The device starts servicing immediately if
// idle.
func (b *BlockDevice) Submit(req BlockRequest) {
	b.Submitted++
	b.queue = append(b.queue, req)
	if !b.busy {
		b.startNext()
	}
}

func (b *BlockDevice) startNext() {
	if len(b.queue) == 0 {
		b.busy = false
		return
	}
	b.busy = true
	b.cur = popFront(&b.queue)
	tag, ok := b.tags[b.cur.Owner]
	if !ok {
		tag = fmt.Sprintf("blk-complete dom%d", b.cur.Owner)
		b.tags[b.cur.Owner] = tag
	}
	cost := b.svc + time.Duration(b.cur.Sectors)*500*time.Nanosecond
	b.machine.Clock.After(cost, tag, b.completeFn)
}

// complete finishes the request in service and starts the next one.
func (b *BlockDevice) complete() {
	b.Completed++
	b.completed = append(b.completed, BlockCompletion{Req: b.cur, OK: true})
	b.machine.ioapic.Raise(IRQBlock)
	b.startNext()
}

// DrainCompletions returns and clears the completion ring (nil when it is
// empty). The hypervisor's block interrupt handler calls this; the
// returned batch is valid until the drain after next.
func (b *BlockDevice) DrainCompletions() []BlockCompletion {
	if len(b.completed) == 0 {
		return nil
	}
	out := b.completed
	b.completed, b.spare = b.spare[:0], out
	return out
}

// Packet is a network frame arriving at or leaving the NIC.
type Packet struct {
	// Flow identifies the logical flow (e.g. the NetBench session).
	Flow int
	// Seq is the sender's sequence number.
	Seq uint64
	// SentAt is the virtual send timestamp at the origin host; the
	// NetBench sender uses it to measure service interruption.
	SentAt time.Duration
}

// RxRingSlots is the NIC receive ring capacity. While the hypervisor is
// paused (or a CPU is stuck) the ring fills; further packets are dropped —
// which is what makes long outages visible to the NetBench sender as lost
// packets, while a short (NiLiHype-scale) recovery pause fits in the ring.
const RxRingSlots = 64

// NIC models the network interface. Inbound packets (from the external
// sender host) arrive via Inject and raise IRQNIC after the delivery
// latency; outbound packets are handed to the registered transmit sink
// after the same latency.
//
// Packets in flight wait in two FIFOs on the NIC rather than in a closure
// per packet. The wire latency is a constant and the clock fires
// same-instant events in scheduling order, so packets leave each wire in
// the order they entered it: every wire event pops the head of its FIFO.
type NIC struct {
	machine *Machine
	lat     time.Duration

	nicState
	// rxArriveFn/txArriveFn are the wire-event callbacks as method
	// values, taken once.
	rxArriveFn simclock.Func
	txArriveFn simclock.Func

	// rxSpare is the buffer the last DrainRx handed out: the drained
	// batch belongs to the draining CPU's in-flight IRQ program (hv's
	// pc.irqPkts) until that program completes or recovery discards it,
	// and IRQNIC stays in service for exactly that long, so the buffer is
	// free again by the next drain.
	rxSpare []Packet
	txSink  func(Packet)
}

// nicState is the packets on both wires and in the RX ring (the clock
// holds their wire events), and the counters.
type nicState struct {
	rxWire []Packet // injected, not yet arrived
	txWire []Packet // transmitted, not yet at the sink
	rxRing []Packet // arrived, undrained

	// Stats
	RxCount   uint64
	RxDropped uint64
	TxCount   uint64
}

func newNIC(m *Machine, lat time.Duration) *NIC {
	n := &NIC{machine: m, lat: lat}
	n.rxArriveFn = n.rxArrive
	n.txArriveFn = n.txArrive
	return n
}

// SetTxSink registers the callback that receives transmitted packets (the
// simulated external host).
func (n *NIC) SetTxSink(sink func(Packet)) { n.txSink = sink }

// Inject delivers pkt from the wire: after the NIC latency it lands in the
// RX ring and IRQNIC is raised.
func (n *NIC) Inject(pkt Packet) {
	n.rxWire = append(n.rxWire, pkt)
	n.machine.Clock.After(n.lat, "nic-rx", n.rxArriveFn)
}

// rxArrive lands the oldest packet on the RX wire in the ring, or drops it
// when the ring is full.
func (n *NIC) rxArrive() {
	pkt := popFront(&n.rxWire)
	if len(n.rxRing) >= RxRingSlots {
		n.RxDropped++
		return
	}
	n.RxCount++
	n.rxRing = append(n.rxRing, pkt)
	n.machine.ioapic.Raise(IRQNIC)
}

// DrainRx returns and clears the RX ring (nil when it is empty). The
// returned batch is valid until the drain after next; see rxSpare.
func (n *NIC) DrainRx() []Packet {
	if len(n.rxRing) == 0 {
		return nil
	}
	out := n.rxRing
	n.rxRing, n.rxSpare = n.rxSpare[:0], out
	return out
}

// Transmit sends pkt to the wire; the TX sink sees it after the NIC
// latency.
func (n *NIC) Transmit(pkt Packet) {
	n.TxCount++
	if n.txSink == nil {
		return
	}
	n.txWire = append(n.txWire, pkt)
	n.machine.Clock.After(n.lat, "nic-tx", n.txArriveFn)
}

// txArrive hands the oldest packet on the TX wire to the sink.
func (n *NIC) txArrive() { n.txSink(popFront(&n.txWire)) }
