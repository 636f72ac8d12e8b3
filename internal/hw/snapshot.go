package hw

import (
	"time"

	"nilihype/internal/simclock"
)

// cpuState is one CPU's captured state. Event handles are part of the
// snapshot: the clock snapshot revives the same *simclock.Event objects in
// place, so saving the pointers keeps the APIC/perf linkage intact across
// a restore.
type cpuState struct {
	regs         [NumRegs]uint64
	intrDisabled bool
	halted       bool
	cycles       CycleCounters
	hypInstrs    uint64
	pending      []Vector

	apicArmed    bool
	apicDeadline time.Duration
	apicEvent    *simclock.Event

	perfPeriod  time.Duration
	perfRunning bool
	perfEvent   *simclock.Event
}

// Snapshot is a captured machine state (everything mutable below the
// hypervisor: register files, interrupt state, device queues, counters).
// It pairs with a simclock.Snapshot taken at the same instant: the clock
// snapshot holds the pending wire and completion events, this one the
// packets and the request those events will pop (blkCur, rxWire, txWire).
type Snapshot struct {
	cpus  []cpuState
	lines [numIRQLines + 1]lineState

	redirWrites uint64

	blkQueue     []BlockRequest
	blkCur       BlockRequest
	blkBusy      bool
	blkCompleted []BlockCompletion
	blkSubmitted uint64
	blkDone      uint64

	rxWire    []Packet
	txWire    []Packet
	rxRing    []Packet
	rxCount   uint64
	rxDropped uint64
	txCount   uint64
}

// Snapshot captures the machine's mutable hardware state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		cpus:        make([]cpuState, len(m.cpus)),
		lines:       m.ioapic.lines,
		redirWrites: m.ioapic.RedirWrites,

		blkQueue:     append([]BlockRequest(nil), m.block.queue...),
		blkCur:       m.block.cur,
		blkBusy:      m.block.busy,
		blkCompleted: append([]BlockCompletion(nil), m.block.completed...),
		blkSubmitted: m.block.Submitted,
		blkDone:      m.block.Completed,

		rxWire:    append([]Packet(nil), m.nic.rxWire...),
		txWire:    append([]Packet(nil), m.nic.txWire...),
		rxRing:    append([]Packet(nil), m.nic.rxRing...),
		rxCount:   m.nic.RxCount,
		rxDropped: m.nic.RxDropped,
		txCount:   m.nic.TxCount,
	}
	for i, c := range m.cpus {
		s.cpus[i] = cpuState{
			regs:         c.Regs,
			intrDisabled: c.IntrDisabled,
			halted:       c.Halted,
			cycles:       c.Cycles,
			hypInstrs:    c.HypInstrs,
			pending:      append([]Vector(nil), c.pending...),
			apicArmed:    c.apic.armed,
			apicDeadline: c.apic.deadline,
			apicEvent:    c.apic.event,
			perfPeriod:   c.perf.period,
			perfRunning:  c.perf.running,
			perfEvent:    c.perf.event,
		}
	}
	return s
}

// Restore rewinds the machine to a snapshot taken on this same Machine.
// The interrupt sink and TX sink registrations are left untouched (they
// are boot-time wiring, not run state). Restore must be paired with
// restoring the clock snapshot taken at the same instant, since the saved
// APIC/perf event handles reference events the clock restore revives.
func (m *Machine) Restore(s *Snapshot) {
	for i, c := range m.cpus {
		st := &s.cpus[i]
		c.Regs = st.regs
		c.IntrDisabled = st.intrDisabled
		c.Halted = st.halted
		c.Cycles = st.cycles
		c.HypInstrs = st.hypInstrs
		c.pending = append(c.pending[:0], st.pending...)
		c.apic.armed = st.apicArmed
		c.apic.deadline = st.apicDeadline
		c.apic.event = st.apicEvent
		c.perf.period = st.perfPeriod
		c.perf.running = st.perfRunning
		c.perf.event = st.perfEvent
	}
	m.ioapic.lines = s.lines
	m.ioapic.RedirWrites = s.redirWrites

	m.block.queue = append(m.block.queue[:0], s.blkQueue...)
	m.block.cur = s.blkCur
	m.block.busy = s.blkBusy
	m.block.completed = append(m.block.completed[:0], s.blkCompleted...)
	m.block.Submitted = s.blkSubmitted
	m.block.Completed = s.blkDone

	m.nic.rxWire = append(m.nic.rxWire[:0], s.rxWire...)
	m.nic.txWire = append(m.nic.txWire[:0], s.txWire...)
	m.nic.rxRing = append(m.nic.rxRing[:0], s.rxRing...)
	m.nic.RxCount = s.rxCount
	m.nic.RxDropped = s.rxDropped
	m.nic.TxCount = s.txCount
}
