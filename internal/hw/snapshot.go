package hw

import (
	"slices"

	"nilihype/internal/snap"
)

// Snapshot is a captured machine state: the state value of every CPU and
// device. It pairs with a simclock.Snapshot taken at the same instant: the
// clock snapshot holds the pending wire and completion events and the
// APIC/perf events the CPUs' handles name, this one the request in
// service and the wire packets those events will pop.
type Snapshot struct {
	cpus   []cpuState
	ioapic ioapicState
	block  blockState
	nic    nicState
}

// Snapshot captures the machine's mutable hardware state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{make([]cpuState, len(m.cpus)), m.ioapic.ioapicState, m.block.blockState, m.nic.nicState}
	for i, c := range m.cpus {
		s.cpus[i] = c.cpuState
		s.cpus[i].pending = slices.Clone(c.pending)
	}
	b, n := &s.block, &s.nic
	b.queue, b.completed = slices.Clone(b.queue), slices.Clone(b.completed)
	n.rxWire, n.txWire, n.rxRing = slices.Clone(n.rxWire), slices.Clone(n.txWire), slices.Clone(n.rxRing)
	return s
}

// Restore rewinds the machine to a snapshot taken on this same Machine.
// The interrupt sink and TX sink registrations are left untouched (they
// are boot-time wiring, not run state). Restore must be paired with
// restoring the clock snapshot taken at the same instant, since the saved
// APIC/perf event handles reference events the clock restore revives.
func (m *Machine) Restore(s *Snapshot) {
	for i, c := range m.cpus {
		c.cpuState, c.pending = s.cpus[i], snap.Slice(c.pending, s.cpus[i].pending)
	}
	m.ioapic.ioapicState = s.ioapic
	b, n, sb, sn := m.block, m.nic, &s.block, &s.nic
	b.blockState, b.queue, b.completed = *sb, snap.Slice(b.queue, sb.queue), snap.Slice(b.completed, sb.completed)
	n.nicState, n.rxWire, n.txWire, n.rxRing = *sn,
		snap.Slice(n.rxWire, sn.rxWire), snap.Slice(n.txWire, sn.txWire), snap.Slice(n.rxRing, sn.rxRing)
}
