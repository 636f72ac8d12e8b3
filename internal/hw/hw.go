// Package hw models the hardware platform the hypervisor runs on: CPUs
// with register files and local APIC timers, an IO-APIC, physical memory,
// a per-CPU performance-counter NMI source, and I/O devices (block device,
// NIC).
//
// The model corresponds to the paper's testbed: an 8-core x86-64 machine
// with 8 GB of memory. Hardware raises interrupts by calling back into a
// registered InterruptSink (the hypervisor); it never depends on hypervisor
// packages, keeping the layering strict.
package hw

import (
	"fmt"
	"time"

	"nilihype/internal/simclock"
)

// Vector identifies an interrupt delivered to a CPU.
type Vector int

// Interrupt vectors. The specific values are arbitrary; only identity
// matters to the simulation.
const (
	VecTimer Vector = iota + 1 // local APIC timer
	VecNMI                     // performance-counter NMI (watchdog)
	VecBlock                   // block device completion
	VecNIC                     // network device RX
	VecIPI                     // inter-processor interrupt
)

// String returns a short name for the vector.
func (v Vector) String() string {
	switch v {
	case VecTimer:
		return "timer"
	case VecNMI:
		return "nmi"
	case VecBlock:
		return "block"
	case VecNIC:
		return "nic"
	case VecIPI:
		return "ipi"
	default:
		return fmt.Sprintf("vec(%d)", int(v))
	}
}

// InterruptSink receives interrupts raised by the hardware. The hypervisor
// registers itself as the sink. NMIs are delivered even when the target CPU
// has interrupts disabled; all other vectors are held pending by the caller
// (the IOAPIC / local APIC) until the sink accepts them.
type InterruptSink interface {
	// DeliverInterrupt is invoked when vector fires on cpu. It returns
	// true if the sink accepted the interrupt and false if the interrupt
	// must remain pending (e.g. interrupts disabled at the CPU).
	DeliverInterrupt(cpu int, vec Vector) bool
}

// PageSize is the size of a physical page frame.
const PageSize = 4096

// Config describes a machine.
type Config struct {
	CPUs     int           // number of physical CPUs
	MemoryMB int           // physical memory in MiB
	BlockSvc time.Duration // block device service time per request
	NICLat   time.Duration // NIC delivery latency
}

// DefaultConfig returns the paper's testbed: 8 Nehalem cores, 8 GB RAM.
func DefaultConfig() Config {
	return Config{
		CPUs:     8,
		MemoryMB: 8192,
		BlockSvc: 200 * time.Microsecond,
		NICLat:   30 * time.Microsecond,
	}
}

// Machine is the simulated hardware platform.
type Machine struct {
	Clock *simclock.Clock

	cpus   []*CPU
	ioapic *IOAPIC
	block  *BlockDevice
	nic    *NIC

	pageFrames int
	sink       InterruptSink
}

// NewMachine builds a machine from cfg on the given clock.
func NewMachine(clock *simclock.Clock, cfg Config) (*Machine, error) {
	if cfg.CPUs <= 0 {
		return nil, fmt.Errorf("hw: invalid CPU count %d", cfg.CPUs)
	}
	if cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("hw: invalid memory size %dMB", cfg.MemoryMB)
	}
	m := &Machine{
		Clock:      clock,
		pageFrames: cfg.MemoryMB * 1024 * 1024 / PageSize,
	}
	for i := 0; i < cfg.CPUs; i++ {
		m.cpus = append(m.cpus, newCPU(m, i))
	}
	m.ioapic = newIOAPIC(m)
	m.block = newBlockDevice(m, cfg.BlockSvc)
	m.nic = newNIC(m, cfg.NICLat)
	return m, nil
}

// SetSink registers the interrupt sink (the hypervisor). It must be called
// before any interrupt source is armed.
func (m *Machine) SetSink(s InterruptSink) { m.sink = s }

// NumCPUs returns the number of physical CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPU returns physical CPU i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// CPUs returns all CPUs in index order.
func (m *Machine) CPUs() []*CPU { return m.cpus }

// HypervisorCycles returns the machine-wide total of cycles spent
// executing hypervisor code — the telemetry gauge behind the
// processing-overhead trend.
func (m *Machine) HypervisorCycles() uint64 {
	var total uint64
	for _, c := range m.cpus {
		total += c.Cycles.Hypervisor
	}
	return total
}

// IOAPIC returns the machine's IO-APIC.
func (m *Machine) IOAPIC() *IOAPIC { return m.ioapic }

// Block returns the block device.
func (m *Machine) Block() *BlockDevice { return m.block }

// NIC returns the network device.
func (m *Machine) NIC() *NIC { return m.nic }

// PageFrames returns the number of physical page frames.
func (m *Machine) PageFrames() int { return m.pageFrames }

// deliver routes an interrupt to the sink, returning whether it was
// accepted. Unrouted interrupts (no sink) are dropped, which only happens
// in unit tests of the hw package itself.
func (m *Machine) deliver(cpu int, vec Vector) bool {
	if m.sink == nil {
		return false
	}
	return m.sink.DeliverInterrupt(cpu, vec)
}
