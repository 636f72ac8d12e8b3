package hw

import "fmt"

// IRQLine identifies a hardware interrupt line routed through the IO-APIC.
type IRQLine int

// Device interrupt lines.
const (
	IRQBlock IRQLine = iota + 1
	IRQNIC

	numIRQLines = int(IRQNIC) + 1
)

// String returns a short name for the line.
func (l IRQLine) String() string {
	switch l {
	case IRQBlock:
		return "irq-block"
	case IRQNIC:
		return "irq-nic"
	default:
		return fmt.Sprintf("irq(%d)", int(l))
	}
}

// lineState tracks the per-line delivery state machine. A line with an
// un-acknowledged in-service interrupt cannot deliver again: if recovery
// fails to acknowledge in-service interrupts (§III-B "all pending and
// in-service interrupts are acknowledged"), the device behind the line goes
// silent and the corresponding VM eventually fails.
type lineState struct {
	cpu       int    // routed destination CPU
	vec       Vector // delivered vector
	enabled   bool
	inService bool
	pending   bool
}

// IOAPIC routes device interrupt lines to CPUs. Writes to its redirection
// table during normal operation are what ReHype must log and replay across
// reboot (Table IV discussion); NiLiHype keeps the table in place.
type IOAPIC struct {
	machine *Machine
	ioapicState

	// bootLines is the hypervisor's software copy of the redirection
	// table, recorded once at the end of boot (the irq_desc bookkeeping a
	// real hypervisor keeps). Hardware-level corruption of the live table
	// is detectable by read-back comparison against this copy, and
	// repairable by reprogramming from it. Written before any campaign
	// snapshot is taken and never mutated afterwards, so it needs no
	// snapshot coverage.
	bootLines [numIRQLines + 1]lineState
}

// ioapicState is the live redirection table and its write counter.
type ioapicState struct {
	lines [numIRQLines + 1]lineState

	// RedirWrites counts redirection-table writes since boot; ReHype's
	// IO-APIC logging during normal operation mirrors these.
	RedirWrites uint64
}

func newIOAPIC(m *Machine) *IOAPIC {
	io := &IOAPIC{machine: m}
	return io
}

// Route programs line to deliver vec to cpu and enables it.
func (io *IOAPIC) Route(line IRQLine, cpu int, vec Vector) {
	io.lines[line] = lineState{cpu: cpu, vec: vec, enabled: true}
	io.RedirWrites++
}

// Raise asserts line. If the line is enabled and has no in-service
// interrupt, the interrupt is delivered (or queued pending at the CPU);
// otherwise the assertion is latched pending at the line.
func (io *IOAPIC) Raise(line IRQLine) {
	st := &io.lines[line]
	if !st.enabled {
		return
	}
	if st.inService {
		st.pending = true
		return
	}
	st.inService = true
	io.machine.cpus[st.cpu].raise(st.vec)
}

// EOI acknowledges the in-service interrupt on line. If another assertion
// was latched while in service, it is delivered immediately.
func (io *IOAPIC) EOI(line IRQLine) {
	st := &io.lines[line]
	if !st.inService {
		return
	}
	st.inService = false
	if st.pending {
		st.pending = false
		st.inService = true
		io.machine.cpus[st.cpu].raise(st.vec)
	}
}

// InService reports whether line has an unacknowledged in-service
// interrupt.
func (io *IOAPIC) InService(line IRQLine) bool { return io.lines[line].inService }

// AckAll acknowledges every pending and in-service interrupt on every
// line. This is the recovery-time "acknowledge all pending and in-service
// interrupts" operation shared by ReHype and NiLiHype.
func (io *IOAPIC) AckAll() {
	for i := range io.lines {
		io.lines[i].inService = false
		io.lines[i].pending = false
	}
}

// NumLines returns the highest valid IRQLine number; valid lines are
// 1..NumLines.
func (io *IOAPIC) NumLines() int { return numIRQLines }

// RecordBootRoutes captures the current redirection table as the
// known-good software copy. Called once at the end of hypervisor boot,
// after all device lines are routed.
func (io *IOAPIC) RecordBootRoutes() {
	for i := range io.lines {
		io.bootLines[i] = lineState{
			cpu:     io.lines[i].cpu,
			vec:     io.lines[i].vec,
			enabled: io.lines[i].enabled,
		}
	}
}

// RouteDamage counts redirection entries whose destination CPU, vector, or
// enable bit diverge from the recorded software copy — the IRQ-delivery
// detection criterion's read-back comparison. In-service/pending latch
// state is transient and not compared.
func (io *IOAPIC) RouteDamage() int {
	n := 0
	for i := 1; i <= numIRQLines; i++ {
		st, b := &io.lines[i], &io.bootLines[i]
		if st.cpu != b.cpu || st.vec != b.vec || st.enabled != b.enabled {
			n++
		}
	}
	return n
}

// ReprogramFromBoot rewrites every diverged redirection entry from the
// software copy and returns the number of entries repaired. Pure table
// state: latched pending assertions are left for the normal EOI/Raise
// machinery (or recovery's AckAll) to resolve, keeping the repair
// deterministic and side-effect-free for the audit walk.
func (io *IOAPIC) ReprogramFromBoot() int {
	n := 0
	for i := 1; i <= numIRQLines; i++ {
		st, b := &io.lines[i], &io.bootLines[i]
		if st.cpu != b.cpu || st.vec != b.vec || st.enabled != b.enabled {
			st.cpu, st.vec, st.enabled = b.cpu, b.vec, b.enabled
			io.RedirWrites++
			n++
		}
	}
	return n
}

// Redirection-corruption modes for CorruptRoute.
const (
	CorruptDisable = iota // drop the enable bit: device goes silent
	CorruptCPU            // misroute to the next CPU
	CorruptVector         // deliver the wrong vector
)

// CorruptRoute applies a hardware-level redirection-table corruption to
// line and returns a static description. Models a bit-flip in the IO-APIC
// RTE: not a logged software write, so RedirWrites does not advance — which
// is exactly why detection needs the read-back comparison.
func (io *IOAPIC) CorruptRoute(line IRQLine, mode int) string {
	st := &io.lines[line]
	switch mode {
	case CorruptCPU:
		st.cpu = (st.cpu + 1) % len(io.machine.cpus)
		return "ioapic-route:cpu"
	case CorruptVector:
		st.vec = VecIPI
		return "ioapic-route:vector"
	default:
		st.enabled = false
		return "ioapic-route:disabled"
	}
}

// StrandLine wedges line's delivery state machine: a phantom in-service
// interrupt that no EOI will ever acknowledge, so every later assertion
// latches pending and is never delivered (pending-IRQ-route loss). Detected
// by the IRQ-delivery criterion's stuck-in-service check; recovery's AckAll
// clears it.
func (io *IOAPIC) StrandLine(line IRQLine) string {
	io.lines[line].inService = true
	return "ioapic-pending:stranded-in-service"
}
