// Package detect implements the error-detection mechanisms the paper
// relies on (§VI-B): Xen's built-in panic detector (fatal exceptions and
// failed assertions) and the hang detector — a watchdog built from a
// per-CPU performance-counter NMI every 100 ms of unhalted cycles plus a
// recurring 100 ms software timer event that increments a counter. If the
// NMI handler sees the counter unchanged for three consecutive checks, a
// hang is detected.
package detect

import (
	"fmt"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// Kind is the detection type.
type Kind int

// Detection kinds.
const (
	Panic Kind = iota + 1
	Hang
	// MgmtWatchdog is the management-call watchdog: the PrivVM's
	// housekeeping tick issues a management hypercall every few
	// milliseconds, so an extended silence means the PrivVM has crashed or
	// hung (management calls stall mid-flight). Checked from CPU 0's
	// performance-counter NMI; opt-in via SetCriteria.
	MgmtWatchdog
	// IRQDelivery is the IRQ-delivery criterion: CPU 0's NMI reads back
	// the IO-APIC redirection table against the hypervisor's software copy
	// (divergence = device corruption) and watches for interrupt lines
	// stuck in service (pending-IRQ-route loss). Opt-in via SetCriteria.
	IRQDelivery
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	case MgmtWatchdog:
		return "mgmt-watchdog"
	case IRQDelivery:
		return "irq-delivery"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one detection. Cause is what the detection names as the
// failure, set where Reason is written.
type Event struct {
	CPU    int
	Kind   Kind
	Cause  hv.Cause
	Reason string
	At     time.Duration
}

// String formats the event.
func (e Event) String() string {
	return fmt.Sprintf("%v on cpu%d at %v: %s", e.Kind, e.CPU, e.At, e.Reason)
}

// Period is the watchdog period (both the NMI and the soft tick).
const Period = 100 * time.Millisecond

// StaleChecks is the number of consecutive unchanged-counter NMI checks
// that declare a hang.
const StaleChecks = 3

// MgmtStaleChecks is the number of consecutive NMI checks with no
// completed PrivVM management hypercall before the management-call
// watchdog fires. The PrivVM housekeeping tick completes a call every 5 ms
// in a healthy system, so three silent 100 ms checks is unambiguous.
const MgmtStaleChecks = 3

// IRQStuckChecks is the number of consecutive NMI observations of the same
// interrupt line in service before the IRQ-delivery criterion declares the
// line's pending route lost. Device handlers EOI within microseconds, so
// three 100 ms-spaced observations cannot be a live interrupt.
const IRQStuckChecks = 3

// Detector wires the panic and hang detectors into a hypervisor and
// reports detections through a single hook.
type Detector struct {
	h    *hv.Hypervisor
	hook func(Event)

	softCount []uint64 // incremented by the 100ms software timer event
	lastSeen  []uint64
	stale     []int
	ticks     []*xentime.Timer // per-CPU watchdog soft tick timers

	// Management-call watchdog state (opt-in; checked on CPU 0's NMI).
	mgmtOn    bool
	mgmtLast  uint64
	mgmtStale int

	// IRQ-delivery criterion state (opt-in; checked on CPU 0's NMI).
	irqOn    bool
	svcStuck []int // per-line consecutive in-service observations

	// Detections counts all events reported (including post-recovery
	// re-detections).
	Detections int
}

// New builds a detector for h. Call Start to arm it.
func New(h *hv.Hypervisor, hook func(Event)) *Detector {
	n := h.NumCPUs()
	return &Detector{
		h:         h,
		hook:      hook,
		softCount: make([]uint64, n),
		lastSeen:  make([]uint64, n),
		stale:     make([]int, n),
		svcStuck:  make([]int, h.Machine.IOAPIC().NumLines()+1),
	}
}

// SetCriteria enables or disables the opt-in detection criteria: the
// management-call watchdog and the IRQ-delivery check. Campaigns switch
// them on for runs whose fault surface (PrivVM or device classes) or
// recovery ladder (PrivVM-restart rung) needs them, and off otherwise so
// legacy configurations behave exactly as before. Enabling re-baselines the
// criterion's progress tracking against current state.
func (d *Detector) SetCriteria(mgmt, irq bool) {
	d.mgmtOn = mgmt
	d.irqOn = irq
	d.resetCriteria()
}

// resetCriteria re-baselines the opt-in criteria's progress tracking.
func (d *Detector) resetCriteria() {
	d.mgmtLast = d.h.Tel.Counters[telemetry.CtrMgmtCompletions]
	d.mgmtStale = 0
	for i := range d.svcStuck {
		d.svcStuck[i] = 0
	}
}

// Start arms both detectors: the panic hook, the per-CPU watchdog soft
// timers, and the per-CPU performance-counter NMIs.
func (d *Detector) Start() {
	d.h.SetPanicHook(func(cpu int, cause hv.Cause, reason string) {
		d.fire(Event{CPU: cpu, Kind: Panic, Cause: cause, Reason: reason, At: d.h.Clock.Now()})
	})
	d.h.SetNMIHook(d.checkHang)
	now := d.h.Clock.Now()
	d.ticks = make([]*xentime.Timer, d.h.NumCPUs())
	for cpu := 0; cpu < d.h.NumCPUs(); cpu++ {
		cpu := cpu
		d.ticks[cpu] = d.h.Timers.AddTimer(cpu, fmt.Sprintf("watchdog_tick.cpu%d", cpu),
			now+Period, Period, func() { d.softCount[cpu]++ })
		d.h.Timers.ProgramAPIC(cpu)
		d.h.Machine.CPU(cpu).StartPerfNMI(Period)
	}
}

// checkHang is the NMI handler body: compare the CPU's soft counter with
// the last observation, then (on CPU 0) run the opt-in criteria.
func (d *Detector) checkHang(cpu int) {
	if d.softCount[cpu] != d.lastSeen[cpu] {
		d.lastSeen[cpu] = d.softCount[cpu]
		d.stale[cpu] = 0
	} else {
		d.stale[cpu]++
		if d.stale[cpu] >= StaleChecks {
			d.stale[cpu] = 0
			reason := "watchdog: no progress"
			if pc := d.h.PerCPU(cpu); pc.Spinning != nil {
				reason = fmt.Sprintf("watchdog: spinning on lock %q", pc.Spinning.Name())
			} else if pc.Wedged {
				reason = "watchdog: CPU wedged"
			}
			d.fire(Event{CPU: cpu, Kind: Hang, Cause: hv.CauseHang, Reason: reason, At: d.h.Clock.Now()})
		}
	}
	if cpu == 0 {
		if d.mgmtOn {
			d.checkMgmt()
		}
		if d.irqOn {
			d.checkIRQDelivery()
		}
	}
}

// checkMgmt is the management-call watchdog: completed PrivVM management
// hypercalls must advance between NMI checks.
func (d *Detector) checkMgmt() {
	cur := d.h.Tel.Counters[telemetry.CtrMgmtCompletions]
	if cur != d.mgmtLast {
		d.mgmtLast = cur
		d.mgmtStale = 0
		return
	}
	d.mgmtStale++
	if d.mgmtStale >= MgmtStaleChecks {
		d.mgmtStale = 0
		d.fire(Event{CPU: 0, Kind: MgmtWatchdog, Cause: hv.CausePrivVMLost,
			Reason: "mgmt watchdog: no PrivVM management-call completions",
			At:     d.h.Clock.Now()})
	}
}

// checkIRQDelivery reads the IO-APIC redirection table back against the
// hypervisor's software copy and watches for lines stuck in service.
func (d *Detector) checkIRQDelivery() {
	io := d.h.Machine.IOAPIC()
	if io.RouteDamage() > 0 {
		d.fire(Event{CPU: 0, Kind: IRQDelivery, Cause: hv.CauseDeviceRoute,
			Reason: "irq-delivery: IO-APIC redirection table diverges from software copy",
			At:     d.h.Clock.Now()})
		return
	}
	for l := 1; l <= io.NumLines(); l++ {
		if !io.InService(hw.IRQLine(l)) {
			d.svcStuck[l] = 0
			continue
		}
		d.svcStuck[l]++
		if d.svcStuck[l] >= IRQStuckChecks {
			d.svcStuck[l] = 0
			d.fire(Event{CPU: 0, Kind: IRQDelivery, Cause: hv.CauseDeviceRoute,
				Reason: "irq-delivery: interrupt line stuck in service (pending route lost)",
				At:     d.h.Clock.Now()})
		}
	}
}

// ResetProgress clears staleness tracking (recovery resumes fresh).
func (d *Detector) ResetProgress() {
	for cpu := range d.stale {
		d.stale[cpu] = 0
		d.lastSeen[cpu] = d.softCount[cpu]
	}
	d.resetCriteria()
}

// Rearm prepares the detectors for the next recovery attempt: staleness
// tracking resets, and any watchdog source the failed attempt left dead —
// an inactive soft tick timer, a stopped performance-counter NMI — is
// revived. Escalating engines call it after every attempt: re-detection
// (and hence escalation) must work even when the attempt's repairs did not
// extend to the watchdog's own machinery.
func (d *Detector) Rearm() {
	d.ResetProgress()
	now := d.h.Clock.Now()
	for cpu := 0; cpu < d.h.NumCPUs(); cpu++ {
		if cpu < len(d.ticks) && d.ticks[cpu] != nil && !d.ticks[cpu].Active() {
			d.h.Timers.Reactivate(d.ticks[cpu], now)
		}
		if c := d.h.Machine.CPU(cpu); !c.PerfNMIRunning() {
			c.StartPerfNMI(Period)
		}
	}
}

// Reset rewinds the detector to its just-Started state: soft counters,
// NMI observations, staleness tracking and the detection count all return
// to zero. The tick timers and performance-counter NMIs themselves are
// run state restored by the hypervisor snapshot, so only the detector's
// own observations need clearing. Used by the campaign's snapshot-fork
// path between runs.
func (d *Detector) Reset() {
	for cpu := range d.softCount {
		d.softCount[cpu] = 0
		d.lastSeen[cpu] = 0
		d.stale[cpu] = 0
	}
	d.resetCriteria()
	d.Detections = 0
}

func (d *Detector) fire(e Event) {
	d.Detections++
	d.h.Tel.Counters[telemetry.CtrDetections]++
	switch e.Kind {
	case Panic:
		d.h.Tel.Counters[telemetry.CtrDetectPanic]++
	case Hang:
		d.h.Tel.Counters[telemetry.CtrDetectHang]++
	case MgmtWatchdog:
		d.h.Tel.Counters[telemetry.CtrDetectMgmt]++
	case IRQDelivery:
		d.h.Tel.Counters[telemetry.CtrDetectIRQ]++
	}
	d.h.Tel.Record(e.CPU, telemetry.EvDetect, d.h.Tel.Intern(e.Reason))
	d.h.Jrn.Detect(e.At, e.CPU, e.Reason)
	if d.hook != nil {
		d.hook(e)
	}
}
