// Package telemetry is the always-on observability layer: a metrics
// registry (counters, gauges, power-of-two histograms) and a flight
// recorder (fixed-size ring of compact binary events), both designed so
// the hot path is a plain array write with no allocation, no locking, and
// no formatting. Every identifier is pre-registered at boot: recording a
// counter is Counters[id]++, recording a flight event is one struct store
// into a power-of-two ring.
//
// The package is simulated-time-native — timestamps come from an installed
// now() function (the simulation clock), never the wall clock — and
// snapshot/restore-aware: a campaign that forks runs from a boot snapshot
// restores the telemetry state captured at boot, so forked runs produce
// bit-identical metrics and flight-recorder contents to cold-booted ones.
//
// telemetry deliberately depends only on the standard library and the
// dependency-free snapshot helpers (internal/snap), so that every layer
// of the simulator (simclock, hw, hv, hypercall, sched, detect, core,
// audit, campaign) can import it without cycles.
package telemetry

import (
	"slices"
	"time"

	"nilihype/internal/snap"
)

// Counter identifies a pre-registered counter. Counters are plain uint64
// adds — commutative and associative, so per-shard telemetry merges to the
// same totals regardless of worker count or completion order.
type Counter int

// Counter registry. The order is append-only: snapshots store raw arrays,
// and reordering would silently remap restored values.
const (
	CtrDispatches Counter = iota // hypercalls/VM exits entering the hypervisor
	CtrCompletions
	CtrPanics
	CtrSpins
	CtrWedges
	CtrDiscards // execution threads discarded by recovery
	CtrRetries  // interrupted requests re-dispatched after recovery
	CtrDrops    // interrupted requests abandoned
	CtrTimerIRQs
	CtrDeviceIRQs
	CtrNMIs
	CtrInjections // fault-injection triggers that fired
	CtrDetections
	CtrDetectPanic
	CtrDetectHang
	CtrRecoveryAttempts
	CtrEscalations
	CtrRecoveries
	CtrAuditRuns
	CtrAuditViolations
	CtrAuditRepairs
	CtrAuditDegraded
	CtrAuditEscalate
	CtrSchedWakes
	CtrSchedSwitches
	CtrSchedBlocks
	CtrLockAcquisitions
	CtrLockContended
	CtrMgmtCompletions // completed management hypercalls issued by the PrivVM
	CtrDetectMgmt      // management-call watchdog firings
	CtrDetectIRQ       // IRQ-delivery criterion firings
	CtrPrivVMRestarts  // PrivVM-restart rung executions
	CtrIOAPICRepairs   // IO-APIC redirection entries reprogrammed in recovery

	// ctrOpBase starts the per-hypercall-op block: CtrOp(op) for op in
	// [0, MaxOps). Keep this block last so new scalar counters can be
	// appended before it without disturbing the op slots.
	ctrOpBase

	// NumCounters sizes the counter array.
	NumCounters = int(ctrOpBase) + MaxOps
)

// MaxOps bounds the per-op counter block (hypercall op codes are small).
const MaxOps = 16

// CtrOp returns the counter slot for a hypercall op code.
func CtrOp(op int) Counter { return ctrOpBase + Counter(op&(MaxOps-1)) }

// counterNames maps scalar counters to stable export names.
var counterNames = [...]string{
	CtrDispatches:       "hv.dispatches",
	CtrCompletions:      "hv.completions",
	CtrPanics:           "hv.panics",
	CtrSpins:            "hv.spins",
	CtrWedges:           "hv.wedges",
	CtrDiscards:         "recovery.discards",
	CtrRetries:          "recovery.retries",
	CtrDrops:            "recovery.drops",
	CtrTimerIRQs:        "irq.timer",
	CtrDeviceIRQs:       "irq.device",
	CtrNMIs:             "irq.nmi",
	CtrInjections:       "inject.fired",
	CtrDetections:       "detect.firings",
	CtrDetectPanic:      "detect.panic",
	CtrDetectHang:       "detect.hang",
	CtrRecoveryAttempts: "recovery.attempts",
	CtrEscalations:      "recovery.escalations",
	CtrRecoveries:       "recovery.recoveries",
	CtrAuditRuns:        "audit.runs",
	CtrAuditViolations:  "audit.violations",
	CtrAuditRepairs:     "audit.repairs",
	CtrAuditDegraded:    "audit.degraded",
	CtrAuditEscalate:    "audit.escalate",
	CtrSchedWakes:       "sched.wakes",
	CtrSchedSwitches:    "sched.switches",
	CtrSchedBlocks:      "sched.blocks",
	CtrLockAcquisitions: "lock.acquisitions",
	CtrLockContended:    "lock.contended",
	CtrMgmtCompletions:  "hv.mgmt_completions",
	CtrDetectMgmt:       "detect.mgmt_watchdog",
	CtrDetectIRQ:        "detect.irq_delivery",
	CtrPrivVMRestarts:   "recovery.privvm_restarts",
	CtrIOAPICRepairs:    "recovery.ioapic_repairs",
}

// Name returns the counter's stable export name.
func (c Counter) Name() string {
	if int(c) < len(counterNames) && counterNames[c] != "" {
		return counterNames[c]
	}
	if c >= ctrOpBase && int(c) < NumCounters {
		return "hypercall.op." + itoa(int(c-ctrOpBase))
	}
	return "counter." + itoa(int(c))
}

// Gauge identifies a sampled point-in-time value (set, not accumulated).
type Gauge int

// Gauge registry (append-only, same rule as counters).
const (
	GaugeHeldLocks Gauge = iota // locks held at sample time
	GaugeLiveDomains
	GaugeClockQueueHighWater // peak pending-event queue depth
	GaugeHypervisorCycles    // cycles spent in hypervisor code
	GaugeTrafficUsers        // simulated open-loop users offered against the host
	GaugeTrafficGoodput      // the run's traffic goodput at traffic.Engine.Finish, ‰
	NumGauges
)

var gaugeNames = [...]string{
	GaugeHeldLocks:           "lock.held",
	GaugeLiveDomains:         "dom.live",
	GaugeClockQueueHighWater: "clock.queue_high_water",
	GaugeHypervisorCycles:    "cpu.hypervisor_cycles",
	GaugeTrafficUsers:        "traffic.users",
	GaugeTrafficGoodput:      "traffic.goodput_permille",
}

// Name returns the gauge's stable export name.
func (g Gauge) Name() string {
	if int(g) < len(gaugeNames) && gaugeNames[g] != "" {
		return gaugeNames[g]
	}
	return "gauge." + itoa(int(g))
}

// HistID identifies a pre-registered histogram.
type HistID int

// Histogram registry (append-only).
const (
	HistProgramSteps     HistID = iota // steps per dispatched handler program
	HistAttemptLatencyUs               // per-attempt recovery latency, µs
	HistRequestLatencyUs               // end-user request latency (traffic engine), µs
	NumHists
)

var histNames = [...]string{
	HistProgramSteps:     "hv.program_steps",
	HistAttemptLatencyUs: "recovery.attempt_latency_us",
	HistRequestLatencyUs: "traffic.request_latency_us",
}

// Name returns the histogram's stable export name.
func (id HistID) Name() string {
	if int(id) < len(histNames) && histNames[id] != "" {
		return histNames[id]
	}
	return "hist." + itoa(int(id))
}

// Telemetry is one simulation's metrics registry plus flight recorder.
// It is single-threaded like the simulation itself; campaign workers each
// own a private instance.
type Telemetry struct {
	telemetryState

	// OpNames, when set (by hv at boot), names the per-op counter block
	// and dispatch/complete flight events in exports.
	OpNames []string

	now func() time.Duration

	// strIDs indexes strs; a restore cuts it back with the table.
	strIDs map[string]uint64
}

// telemetryState is the metrics, the flight recorder and the intern
// table.
type telemetryState struct {
	Counters [NumCounters]uint64
	Gauges   [NumGauges]int64
	Hists    [NumHists]Hist
	Flight   Ring

	// String interning: flight events carry uint64 args, so variable
	// strings (lock names, panic reasons, phase names) are stored once
	// here and referenced by ID. Restore truncates the table back to its
	// captured length so forked runs assign the same IDs a cold boot
	// would.
	strs []string
}

// New builds a telemetry instance whose flight recorder holds capacity
// events (rounded up to a power of two; minimum 16) and whose timestamps
// come from now (the simulation clock).
func New(capacity int, now func() time.Duration) *Telemetry {
	if capacity < 16 {
		capacity = 16
	}
	size := 16
	for size < capacity {
		size <<= 1
	}
	t := &Telemetry{now: now, strIDs: make(map[string]uint64, 64)}
	t.strs = make([]string, 0, 64)
	t.Flight.buf = make([]Event, size)
	t.Flight.mask = uint64(size - 1)
	// ID 0 is reserved so a zero Arg decodes to "" rather than aliasing
	// the first interned string.
	t.strs = append(t.strs, "")
	t.strIDs[""] = 0
	return t
}

// Inc adds one to a counter. Safe on a nil receiver (uninstrumented
// standalone subsystem construction in tests).
func (t *Telemetry) Inc(c Counter) {
	if t == nil {
		return
	}
	t.Counters[c]++
}

// Add adds n to a counter. Safe on a nil receiver.
func (t *Telemetry) Add(c Counter, n uint64) {
	if t == nil {
		return
	}
	t.Counters[c] += n
}

// SetGauge records a sampled value. Safe on a nil receiver.
func (t *Telemetry) SetGauge(g Gauge, v int64) {
	if t == nil {
		return
	}
	t.Gauges[g] = v
}

// Observe records v into a histogram. Safe on a nil receiver.
func (t *Telemetry) Observe(id HistID, v uint64) {
	if t == nil {
		return
	}
	t.Hists[id].Observe(v)
}

// Intern returns a stable ID for s, assigning one on first sight. IDs are
// assigned in first-use order, which is deterministic because the
// simulation is; snapshots capture the table and restores truncate it, so
// a forked run re-assigns exactly the IDs a cold boot would.
func (t *Telemetry) Intern(s string) uint64 {
	if t == nil {
		return 0
	}
	if id, ok := t.strIDs[s]; ok {
		return id
	}
	id := uint64(len(t.strs))
	t.strs = append(t.strs, s)
	t.strIDs[s] = id
	return id
}

// Str resolves an interned ID (empty string for unknown IDs).
func (t *Telemetry) Str(id uint64) string {
	if t == nil || id >= uint64(len(t.strs)) {
		return ""
	}
	return t.strs[id]
}

// Record appends a flight event stamped with the current simulated time.
// Safe on a nil receiver. This is the hot path: a now() call, one struct
// store, one increment.
func (t *Telemetry) Record(cpu int, code EventCode, arg uint64) {
	if t == nil {
		return
	}
	f := &t.Flight
	f.buf[f.next&f.mask] = Event{At: int64(t.now()), Arg: arg, Code: code, CPU: int16(cpu)}
	f.next++
}

// RecordAt appends a flight event with an explicit timestamp — used by the
// recovery engine, which charges phase latencies while the clock is frozen
// at detection time and therefore knows span times the clock hasn't
// reached yet.
func (t *Telemetry) RecordAt(at time.Duration, cpu int, code EventCode, arg uint64) {
	if t == nil {
		return
	}
	f := &t.Flight
	f.buf[f.next&f.mask] = Event{At: int64(at), Arg: arg, Code: code, CPU: int16(cpu)}
	f.next++
}

// Snapshot is captured telemetry state for later Restore.
type Snapshot struct{ telemetryState }

// Snapshot captures the full telemetry state. The returned snapshot stays
// valid for the life of the Telemetry and can be restored repeatedly.
func (t *Telemetry) Snapshot() *Snapshot {
	s := t.telemetryState
	s.Flight.buf, s.strs = slices.Clone(s.Flight.buf), slices.Clone(s.strs)
	return &Snapshot{s}
}

// Restore rewinds to a snapshot taken on this instance. It does not
// allocate: the flight buffer copies in place, and the intern table
// truncates back to its captured length, so the next run re-assigns the
// same IDs from the same starting point.
func (t *Telemetry) Restore(s *Snapshot) {
	t.telemetryState, t.Flight.buf, t.strs = s.telemetryState,
		snap.Slice(t.Flight.buf, s.Flight.buf), snap.Truncate(t.strs, t.strIDs, len(s.strs))
}

// itoa is a minimal integer formatter (avoids strconv in name paths that
// tests may hit before any formatting package is otherwise needed — and
// keeps the metric-name functions allocation-predictable).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
