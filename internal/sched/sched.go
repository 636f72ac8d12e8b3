// Package sched models Xen's credit scheduler state: per-CPU runqueues,
// vCPU execution states, and — critically for recovery — the redundant
// bookkeeping of which vCPU is running where.
//
// The paper (§V-A "Ensure consistency within scheduling metadata") calls
// out that this information is stored in multiple places: the per-CPU
// structure ("curr") plus two different locations in the per-vCPU structure
// (here: RunningOn and Processor). A fault or a discarded context switch
// leaves the three copies disagreeing; the consequences are either failed
// assertions in the scheduling path (hypervisor panic) or restoring the
// register context of one vCPU when another is scheduled (that VM fails).
// The recovery enhancement treats the per-CPU structure as the most
// reliable source and rewrites the per-vCPU copies from it.
package sched

import (
	"fmt"
	"math/rand/v2"

	"nilihype/internal/hw"
	"nilihype/internal/locking"
	"nilihype/internal/telemetry"
)

// State is a vCPU execution state.
type State int

// vCPU states.
const (
	Runnable State = iota + 1 // on a runqueue, waiting for a CPU
	Running                   // currently on a physical CPU
	Blocked                   // waiting for an event
	Offline                   // not yet up or torn down
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// NoCPU marks a vCPU that is not running anywhere.
const NoCPU = -1

// VCPU is one virtual CPU.
type VCPU struct {
	Domain int
	ID     int
	vcpuState
}

// vcpuState is a vCPU's execution state and its redundant metadata
// copies.
type vcpuState struct {
	// State is the scheduler-visible execution state.
	State State

	// Processor is per-vCPU copy #1: the physical CPU this vCPU is
	// assigned to.
	Processor int

	// RunningOn is per-vCPU copy #2: the physical CPU this vCPU is
	// currently executing on, or NoCPU.
	RunningOn int

	// Context is the saved guest register file, restored when the vCPU
	// is scheduled. ContextValid is cleared if recovery loses it (the
	// FS/GS hazard contributes here).
	Context      [hw.NumRegs]uint64
	ContextValid bool

	// Credit is the credit-scheduler budget.
	Credit int

	// queued tracks runqueue membership to catch double-enqueue.
	queued bool
}

// Name returns a diagnostic identifier like "d2v0".
func (v *VCPU) Name() string { return fmt.Sprintf("d%dv%d", v.Domain, v.ID) }

// initialCredit is the credit-scheduler refill value.
const initialCredit = 300

// percpu is the scheduler's per-CPU structure.
type percpu struct {
	cpuState
	lock *locking.Lock
	// op is the storage BeginSwitch hands out: one switch is in flight
	// per CPU (its steps run under the runqueue lock), so the record is
	// reused rather than allocated per switch.
	op SwitchOp
}

// cpuState is one CPU's current vCPU and runqueue.
type cpuState struct {
	curr *VCPU // per-CPU copy: vCPU currently on this CPU (nil = idle)
	runq []*VCPU
}

// Scheduler is the credit scheduler across all physical CPUs.
type Scheduler struct {
	cpus  []percpu
	vcpus []*VCPU

	// tel, when set (SetTelemetry), counts scheduling decisions. Nil
	// (standalone construction in tests) disables the counting.
	tel *telemetry.Telemetry
}

// SetTelemetry installs the telemetry sink for scheduler-decision
// counters.
func (s *Scheduler) SetTelemetry(tel *telemetry.Telemetry) { s.tel = tel }

// NewScheduler builds the scheduler. Per-CPU schedule locks are
// heap-allocated (Xen 4.x allocates schedule_data dynamically in
// cpu_schedule_up), so they are covered by the heap-lock release mechanism
// ReHype introduced and NiLiHype reuses — not by the static-lock segment.
func NewScheduler(cpus int, locks *locking.Registry) *Scheduler {
	s := &Scheduler{cpus: make([]percpu, cpus)}
	for i := range s.cpus {
		s.cpus[i].lock = locks.NewHeap(fmt.Sprintf("schedule_lock.cpu%d", i))
	}
	return s
}

// RunqueueLock returns cpu's schedule lock.
func (s *Scheduler) RunqueueLock(cpu int) *locking.Lock { return s.cpus[cpu].lock }

// AddVCPU registers a new vCPU pinned to cpu (the paper pins each vCPU to
// a distinct physical CPU, §VI-A) and enqueues it runnable.
func (s *Scheduler) AddVCPU(domain, id, cpu int) *VCPU {
	v := &VCPU{Domain: domain, ID: id, vcpuState: vcpuState{
		State:        Runnable,
		Processor:    cpu,
		RunningOn:    NoCPU,
		Credit:       initialCredit,
		ContextValid: true,
	}}
	s.vcpus = append(s.vcpus, v)
	s.enqueue(cpu, v)
	return v
}

// RemoveVCPU tears a vCPU down (domain destruction).
func (s *Scheduler) RemoveVCPU(v *VCPU) {
	v.State = Offline
	if v.queued {
		s.dequeue(v.Processor, v)
	}
	for c := range s.cpus {
		if s.cpus[c].curr == v {
			s.cpus[c].curr = nil
		}
	}
	for i, vv := range s.vcpus {
		if vv == v {
			s.vcpus = append(s.vcpus[:i], s.vcpus[i+1:]...)
			break
		}
	}
	v.RunningOn = NoCPU
}

// Curr returns the vCPU the per-CPU structure says is on cpu (nil=idle).
func (s *Scheduler) Curr(cpu int) *VCPU { return s.cpus[cpu].curr }

// RunqueueLen returns the number of queued vCPUs on cpu.
func (s *Scheduler) RunqueueLen(cpu int) int { return len(s.cpus[cpu].runq) }

func (s *Scheduler) enqueue(cpu int, v *VCPU) {
	if v.queued {
		panic(fmt.Sprintf("sched: double enqueue of %s", v.Name()))
	}
	v.queued = true
	s.cpus[cpu].runq = append(s.cpus[cpu].runq, v)
}

func (s *Scheduler) dequeue(cpu int, v *VCPU) {
	q := s.cpus[cpu].runq
	for i, vv := range q {
		if vv == v {
			s.cpus[cpu].runq = append(q[:i], q[i+1:]...)
			v.queued = false
			return
		}
	}
	panic(fmt.Sprintf("sched: dequeue of %s not on runq %d", v.Name(), cpu))
}

// Wake marks a blocked vCPU runnable and enqueues it on its processor.
// Waking a non-blocked vCPU is a no-op (event races are normal).
func (s *Scheduler) Wake(v *VCPU) {
	if v.State != Blocked {
		return
	}
	s.tel.Inc(telemetry.CtrSchedWakes)
	v.State = Runnable
	s.enqueue(v.Processor, v)
}

// --- the context-switch state machine --------------------------------------
//
// Schedule is deliberately split into the same separately observable steps
// the real scheduler performs, because the injectable windows between them
// are what produce scheduling-metadata inconsistencies. The hypervisor
// layer sequences these steps and charges instructions per step; a
// microreset between any two steps leaves exactly the partial state a real
// discarded context switch would.

// SwitchOp is an in-progress context switch on one CPU.
type SwitchOp struct {
	s    *Scheduler
	cpu  int
	prev *VCPU
	next *VCPU
	step int
}

// BeginSwitch starts a context switch on cpu: it picks the next vCPU from
// the runqueue (round-robin with credit decay). The caller must hold the
// runqueue lock. Returns nil if the runqueue is empty and no current vCPU
// needs requeueing (CPU stays idle or keeps running prev). The returned
// record is the CPU's own and is valid until the next BeginSwitch on cpu.
func (s *Scheduler) BeginSwitch(cpu int) *SwitchOp {
	pc := &s.cpus[cpu]
	if len(pc.runq) == 0 {
		return nil
	}
	s.tel.Inc(telemetry.CtrSchedSwitches)
	next := pc.runq[0]
	pc.op = SwitchOp{s: s, cpu: cpu, prev: pc.curr, next: next}
	return &pc.op
}

// StepDequeueNext removes the chosen vCPU from the runqueue (step 1).
func (op *SwitchOp) StepDequeueNext() {
	op.s.dequeue(op.cpu, op.next)
	op.step = 1
}

// StepRequeuePrev puts the previous vCPU back on the runqueue as runnable,
// if there was one (step 2).
func (op *SwitchOp) StepRequeuePrev() {
	if op.prev != nil && op.prev.State == Running {
		op.prev.State = Runnable
		op.prev.RunningOn = NoCPU
		op.s.enqueue(op.cpu, op.prev)
	}
	op.step = 2
}

// StepSetCurr updates the per-CPU structure (step 3). After this step the
// per-CPU copy and the per-vCPU copies disagree until StepSetVCPU runs —
// the paper's inconsistency window.
func (op *SwitchOp) StepSetCurr() {
	op.s.cpus[op.cpu].curr = op.next
	op.step = 3
}

// StepSetVCPU updates the two per-vCPU copies and the state (step 4),
// completing the switch.
func (op *SwitchOp) StepSetVCPU() {
	op.next.RunningOn = op.cpu
	op.next.Processor = op.cpu
	op.next.State = Running
	op.next.Credit -= 10
	if op.next.Credit <= 0 {
		op.next.Credit = initialCredit
	}
	op.step = 4
}

// Next returns the vCPU being switched in.
func (op *SwitchOp) Next() *VCPU { return op.next }

// Prev returns the vCPU being switched out (may be nil).
func (op *SwitchOp) Prev() *VCPU { return op.prev }

// Complete runs all remaining steps atomically (used by non-injected
// paths).
func (op *SwitchOp) Complete() {
	if op.step < 1 {
		op.StepDequeueNext()
	}
	if op.step < 2 {
		op.StepRequeuePrev()
	}
	if op.step < 3 {
		op.StepSetCurr()
	}
	if op.step < 4 {
		op.StepSetVCPU()
	}
}

// Block transitions the current vCPU on cpu to Blocked and clears it from
// the per-CPU structure.
func (s *Scheduler) Block(cpu int) {
	pc := &s.cpus[cpu]
	if pc.curr == nil {
		return
	}
	s.tel.Inc(telemetry.CtrSchedBlocks)
	pc.curr.State = Blocked
	pc.curr.RunningOn = NoCPU
	pc.curr = nil
}

// --- consistency checking and repair ---------------------------------------

// InconsistencyKind classifies a scheduling-metadata disagreement by its
// post-recovery consequence.
type InconsistencyKind int

// Inconsistency kinds.
const (
	// KindStateMismatch: percpu.curr's state fields disagree — the
	// scheduler's assertions fail (hypervisor panic).
	KindStateMismatch InconsistencyKind = iota + 1
	// KindWrongCPU: the redundant RunningOn/Processor copies point
	// elsewhere — the wrong vCPU's register context gets restored.
	KindWrongCPU
	// KindQueuedRunning: a running vCPU sits on a runqueue — scheduler
	// assertion (panic).
	KindQueuedRunning
	// KindStarved: a runnable vCPU is on no runqueue — it never runs
	// again and its VM eventually fails.
	KindStarved
)

// Inconsistency describes one scheduling-metadata disagreement.
type Inconsistency struct {
	CPU  int
	VCPU *VCPU
	Kind InconsistencyKind
	Desc string
}

// CheckConsistency returns every disagreement between the per-CPU
// structure and the per-vCPU copies, plus runqueue corruption (running
// vCPUs queued, duplicates). The scheduling path asserts on these; after
// recovery, any surviving inconsistency either panics the hypervisor or
// corrupts a vCPU's context.
func (s *Scheduler) CheckConsistency() []Inconsistency {
	var out []Inconsistency
	for c := range s.cpus {
		curr := s.cpus[c].curr
		if curr != nil {
			if curr.RunningOn != c {
				out = append(out, Inconsistency{CPU: c, VCPU: curr, Kind: KindWrongCPU,
					Desc: fmt.Sprintf("percpu.curr=%s but RunningOn=%d", curr.Name(), curr.RunningOn)})
			}
			if curr.Processor != c {
				out = append(out, Inconsistency{CPU: c, VCPU: curr, Kind: KindWrongCPU,
					Desc: fmt.Sprintf("percpu.curr=%s but Processor=%d", curr.Name(), curr.Processor)})
			}
			if curr.State != Running {
				out = append(out, Inconsistency{CPU: c, VCPU: curr, Kind: KindStateMismatch,
					Desc: fmt.Sprintf("percpu.curr=%s but State=%v", curr.Name(), curr.State)})
			}
		}
		for _, v := range s.cpus[c].runq {
			if v.State == Running {
				out = append(out, Inconsistency{CPU: c, VCPU: v, Kind: KindQueuedRunning,
					Desc: fmt.Sprintf("%s on runq %d while Running", v.Name(), c)})
			}
		}
	}
	for _, v := range s.vcpus {
		if v.RunningOn != NoCPU && s.cpus[v.RunningOn].curr != v {
			out = append(out, Inconsistency{CPU: v.RunningOn, VCPU: v, Kind: KindWrongCPU,
				Desc: fmt.Sprintf("%s claims RunningOn=%d but percpu.curr disagrees", v.Name(), v.RunningOn)})
		}
		if v.State == Runnable && !v.queued {
			out = append(out, Inconsistency{CPU: v.Processor, VCPU: v, Kind: KindStarved,
				Desc: fmt.Sprintf("%s runnable but on no runqueue", v.Name())})
		}
	}
	return out
}

// RepairFromPerCPU implements the paper's enhancement: the per-CPU
// structures are taken as the reliable source, and all per-vCPU copies,
// states and runqueues are rewritten to agree with them. Returns the
// number of fields rewritten.
func (s *Scheduler) RepairFromPerCPU() int {
	fixed := 0
	running := make(map[*VCPU]int, len(s.cpus))
	for c := range s.cpus {
		if s.cpus[c].curr != nil {
			running[s.cpus[c].curr] = c
		}
	}
	// Rebuild every runqueue from scratch: a vCPU belongs on its
	// processor's queue iff it is not running and not blocked.
	for c := range s.cpus {
		s.cpus[c].runq = s.cpus[c].runq[:0]
	}
	for _, v := range s.vcpus {
		v.queued = false
	}
	for _, v := range s.vcpus {
		if c, ok := running[v]; ok {
			if v.RunningOn != c {
				v.RunningOn = c
				fixed++
			}
			if v.Processor != c {
				v.Processor = c
				fixed++
			}
			if v.State != Running {
				v.State = Running
				fixed++
			}
			continue
		}
		if v.RunningOn != NoCPU {
			v.RunningOn = NoCPU
			fixed++
		}
		if v.State == Running {
			// Initialize to a fixed valid value (paper: "where
			// possible, initialize the data to a fixed valid value"):
			// a non-running vCPU becomes runnable.
			v.State = Runnable
			fixed++
		}
		if v.Processor < 0 || v.Processor >= len(s.cpus) {
			v.Processor = 0
			fixed++
		}
		if v.State == Runnable {
			s.enqueue(v.Processor, v)
		}
	}
	return fixed
}

// CorruptRandom models error propagation into scheduling metadata: it
// flips one of the redundant copies at random. Returns a description.
func (s *Scheduler) CorruptRandom(rng *rand.Rand) string {
	if len(s.vcpus) == 0 {
		return "no vcpus"
	}
	v := s.vcpus[rng.IntN(len(s.vcpus))]
	switch rng.IntN(3) {
	case 0:
		v.RunningOn = rng.IntN(len(s.cpus))
		return fmt.Sprintf("%s.RunningOn=%d", v.Name(), v.RunningOn)
	case 1:
		v.Processor = rng.IntN(len(s.cpus))
		return fmt.Sprintf("%s.Processor=%d", v.Name(), v.Processor)
	default:
		v.State = State(rng.IntN(3) + 1)
		return fmt.Sprintf("%s.State=%v", v.Name(), v.State)
	}
}
