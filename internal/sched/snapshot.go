package sched

import (
	"slices"

	"nilihype/internal/snap"
)

// Snapshot captures the scheduler: the registered vCPU set in
// registration order with each vCPU's state, and every per-CPU state.
type Snapshot struct {
	vcpus []snap.Obj[VCPU, vcpuState]
	cpus  []cpuState
}

func vcpuSt(v *VCPU) *vcpuState { return &v.vcpuState }

// Snapshot captures the scheduler state.
func (s *Scheduler) Snapshot() *Snapshot {
	out := &Snapshot{snap.Save(s.vcpus, vcpuSt), make([]cpuState, len(s.cpus))}
	for c := range s.cpus {
		out.cpus[c] = s.cpus[c].cpuState
		out.cpus[c].runq = slices.Clone(out.cpus[c].runq)
	}
	return out
}

// Restore rewinds the scheduler: the vCPU registration order, every
// vCPU's state and every per-CPU state regain their saved values. vCPUs
// registered after the snapshot drop out.
func (s *Scheduler) Restore(saved *Snapshot) {
	s.vcpus = snap.Revive(s.vcpus, saved.vcpus, vcpuSt)
	for c := range s.cpus {
		pc, st := &s.cpus[c], &saved.cpus[c]
		pc.cpuState, pc.runq = *st, snap.Slice(pc.runq, st.runq)
	}
}
