package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nilihype/internal/detect"
	"nilihype/internal/locking"
	"nilihype/internal/sched"
)

// repairedState is the state the repair steps write, read back field by
// field after an attempt's repairs and before its completion runs.
type repairedState struct {
	IRQCounts          []int
	VCPUs              []vcpuState
	Curr               []string
	RunqueueLens       []int
	SchedInconsistent  []string
	HeldLocks          []string
	InconsistentFrames []int
}

type vcpuState struct {
	Name                 string
	State                sched.State
	Processor, RunningOn int
}

func readRepairedState(r *rig) repairedState {
	h := r.h
	var st repairedState
	for cpu := 0; cpu < h.NumCPUs(); cpu++ {
		st.IRQCounts = append(st.IRQCounts, h.PerCPU(cpu).LocalIRQCount)
		curr := "-"
		if v := h.Sched.Curr(cpu); v != nil {
			curr = v.Name()
		}
		st.Curr = append(st.Curr, curr)
		st.RunqueueLens = append(st.RunqueueLens, h.Sched.RunqueueLen(cpu))
	}
	for _, d := range h.Domains.Preserved() {
		for _, v := range d.VCPUs {
			st.VCPUs = append(st.VCPUs, vcpuState{v.Name(), v.State, v.Processor, v.RunningOn})
		}
	}
	for _, in := range h.Sched.CheckConsistency() {
		st.SchedInconsistent = append(st.SchedInconsistent, in.Desc)
	}
	for _, l := range h.Locks.HeldLocks() {
		st.HeldLocks = append(st.HeldLocks, fmt.Sprintf("%s@%d", l.Name(), l.Owner()))
	}
	st.InconsistentFrames = h.Frames.InconsistentFrames()
	return st
}

// damageForRepair writes the damage every repair row exists for: non-zero
// IRQ nesting on several CPUs, inconsistent scheduler metadata, held heap
// and static locks, and inconsistent page-frame descriptors. The RNG is
// fixed, so every call on a fresh rig writes the same damage.
func damageForRepair(t *testing.T, r *rig) {
	t.Helper()
	h := r.h
	rng := testRNG()
	for _, cpu := range []int{2, 5, 7} {
		h.PerCPU(cpu).LocalIRQCount = 1 + cpu%2
	}
	for i := 0; i < 3 || len(h.Sched.CheckConsistency()) == 0; i++ {
		if i == 50 {
			t.Fatal("no scheduler damage after 50 corruptions")
		}
		h.Sched.CorruptRandom(rng)
	}
	for i := 0; len(h.Locks.HeldLocks(locking.Static)) == 0 || len(h.Locks.HeldLocks(locking.Heap)) == 0; i++ {
		if i == 200 {
			t.Fatal("could not hold both a static and a heap lock")
		}
		h.Locks.CorruptRandomHold(rng)
	}
	for i := 0; i < 3; i++ {
		h.Frames.CorruptRandomDescriptor(rng)
	}
	if len(h.Frames.InconsistentFrames()) == 0 {
		t.Fatal("no inconsistent frames")
	}
}

// TestRepairStateIdenticalAcrossLanes: the repair table run at one lane
// (every row on its own) and at eight (the IRQ and scheduler rows as one
// concurrent recovery-domain level) leaves the same state behind, for
// every Table I enhancement set, on both in-place rungs.
func TestRepairStateIdenticalAcrossLanes(t *testing.T) {
	for _, mech := range []Mechanism{Microreset, PrivVMRestart} {
		for _, rung := range Ladder() {
			t.Run(fmt.Sprintf("%v/%s", mech, rung.Label), func(t *testing.T) {
				repaired := func(lanes int) (repairedState, Attempt) {
					r := newRig(t, Config{Mechanism: mech, Enhancements: rung.Enh, RepairCPUs: lanes}, 512)
					r.clk.RunUntil(50 * time.Millisecond)
					damageForRepair(t, r)
					r.engine.OnDetection(detect.Event{CPU: 1, Kind: detect.Panic, Reason: "lane test", At: r.clk.Now()})
					if len(r.engine.Attempts) != 1 {
						t.Fatalf("lanes=%d: %d attempts", lanes, len(r.engine.Attempts))
					}
					return readRepairedState(r), r.engine.Attempts[0]
				}
				one, a1 := repaired(1)
				eight, a8 := repaired(8)
				ov, ev := reflect.ValueOf(one), reflect.ValueOf(eight)
				for i := 0; i < ov.NumField(); i++ {
					if o, e := ov.Field(i).Interface(), ev.Field(i).Interface(); !reflect.DeepEqual(o, e) {
						t.Errorf("%s: one lane %v, eight lanes %v", ov.Type().Field(i).Name, o, e)
					}
				}
				units := rung.Enh.Has(EnhClearIRQCount) || rung.Enh.Has(EnhSchedConsistency)
				if a1.Timing.Units != 0 || units != (a8.Timing.Units > 0) {
					t.Fatalf("recovery-domain units: one lane %d, eight lanes %d", a1.Timing.Units, a8.Timing.Units)
				}
				if rung.Enh == AllEnhancements && mech == Microreset {
					if one.SchedInconsistent != nil || one.HeldLocks != nil || one.InconsistentFrames != nil ||
						!reflect.DeepEqual(one.IRQCounts, make([]int, len(one.IRQCounts))) {
						t.Fatalf("full repair left damage: %+v", one)
					}
				}
			})
		}
	}
}

// bootRowState is the state a reboot re-initializes whatever the
// enhancement set, read at resume.
type bootRowState struct {
	IRQCounts         []int
	SchedInconsistent []string
	HeldStatic        []string
	InactiveTimers    int
	DisarmedAPICs     []int
	LostContexts      []string
}

// TestRebootRunsBootRowsAtEveryRung: microreboot and checkpoint restore
// re-initialize IRQ counts, scheduler metadata, static locks, recurring
// timers and the APICs as part of the boot, for every Table I
// enhancement set; FS/GS is lost exactly when the ReHype save is off.
func TestRebootRunsBootRowsAtEveryRung(t *testing.T) {
	for _, mech := range []Mechanism{Microreboot, CheckpointRestore} {
		for _, rung := range Ladder() {
			t.Run(fmt.Sprintf("%v/%s", mech, rung.Label), func(t *testing.T) {
				r := newRig(t, Config{Mechanism: mech, Enhancements: rung.Enh}, 512)
				r.clk.RunUntil(50 * time.Millisecond)
				h := r.h
				rng := testRNG()
				for _, cpu := range []int{2, 5, 7} {
					h.PerCPU(cpu).LocalIRQCount = 1 + cpu%2
				}
				for i := 0; i < 3 || len(h.Sched.CheckConsistency()) == 0; i++ {
					if i == 50 {
						t.Fatal("no scheduler damage after 50 corruptions")
					}
					h.Sched.CorruptRandom(rng)
				}
				for i := 0; len(h.Locks.HeldLocks(locking.Static)) == 0; i++ {
					if i == 200 {
						t.Fatal("could not hold a static lock")
					}
					h.Locks.CorruptRandomHold(rng)
				}
				if len(h.Timers.PopDue(3, r.clk.Now()+time.Second)) == 0 || len(h.Timers.InactiveRecurring()) == 0 {
					t.Fatal("no recurring timer to strand on cpu3")
				}
				h.Machine.CPU(4).DisarmTimer()

				// The read is the first work the resume runs, before any
				// deferred call or pending interrupt executes.
				var st *bootRowState
				r.engine.OnPause = func() {
					h.WhenRunnable(func() {
						s := bootRowState{}
						for cpu := 0; cpu < h.NumCPUs(); cpu++ {
							s.IRQCounts = append(s.IRQCounts, h.PerCPU(cpu).LocalIRQCount)
							if !h.Machine.CPU(cpu).TimerArmed() {
								s.DisarmedAPICs = append(s.DisarmedAPICs, cpu)
							}
						}
						for _, in := range h.Sched.CheckConsistency() {
							s.SchedInconsistent = append(s.SchedInconsistent, in.Desc)
						}
						for _, l := range h.Locks.HeldLocks(locking.Static) {
							s.HeldStatic = append(s.HeldStatic, l.Name())
						}
						s.InactiveTimers = len(h.Timers.InactiveRecurring())
						for _, d := range h.Domains.Preserved() {
							for _, v := range d.VCPUs {
								if !v.ContextValid {
									s.LostContexts = append(s.LostContexts, v.Name())
								}
							}
						}
						st = &s
					})
				}
				r.injectPanicAtBudget(t, 250)
				r.clk.RunUntil(2 * time.Second)
				if st == nil {
					t.Fatalf("no resume: status %v (%s)", r.engine.Status(), r.engine.FailReason)
				}
				want := bootRowState{IRQCounts: make([]int, h.NumCPUs())}
				if !rung.Enh.Has(EnhReHypeMechanisms) {
					want.LostContexts = []string{"d1v0"}
				}
				if !reflect.DeepEqual(*st, want) {
					t.Fatalf("state at resume %+v, want %+v", *st, want)
				}
			})
		}
	}
}
