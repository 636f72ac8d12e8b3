package sched

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"nilihype/internal/locking"
)

func newTestSched(cpus int) (*Scheduler, *locking.Registry) {
	reg := locking.NewRegistry()
	return NewScheduler(cpus, reg), reg
}

func TestNewSchedulerRegistersHeapLocks(t *testing.T) {
	_, reg := newTestSched(4)
	staticN, heapN := reg.Counts()
	if staticN != 0 || heapN != 4 {
		t.Fatalf("lock counts = (%d,%d), want (0,4): Xen 4.x schedule locks are heap-allocated", staticN, heapN)
	}
}

func TestAddVCPUStartsRunnable(t *testing.T) {
	s, _ := newTestSched(2)
	v := s.AddVCPU(1, 0, 1)
	if v.State != Runnable || v.Processor != 1 || v.RunningOn != NoCPU {
		t.Fatalf("vcpu = %+v", v)
	}
	if s.RunqueueLen(1) != 1 || s.RunqueueLen(0) != 0 {
		t.Fatal("vcpu not on its pinned CPU's runqueue")
	}
	if v.Name() != "d1v0" {
		t.Fatalf("Name() = %q", v.Name())
	}
	if !v.ContextValid {
		t.Fatal("new vcpu has invalid context")
	}
}

func TestCompleteSwitchRunsVCPU(t *testing.T) {
	s, _ := newTestSched(1)
	v := s.AddVCPU(1, 0, 0)
	op := s.BeginSwitch(0)
	if op == nil {
		t.Fatal("BeginSwitch returned nil with runnable vcpu")
	}
	if op.Next() != v {
		t.Fatal("wrong next vcpu")
	}
	op.Complete()
	if s.Curr(0) != v || v.State != Running || v.RunningOn != 0 {
		t.Fatalf("after switch: curr=%v state=%v runningOn=%d", s.Curr(0), v.State, v.RunningOn)
	}
	if len(s.CheckConsistency()) != 0 {
		t.Fatalf("inconsistencies after clean switch: %v", s.CheckConsistency())
	}
}

func TestSwitchRequeuesPrev(t *testing.T) {
	s, _ := newTestSched(1)
	a := s.AddVCPU(1, 0, 0)
	b := s.AddVCPU(2, 0, 0)
	s.BeginSwitch(0).Complete() // a runs
	op := s.BeginSwitch(0)
	if op.Next() != b || op.Prev() != a {
		t.Fatalf("next=%v prev=%v", op.Next(), op.Prev())
	}
	op.Complete()
	if s.Curr(0) != b || a.State != Runnable || a.RunningOn != NoCPU {
		t.Fatal("prev not requeued runnable")
	}
	if s.RunqueueLen(0) != 1 {
		t.Fatalf("runq len = %d, want 1", s.RunqueueLen(0))
	}
	if len(s.CheckConsistency()) != 0 {
		t.Fatalf("inconsistencies: %v", s.CheckConsistency())
	}
}

func TestBeginSwitchEmptyRunqueue(t *testing.T) {
	s, _ := newTestSched(1)
	if op := s.BeginSwitch(0); op != nil {
		t.Fatal("BeginSwitch on empty runqueue returned op")
	}
}

func TestPartialSwitchLeavesInconsistency(t *testing.T) {
	// The paper's hazard: the switch is abandoned between updating the
	// per-CPU structure and the per-vCPU copies.
	s, _ := newTestSched(1)
	s.AddVCPU(1, 0, 0)
	op := s.BeginSwitch(0)
	op.StepDequeueNext()
	op.StepRequeuePrev()
	op.StepSetCurr()
	// discarded before StepSetVCPU
	inc := s.CheckConsistency()
	if len(inc) == 0 {
		t.Fatal("partial switch reported consistent")
	}
	fixed := s.RepairFromPerCPU()
	if fixed == 0 {
		t.Fatal("repair fixed nothing")
	}
	if len(s.CheckConsistency()) != 0 {
		t.Fatalf("inconsistencies after repair: %v", s.CheckConsistency())
	}
	// Per-CPU is the source of truth: the vCPU must now be Running here.
	if v := s.Curr(0); v == nil || v.State != Running || v.RunningOn != 0 {
		t.Fatal("repair did not promote percpu.curr to running")
	}
}

func TestBlockClearsCurr(t *testing.T) {
	s, _ := newTestSched(1)
	v := s.AddVCPU(1, 0, 0)
	s.BeginSwitch(0).Complete()
	s.Block(0)
	if s.Curr(0) != nil || v.State != Blocked || v.RunningOn != NoCPU {
		t.Fatal("block did not transition vcpu")
	}
	s.Block(0) // idle CPU: no-op
	s.Wake(v)
	if v.State != Runnable || s.RunqueueLen(0) != 1 {
		t.Fatal("wake did not requeue vcpu")
	}
	s.Wake(v) // already runnable: no-op
	if s.RunqueueLen(0) != 1 {
		t.Fatal("double wake double-enqueued")
	}
}

func TestRemoveVCPU(t *testing.T) {
	s, _ := newTestSched(2)
	a := s.AddVCPU(1, 0, 0)
	b := s.AddVCPU(2, 0, 1)
	s.BeginSwitch(0).Complete()
	s.RemoveVCPU(a) // currently running
	if s.Curr(0) != nil {
		t.Fatal("removed vcpu still curr")
	}
	s.RemoveVCPU(b) // queued
	if s.RunqueueLen(1) != 0 {
		t.Fatal("removed vcpu still queued")
	}
	if len(s.vcpus) != 0 {
		t.Fatal("vcpus still registered")
	}
	if len(s.CheckConsistency()) != 0 {
		t.Fatalf("inconsistencies: %v", s.CheckConsistency())
	}
}

func TestCheckConsistencyDetectsEachDisagreement(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(s *Scheduler, v *VCPU)
	}{
		{"runningOn wrong", func(s *Scheduler, v *VCPU) { v.RunningOn = 1 }},
		{"processor wrong", func(s *Scheduler, v *VCPU) { v.Processor = 1 }},
		{"state wrong", func(s *Scheduler, v *VCPU) { v.State = Blocked }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, _ := newTestSched(2)
			v := s.AddVCPU(1, 0, 0)
			s.BeginSwitch(0).Complete()
			tt.mutate(s, v)
			if len(s.CheckConsistency()) == 0 {
				t.Fatal("inconsistency not detected")
			}
			s.RepairFromPerCPU()
			if got := s.CheckConsistency(); len(got) != 0 {
				t.Fatalf("after repair: %v", got)
			}
		})
	}
}

func TestCreditRefill(t *testing.T) {
	s, _ := newTestSched(1)
	v := s.AddVCPU(1, 0, 0)
	start := v.Credit
	for i := 0; i < 40; i++ {
		s.BeginSwitch(0).Complete()
		s.Block(0)
		s.Wake(v)
	}
	if v.Credit <= 0 || v.Credit > start {
		t.Fatalf("credit = %d, want in (0,%d] after refills", v.Credit, start)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Runnable, "runnable"}, {Running, "running"},
		{Blocked, "blocked"}, {Offline, "offline"}, {State(9), "state(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCorruptRandomCreatesDetectableDamage(t *testing.T) {
	s, _ := newTestSched(2)
	s.AddVCPU(1, 0, 0)
	s.AddVCPU(2, 0, 1)
	s.BeginSwitch(0).Complete()
	s.BeginSwitch(1).Complete()
	rng := rand.New(rand.NewPCG(7, 7))
	damaged := 0
	for i := 0; i < 50; i++ {
		s.CorruptRandom(rng)
		if len(s.CheckConsistency()) > 0 {
			damaged++
		}
		s.RepairFromPerCPU()
		if len(s.CheckConsistency()) != 0 {
			t.Fatal("repair left inconsistency")
		}
	}
	if damaged == 0 {
		t.Fatal("CorruptRandom never produced detectable damage")
	}
}

func TestCorruptRandomNoVCPUs(t *testing.T) {
	s, _ := newTestSched(1)
	if got := s.CorruptRandom(rand.New(rand.NewPCG(1, 1))); got != "no vcpus" {
		t.Fatalf("got %q", got)
	}
}

// TestPropertyRepairAlwaysConverges: from any corrupted state, one repair
// pass yields zero inconsistencies and preserves the per-CPU assignments.
func TestPropertyRepairAlwaysConverges(t *testing.T) {
	f := func(seed uint64, nCorrupt uint8) bool {
		s, _ := newTestSched(4)
		for d := 1; d <= 4; d++ {
			s.AddVCPU(d, 0, d-1)
		}
		for c := 0; c < 4; c++ {
			s.BeginSwitch(c).Complete()
		}
		currBefore := make([]*VCPU, 4)
		for c := 0; c < 4; c++ {
			currBefore[c] = s.Curr(c)
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < int(nCorrupt%16); i++ {
			s.CorruptRandom(rng)
		}
		s.RepairFromPerCPU()
		if len(s.CheckConsistency()) != 0 {
			return false
		}
		for c := 0; c < 4; c++ {
			if s.Curr(c) != currBefore[c] {
				return false // repair must trust the per-CPU structure
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySwitchSequenceMaintainsInvariant: any interleaving of
// complete switches, blocks and wakes keeps metadata consistent.
func TestPropertySwitchSequenceMaintainsInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		s, _ := newTestSched(2)
		vs := []*VCPU{s.AddVCPU(1, 0, 0), s.AddVCPU(2, 0, 1), s.AddVCPU(3, 0, 0)}
		for _, op := range ops {
			cpu := int(op) % 2
			switch (op / 2) % 3 {
			case 0:
				if sw := s.BeginSwitch(cpu); sw != nil {
					sw.Complete()
				}
			case 1:
				s.Block(cpu)
			case 2:
				s.Wake(vs[int(op)%3])
			}
			if len(s.CheckConsistency()) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
