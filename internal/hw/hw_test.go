package hw

import (
	"testing"
	"time"

	"nilihype/internal/simclock"
)

// drain dispatches events until the queue empties or the clock halts.
func drain(clk *simclock.Clock) {
	for clk.Step() {
	}
}

// recordingSink records delivered interrupts and can refuse delivery to a
// set of CPUs (simulating interrupts-disabled).
type recordingSink struct {
	delivered []struct {
		cpu int
		vec Vector
	}
	refuse map[int]bool
}

func (s *recordingSink) DeliverInterrupt(cpu int, vec Vector) bool {
	if s.refuse[cpu] {
		return false
	}
	s.delivered = append(s.delivered, struct {
		cpu int
		vec Vector
	}{cpu, vec})
	return true
}

func newTestMachine(t *testing.T) (*Machine, *simclock.Clock, *recordingSink) {
	t.Helper()
	clk := simclock.New()
	m, err := NewMachine(clk, Config{CPUs: 4, MemoryMB: 1024, BlockSvc: 100 * time.Microsecond, NICLat: 10 * time.Microsecond})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sink := &recordingSink{refuse: make(map[int]bool)}
	m.SetSink(sink)
	return m, clk, sink
}

func TestNewMachineValidation(t *testing.T) {
	clk := simclock.New()
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero cpus", Config{CPUs: 0, MemoryMB: 1024}},
		{"negative cpus", Config{CPUs: -1, MemoryMB: 1024}},
		{"zero memory", Config{CPUs: 2, MemoryMB: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMachine(clk, tt.cfg); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CPUs != 8 {
		t.Errorf("CPUs = %d, want 8 (Nehalem 8-core, §VI-A)", cfg.CPUs)
	}
	if cfg.MemoryMB != 8192 {
		t.Errorf("MemoryMB = %d, want 8192 (8GB, §VII-B)", cfg.MemoryMB)
	}
}

func TestPageFrameCount(t *testing.T) {
	m, _, _ := newTestMachine(t)
	want := 1024 * 1024 * 1024 / PageSize
	if m.PageFrames() != want {
		t.Fatalf("PageFrames() = %d, want %d", m.PageFrames(), want)
	}
}

func TestAPICTimerFiresAtDeadline(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	cpu := m.CPU(1)
	cpu.ArmTimer(3 * time.Millisecond)
	if !cpu.TimerArmed() {
		t.Fatal("TimerArmed() = false after ArmTimer")
	}
	drain(clk)
	if len(sink.delivered) != 1 || sink.delivered[0].cpu != 1 || sink.delivered[0].vec != VecTimer {
		t.Fatalf("delivered = %v, want one VecTimer on cpu1", sink.delivered)
	}
	if cpu.TimerArmed() {
		t.Fatal("TimerArmed() = true after the one-shot fired (the §V-A hazard window)")
	}
}

func TestAPICTimerRearmReplacesDeadline(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	cpu := m.CPU(0)
	cpu.ArmTimer(5 * time.Millisecond)
	cpu.ArmTimer(2 * time.Millisecond)
	drain(clk)
	if len(sink.delivered) != 1 {
		t.Fatalf("delivered %d interrupts, want 1 (re-arm replaces)", len(sink.delivered))
	}
	if clk.Now() != 2*time.Millisecond {
		t.Fatalf("fired at %v, want 2ms", clk.Now())
	}
}

func TestAPICTimerDisarm(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	cpu := m.CPU(0)
	cpu.ArmTimer(time.Millisecond)
	cpu.DisarmTimer()
	drain(clk)
	if len(sink.delivered) != 0 {
		t.Fatalf("delivered = %v, want none after disarm", sink.delivered)
	}
}

func TestAPICTimerPastDeadlineClamped(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	clk.After(10*time.Millisecond, "advance", func() {
		m.CPU(0).ArmTimer(time.Millisecond) // already past
	})
	drain(clk)
	if len(sink.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (past deadline fires immediately)", len(sink.delivered))
	}
}

func TestPerfNMIRecursEveryPeriod(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	cpu := m.CPU(2)
	cpu.StartPerfNMI(100 * time.Millisecond)
	clk.RunUntil(350 * time.Millisecond)
	if len(sink.delivered) != 3 {
		t.Fatalf("delivered %d NMIs in 350ms, want 3", len(sink.delivered))
	}
	for _, d := range sink.delivered {
		if d.vec != VecNMI || d.cpu != 2 {
			t.Fatalf("unexpected delivery %v", d)
		}
	}
	cpu.StopPerfNMI()
	sink.delivered = nil
	clk.RunUntil(time.Second)
	if len(sink.delivered) != 0 {
		t.Fatalf("NMIs after stop: %d", len(sink.delivered))
	}
}

func TestPerfNMIDeliveredEvenWhenRefused(t *testing.T) {
	// The sink refusing delivery models interrupts-disabled; NMIs do not
	// queue at the CPU pending list via StartPerfNMI (they go straight to
	// the sink, which in the real hypervisor handles NMIs regardless).
	// Here we verify the NMI source keeps ticking even if refused.
	m, clk, sink := newTestMachine(t)
	sink.refuse[0] = true
	m.CPU(0).StartPerfNMI(100 * time.Millisecond)
	clk.RunUntil(250 * time.Millisecond)
	if !m.CPU(0).PerfNMIRunning() {
		t.Fatal("perf NMI source stopped after refused delivery")
	}
}

func TestPendingInterruptQueuedWhenRefused(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	sink.refuse[1] = true
	m.CPU(1).ArmTimer(time.Millisecond)
	drain(clk)
	if len(sink.delivered) != 0 {
		t.Fatal("interrupt delivered despite refusal")
	}
	pend := m.CPU(1).pending
	if len(pend) != 1 || pend[0] != VecTimer {
		t.Fatalf("pending = %v, want [timer]", pend)
	}
	sink.refuse[1] = false
	m.CPU(1).DrainPending()
	if len(sink.delivered) != 1 {
		t.Fatalf("delivered %d after drain, want 1", len(sink.delivered))
	}
	if len(m.CPU(1).pending) != 0 {
		t.Fatal("pending not cleared after drain")
	}
}

func TestPendingDuplicateVectorsCollapse(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	sink.refuse[0] = true
	m.CPU(0).ArmTimer(time.Millisecond)
	drain(clk)
	m.CPU(0).ArmTimer(2 * time.Millisecond)
	drain(clk)
	if n := len(m.CPU(0).pending); n != 1 {
		t.Fatalf("pending count = %d, want 1 (duplicates collapse)", n)
	}
}

func TestClearPending(t *testing.T) {
	m, clk, sink := newTestMachine(t)
	sink.refuse[0] = true
	m.CPU(0).ArmTimer(time.Millisecond)
	drain(clk)
	m.CPU(0).ClearPending()
	if len(m.CPU(0).pending) != 0 {
		t.Fatal("ClearPending left pending vectors")
	}
}

// TestSendIPI: an inter-processor interrupt raised on cpu3 is delivered
// there with its own vector.
func TestSendIPI(t *testing.T) {
	m, _, sink := newTestMachine(t)
	m.CPU(3).raise(VecIPI)
	if len(sink.delivered) != 1 || sink.delivered[0].cpu != 3 || sink.delivered[0].vec != VecIPI {
		t.Fatalf("delivered = %v, want VecIPI on cpu3", sink.delivered)
	}
}

func TestCycleAccounting(t *testing.T) {
	m, _, _ := newTestMachine(t)
	cpu := m.CPU(0)
	cpu.ChargeHypervisor(200, 50)
	cpu.ChargeHypervisor(100, 25)
	if cpu.Cycles.Hypervisor != 300 || m.HypervisorCycles() != 300 {
		t.Fatalf("cycles = %+v, machine total %d", cpu.Cycles, m.HypervisorCycles())
	}
	if cpu.HypInstrs != 75 {
		t.Fatalf("HypInstrs = %d, want 75", cpu.HypInstrs)
	}
	cpu.ResetCounters()
	if cpu.Cycles.Hypervisor != 0 || cpu.HypInstrs != 0 {
		t.Fatal("ResetCounters did not zero counters")
	}
}

func TestRegisterNames(t *testing.T) {
	tests := []struct {
		reg  Reg
		want string
	}{
		{RAX, "rax"},
		{RSP, "rsp"},
		{RFLAGS, "rflags"},
		{RIP, "rip"},
		{FSBase, "fsbase"},
		{GSBase, "gsbase"},
	}
	for _, tt := range tests {
		if got := tt.reg.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.reg, got, tt.want)
		}
	}
	if NumInjectableRegs != 19 {
		t.Errorf("NumInjectableRegs = %d, want 19 (16 GPRs + SP + FLAGS + PC, §VI-C)", NumInjectableRegs)
	}
}

func TestVectorAndIRQStrings(t *testing.T) {
	if VecTimer.String() != "timer" || VecNMI.String() != "nmi" {
		t.Error("vector names wrong")
	}
	if Vector(99).String() != "vec(99)" {
		t.Error("unknown vector formatting wrong")
	}
	if IRQBlock.String() != "irq-block" || IRQLine(77).String() != "irq(77)" {
		t.Error("irq line names wrong")
	}
}

func TestMachineAccessors(t *testing.T) {
	m, _, _ := newTestMachine(t)
	if m.NumCPUs() != 4 || len(m.CPUs()) != 4 {
		t.Fatalf("NumCPUs=%d CPUs=%d", m.NumCPUs(), len(m.CPUs()))
	}
	cpu := m.CPU(1)
	cpu.ArmTimer(7 * time.Millisecond)
	if !cpu.TimerArmed() || cpu.apic.deadline != 7*time.Millisecond {
		t.Fatalf("armed=%v deadline=%v", cpu.TimerArmed(), cpu.apic.deadline)
	}
}
