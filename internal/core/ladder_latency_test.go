package core

import (
	"testing"
	"time"
)

// TestLegacyWorstCaseLatencyUnchanged pins every recovery configuration's
// worst-case bound to its exact value: the first three from before the
// PrivVM-restart rung and the IO-APIC reprogram enhancement existed, the
// rest from before the boot costs became table rows. The campaign's run
// horizon is derived from these bounds, so any drift here silently shifts
// every run's simulated-time budget and can flip marginal FailReasons —
// this test turns that into a loud failure.
func TestLegacyWorstCaseLatencyUnchanged(t *testing.T) {
	const frames512MB = 512 * 256
	for _, tt := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"default-microreset", DefaultConfig(), 2312500 * time.Nanosecond},
		{"microreboot", Config{Mechanism: Microreboot}, 463625 * time.Microsecond},
		{"hybrid-ladder", HybridConfig(), 965937500 * time.Nanosecond},
		{"checkpoint", Config{Mechanism: CheckpointRestore}, 101625 * time.Microsecond},
		{"privvm-restart", Config{Mechanism: PrivVMRestart}, 1822312500 * time.Nanosecond},
		{"full-ladder", FullLadderConfig(), 3297137500 * time.Nanosecond},
	} {
		if got := tt.cfg.WorstCaseLatency(frames512MB); got != tt.want {
			t.Errorf("%s: WorstCaseLatency = %v, want %v (legacy horizon shifted)", tt.name, got, tt.want)
		}
	}
}

// TestFullLadderWorstCaseCoversPrivVMRestart: the full ladder's bound must
// strictly dominate the hybrid ladder's by at least the PrivVM reboot cost
// — the horizon has to leave room for the third rung to run to completion.
func TestFullLadderWorstCaseCoversPrivVMRestart(t *testing.T) {
	const frames512MB = 512 * 256
	hybrid := HybridConfig().WorstCaseLatency(frames512MB)
	full := FullLadderConfig().WorstCaseLatency(frames512MB)
	if full <= hybrid {
		t.Fatalf("full ladder bound %v not above hybrid %v", full, hybrid)
	}
	if full-hybrid < privVMBootCost {
		t.Fatalf("full-hybrid gap %v smaller than the PrivVM boot cost %v", full-hybrid, privVMBootCost)
	}
	single := Config{Mechanism: PrivVMRestart}.WorstCaseLatency(frames512MB)
	if single < privVMBootCost+privVMMaxReattachVMs*privVMReattachPerVM {
		t.Fatalf("PrivVM-restart bound %v below its own mandatory steps", single)
	}
}

// TestFullLadderConfigShape pins the rung order and policy of the
// escalation ladder the fault-matrix experiment uses.
func TestFullLadderConfigShape(t *testing.T) {
	cfg := FullLadderConfig()
	want := []Mechanism{Microreset, Microreboot, PrivVMRestart}
	if len(cfg.Escalation.Ladder) != len(want) {
		t.Fatalf("ladder = %v", cfg.Escalation.Ladder)
	}
	for i, m := range want {
		if cfg.Escalation.Ladder[i] != m {
			t.Fatalf("rung %d = %v, want %v", i, cfg.Escalation.Ladder[i], m)
		}
	}
	if !cfg.Escalation.Audit {
		t.Fatal("full ladder must audit (the matrix reports audit verdicts)")
	}
	if cfg.MaxAttempts() != 3 {
		t.Fatalf("MaxAttempts = %d", cfg.MaxAttempts())
	}
	if PrivVMRestart.String() != "PrivVM-Restart" {
		t.Fatalf("mechanism name %q", PrivVMRestart.String())
	}
	if PrivVMRestart.Reboots() {
		t.Fatal("PrivVM restart must not count as a hypervisor reboot")
	}
}
