package hv

import (
	"testing"
	"time"
)

func TestResumeKeepsDeferredWorkAcrossRePause(t *testing.T) {
	// A deferred closure that re-pauses the hypervisor (an escalated
	// recovery attempt starting mid-resume) must leave later closures
	// queued for the next resume rather than dropping them.
	h, _ := newBooted(t)
	var order []string
	h.Pause()
	h.WhenRunnable(func() {
		order = append(order, "first")
		h.Pause()
	})
	h.WhenRunnable(func() { order = append(order, "second") })
	h.ResumeRunnable()
	if len(order) != 1 || order[0] != "first" {
		t.Fatalf("after re-pause ran %v, want [first]", order)
	}
	if !h.Paused() {
		t.Fatal("re-pause inside deferred work did not stick")
	}
	h.ResumeRunnable()
	if len(order) != 2 || order[1] != "second" {
		t.Fatalf("second resume ran %v, want [first second]", order)
	}
}

func TestResumeStopsDeferredWorkOnFailure(t *testing.T) {
	h, _ := newBooted(t)
	var order []string
	h.Pause()
	h.WhenRunnable(func() {
		order = append(order, "first")
		h.MarkFailed(CauseOther, "mid-resume fault")
	})
	h.WhenRunnable(func() { order = append(order, "second") })
	h.ResumeRunnable()
	if len(order) != 1 {
		t.Fatalf("deferred work ran past a failure: %v", order)
	}
	// An escalating engine clears the mark; the queued work survives for
	// the next attempt's resume.
	h.ClearFailed()
	h.ResumeRunnable()
	if len(order) != 2 {
		t.Fatalf("queued work lost across ClearFailed: %v", order)
	}
}

func TestClearFailedRevivesSimulation(t *testing.T) {
	h, clk := newBooted(t)
	before := h.Stats.TimerIRQs
	h.MarkFailed(CauseOther, "attempt failed")
	clk.RunUntil(clk.Now() + 50*time.Millisecond)
	if h.Stats.TimerIRQs != before {
		t.Fatal("clock advanced events while failed")
	}
	h.ClearFailed()
	if failed, reason := h.Failed(); failed || reason != "" {
		t.Fatalf("still failed: %q", reason)
	}
	clk.RunUntil(clk.Now() + 50*time.Millisecond)
	if h.Stats.TimerIRQs <= before {
		t.Fatal("no timer activity after ClearFailed")
	}
}
