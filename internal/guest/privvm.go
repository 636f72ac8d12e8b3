package guest

import (
	"time"

	"nilihype/internal/hypercall"
)

// StartPrivVM begins the PrivVM's background management activity: light
// periodic housekeeping hypercalls from Dom0 (vCPU state polls, occasional
// console output). The PrivVM's vCPU is pinned to CPU 0 (§VI-A).
func (w *World) StartPrivVM() {
	w.schedulePrivTick()
}

const privTickPeriod = 5 * time.Millisecond

func (w *World) schedulePrivTick() {
	w.privTickLive = true
	w.H.Clock.After(privTickPeriod, "privvm-tick", w.privTickFn)
}

// privTick fires every housekeeping period (cached as w.privTickFn).
func (w *World) privTick() {
	if failed, _ := w.H.Failed(); failed {
		w.privTickLive = false
		return
	}
	w.H.WhenRunnable(w.privTickBodyFn)
}

// privTickBody is the tick's work, entered once the hypervisor is runnable
// (cached as w.privTickBodyFn).
func (w *World) privTickBody() {
	if w.privHung {
		// The PrivVM guest is hung: the management call that would have
		// been issued this period stalls forever. The tick chain dies
		// here; the management-call watchdog notices the silence.
		w.privTickLive = false
		return
	}
	d, err := w.H.Domain(0)
	if err != nil || d.Failed {
		w.privTickLive = false
		return
	}
	w.call(0, hypercall.OpVCPUOp, 0, [4]uint64{})
	if failed, _ := w.H.Failed(); failed {
		w.privTickLive = false
		return
	}
	// The console daemon drains the hypervisor ring; nothing records the
	// output, so the messages are discarded without rendering.
	w.H.Cons.Discard()
	if w.rng.IntN(20) == 0 {
		w.call(0, hypercall.OpConsoleIO, 0, [4]uint64{})
	}
	if failed, _ := w.H.Failed(); failed {
		w.privTickLive = false
		return
	}
	w.schedulePrivTick()
}

// CrashPrivVM fails Dom0 outright: the domain is gone as a management
// endpoint and every management hypercall fails fast. The PrivVM-crash
// fault class lands here.
func (w *World) CrashPrivVM(reason string) {
	if d, err := w.H.Domain(0); err == nil {
		d.Fail(reason)
	}
}

// HangPrivVM wedges the PrivVM guest: management hypercalls stall
// mid-flight (including during an in-progress recovery) without any
// hypervisor-visible structural damage. The PrivVM-hang fault class lands
// here.
func (w *World) HangPrivVM() { w.privHung = true }

// ResumePrivVM restores PrivVM management service after the PrivVM-restart
// recovery rung rebooted Dom0: the hang flag clears and the housekeeping
// tick chain re-arms if the failure killed it. The recovery engine's
// OnPrivVMRestart hook calls this — the world-level half of "reboot the
// PrivVM from its boot image".
func (w *World) ResumePrivVM() {
	w.privHung = false
	if !w.privTickLive {
		w.schedulePrivTick()
	}
}

// PrivCreateDomain issues a domctl domain-creation hypercall from the
// PrivVM — the post-recovery functionality check of the 3AppVM setup ("a
// third AppVM is created and it runs BlkBench", §VI-A). It returns false
// if the PrivVM is unable to issue the request.
func (w *World) PrivCreateDomain(spec hypercall.CreateSpec) bool {
	d, err := w.H.Domain(0)
	if err != nil || d.Failed || w.privHung {
		return false
	}
	w.H.Dispatch(0, &hypercall.Call{
		Op:     hypercall.OpDomctl,
		Dom:    0,
		Args:   [4]uint64{hypercall.DomctlCreate},
		Create: &spec,
	})
	_, err = w.H.Domain(spec.ID)
	return err == nil
}

// PrivVMFailed reports whether Dom0 has failed — one of the paper's top
// three recovery-failure causes (§VII-A). A hung PrivVM guest counts: it
// cannot provide management service even though its hypervisor-side
// structures are intact.
func (w *World) PrivVMFailed() bool {
	if w.privHung {
		return true
	}
	d, err := w.H.Domain(0)
	return err != nil || d.Failed
}
