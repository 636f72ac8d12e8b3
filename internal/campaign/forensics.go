package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nilihype/internal/hv"
	"nilihype/internal/journal"
	"nilihype/internal/traffic"
)

// Root-cause classes. Each wrong run (failed, escalated, or degraded)
// gets exactly one, from the failure cause the engine recorded and the
// run's outcome fields — the buckets §VII-A's failure-cause discussion
// enumerates, plus the broadened fault surface's additions.
const (
	// RootCausePathCorrupted: the corrupted state prevented the recovery
	// routine from being invoked at all (failure cause 1 of §VII-A).
	RootCausePathCorrupted = "recovery-path-corrupted"
	// RootCauseReusedHeapObject: microreset reused a corrupted live heap
	// object (failure cause 2).
	RootCauseReusedHeapObject = "reused-heap-object"
	// RootCauseStaticStateReuse: microreset reused corrupted state that a
	// reboot rung would have rebuilt: static scratch variables, the heap
	// free list, or the domain list.
	RootCauseStaticStateReuse = "static-state-reuse"
	// RootCausePFDescriptorHang: the post-recovery mm path hit
	// inconsistent page frame descriptors and hung (§VII-B).
	RootCausePFDescriptorHang = "pf-descriptor-hang"
	// RootCausePrivVMLost: Dom0 was lost and could not be brought back
	// (the PrivVM-Restart rung failed, or the ladder never reached it).
	RootCausePrivVMLost = "privvm-lost"
	// RootCauseDeviceRouteLoss: device interrupt routes diverged or a
	// pending route was lost (the IO-APIC corruption surface).
	RootCauseDeviceRouteLoss = "device-route-loss"
	// RootCausePostRecoveryHang: the system hung after resume (watchdog
	// re-detection, stuck retried calls).
	RootCausePostRecoveryHang = "post-recovery-hang"
	// RootCausePostRecoveryAssertion: a hypervisor assertion tripped
	// after resume.
	RootCausePostRecoveryAssertion = "post-recovery-assertion"
	// RootCauseWorkloadCollateral: the hypervisor recovered but too many
	// AppVMs (or the new-VM check) failed — guest-side collateral.
	RootCauseWorkloadCollateral = "workload-collateral"
	// RootCauseDegradedService: recovery held only by sacrificing AppVMs
	// (an audit degraded-service verdict).
	RootCauseDegradedService = "degraded-service"
	// RootCauseTransientEscalation: a lower rung failed but a higher one
	// recovered cleanly — transient cost, no lasting damage.
	RootCauseTransientEscalation = "transient-escalation"
	// RootCauseOtherHypervisorFailure: a terminal hypervisor failure that
	// no more specific cause names.
	RootCauseOtherHypervisorFailure = "other-hypervisor-failure"
)

// causeViews is each failure cause's row in the two failure tables: its
// §VII-A failure-cause bucket and its forensic root-cause label.
var causeViews = [...]struct{ bucket, label string }{
	hv.CausePathCorrupted:     {"recovery routine not invoked", RootCausePathCorrupted},
	hv.CausePrivVMLost:        {"post-recovery hang", RootCausePrivVMLost},
	hv.CauseReusedHeapObject:  {"corrupted data structure", RootCauseReusedHeapObject},
	hv.CauseRebuiltStateReuse: {"corrupted data structure", RootCauseStaticStateReuse},
	hv.CausePFDescriptorHang:  {"post-recovery hang", RootCausePFDescriptorHang},
	hv.CauseDeviceRoute:       {"other hypervisor failure", RootCauseDeviceRouteLoss},
	hv.CauseAssertion:         {"post-recovery assertion", RootCausePostRecoveryAssertion},
	hv.CauseHang:              {"post-recovery hang", RootCausePostRecoveryHang},
	hv.CauseOther:             {"other hypervisor failure", RootCauseOtherHypervisorFailure},
}

// classifyRootCause assigns one root-cause class to a wrong run — a run
// that failed recovery, escalated, or accepted degraded service. The
// classification is a pure function of the Result, so it is bit-identical
// however the run was computed (forked or cold, any parallelism, any
// seed-range split). Clean runs return "".
func classifyRootCause(r Result) string {
	switch {
	case !r.WentWrong():
		return ""
	case r.FailReason != "":
		// A terminal failure's cause names the mechanism that ended the run.
		return causeViews[r.Cause].label
	// No terminal failure: the run ended recovered but still wrong, and
	// r.Cause is its first failed attempt's. Hypervisor-state causes beat
	// workload-collateral ones.
	case r.PrivVMFailed:
		return RootCausePrivVMLost
	case r.Cause == hv.CauseDeviceRoute:
		return RootCauseDeviceRouteLoss
	case !r.Success:
		return RootCauseWorkloadCollateral
	case len(r.SacrificedVMs) > 0:
		return RootCauseDegradedService
	case r.Cause != hv.CauseNone && r.Cause != hv.CauseOther:
		// Escalated and clean: the first attempt failure's own cause.
		return causeViews[r.Cause].label
	}
	return RootCauseTransientEscalation
}

// Bundle is one wrong run's post-mortem record: everything the forensics
// tooling needs to reconstruct the failure, detached from the executor's
// recycled scratch.
type Bundle struct {
	Seed       uint64          `json:"seed"`
	FaultClass string          `json:"fault_class"`
	Outcome    string          `json:"outcome"`
	RootCause  string          `json:"root_cause"`
	FailReason string          `json:"fail_reason,omitempty"`
	Attempts   int             `json:"attempts"`
	Journal    []journal.Entry `json:"journal,omitempty"`
	// Corruptions are the injector's damaged structural cells; Windows
	// the user-visible outage windows; Flight the raw flight-recorder
	// tail.
	Corruptions []string      `json:"corruptions,omitempty"`
	Windows     []WindowJSON  `json:"windows,omitempty"`
	Flight      []string      `json:"flight,omitempty"`
	Sacrificed  []int         `json:"sacrificed,omitempty"`
	SLO         *traffic.SLO  `json:"slo,omitempty"`
	Latency     time.Duration `json:"latency_ns,omitempty"`
}

// WindowJSON is a core.Window in exportable form.
type WindowJSON struct {
	Mechanism string        `json:"mechanism"`
	Start     time.Duration `json:"start_ns"`
	End       time.Duration `json:"end_ns,omitempty"`
}

// AssembleBundle builds a wrong run's post-mortem bundle. The Result is
// deep-copied, so the bundle stays valid after the executor recycles the
// run's scratch. Returns ok=false for clean runs (nothing to bundle).
func AssembleBundle(r Result) (Bundle, bool) {
	if r.RootCause == "" {
		return Bundle{}, false
	}
	r = r.Clone()
	b := Bundle{
		Seed:        r.Seed,
		FaultClass:  r.FaultClass,
		Outcome:     r.Outcome.String(),
		RootCause:   r.RootCause,
		FailReason:  r.FailReason,
		Attempts:    r.Attempts,
		Journal:     r.Journal,
		Corruptions: r.Corruptions,
		Flight:      r.Flight,
		Sacrificed:  r.SacrificedVMs,
		SLO:         r.SLO,
		Latency:     r.Latency,
	}
	for _, w := range r.Windows {
		b.Windows = append(b.Windows, WindowJSON{
			Mechanism: w.Mechanism.String(), Start: w.Start, End: w.End,
		})
	}
	return b, true
}

// Format renders the bundle as a human-readable post-mortem block.
func (b Bundle) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d  class=%s  outcome=%s  attempts=%d\n",
		b.Seed, b.FaultClass, b.Outcome, b.Attempts)
	fmt.Fprintf(&sb, "root cause: %s\n", b.RootCause)
	if b.FailReason != "" {
		fmt.Fprintf(&sb, "fail reason: %s\n", b.FailReason)
	}
	if len(b.Corruptions) > 0 {
		fmt.Fprintf(&sb, "corrupted cells: %s\n", strings.Join(b.Corruptions, ", "))
	}
	if len(b.Sacrificed) > 0 {
		fmt.Fprintf(&sb, "sacrificed AppVMs: %v\n", b.Sacrificed)
	}
	for _, w := range b.Windows {
		if w.End > 0 {
			fmt.Fprintf(&sb, "outage window: %s  %.3fms → %.3fms (%.3fms)\n", w.Mechanism,
				float64(w.Start)/1e6, float64(w.End)/1e6, float64(w.End-w.Start)/1e6)
		} else {
			fmt.Fprintf(&sb, "outage window: %s  %.3fms → never resumed\n", w.Mechanism,
				float64(w.Start)/1e6)
		}
	}
	if b.SLO != nil {
		fmt.Fprintf(&sb, "SLO: offered=%d completed=%d timed-out=%d degraded-user-sec=%.1f\n",
			b.SLO.Offered, b.SLO.Completed, b.SLO.TimedOut, float64(b.SLO.DegradedUserUs)/1e6)
	}
	if len(b.Journal) > 0 {
		sb.WriteString("journal:\n")
		for _, e := range b.Journal {
			sb.WriteString("  " + e.String() + "\n")
		}
	}
	if len(b.Flight) > 0 {
		sb.WriteString("flight tail:\n")
		for _, l := range b.Flight {
			sb.WriteString("  " + l + "\n")
		}
	}
	return sb.String()
}

// FormatRootCauseMatrix renders the summary's per-fault-class root-cause
// breakdown as an aligned matrix, classes and causes sorted.
func (s *Summary) FormatRootCauseMatrix() string {
	if len(s.RootCauses) == 0 {
		return "no wrong runs: no root causes to report\n"
	}
	causes := make([]string, 0, len(s.RootCauses))
	for c := range s.RootCauses {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	classes := make([]string, 0, len(s.FaultClasses))
	for name, fc := range s.FaultClasses {
		if len(fc.RootCauses) > 0 {
			classes = append(classes, name)
		}
	}
	sort.Strings(classes)

	var sb strings.Builder
	w := 0
	for _, c := range causes {
		if len(c) > w {
			w = len(c)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %6s", w, "root cause", "total")
	for _, cl := range classes {
		fmt.Fprintf(&sb, "  %*s", max(len(cl), 5), cl)
	}
	sb.WriteString("\n")
	for _, c := range causes {
		fmt.Fprintf(&sb, "%-*s  %6d", w, c, s.RootCauses[c])
		for _, cl := range classes {
			fmt.Fprintf(&sb, "  %*d", max(len(cl), 5), s.FaultClasses[cl].RootCauses[c])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
