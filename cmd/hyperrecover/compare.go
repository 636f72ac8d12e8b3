package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/report"
)

// The comparison experiments: several recovery configurations face the
// same seeds, one table row each.

const hybridHelp = `hyperrecover hybrid runs the escalating-recovery experiment:
NiLiHype (microreset only), ReHype (microreboot only) and the Hybrid
ladder (microreset, escalate to microreboot on re-detection within the
grace window) face the same mixed-fault seed set, and the tool reports
each configuration's recovery rate, mean successful-recovery latency and
success-by-attempt histogram.

The headline: the hybrid matches ReHype's recovery rate while keeping
mean latency near NiLiHype's, because most recoveries still succeed on
the first microreset attempt — escalation pays the reboot latency only
for the rare corruptions (static scratch, heap free list, domain list)
that an in-place microreset cannot survive.

Examples:

	hyperrecover hybrid                         # 300 runs per mechanism
	hyperrecover hybrid -runs-per-fault 200     # 600 runs per mechanism
	hyperrecover hybrid -grace 250ms -format markdown
`

func hybridCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{setup: "3appvm", runs: 100, duration: 3 * time.Second, memory: 8192, format: "text"}).
		register(fs, "runs-per-fault", "duration", "memory", "parallel", "seed-base", "format")
	grace := core.DefaultGraceWindow
	durVar(fs, &grace, "grace", 0, time.Hour, "hybrid post-recovery grace window for re-detection")

	return func(stdout, _ io.Writer) error {
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		tmpl, err := rf.campaign()
		if err != nil {
			return err
		}
		hybrid := core.HybridConfig()
		hybrid.Escalation.GraceWindow = grace
		configs := []struct {
			name string
			rec  core.Config
		}{
			{"NiLiHype", core.DefaultConfig()},
			{"ReHype", oneShot(core.Microreboot)},
			{"Hybrid", hybrid},
		}

		table := report.NewTable(
			fmt.Sprintf("Escalating recovery: mixed faults (%d runs each: Failstop/Register/Code), 3AppVM, %d MB",
				3*rf.runs, rf.memory),
			"Config", "Detected", "Successful recovery", "Mean latency", "Escalated", "Success by attempt")
		summaries := make([]campaign.Summary, len(configs))
		for i, cfg := range configs {
			tmpl.Base.Recovery = cfg.rec
			s := campaign.MixedFaultCampaign(tmpl, paperFaults)
			summaries[i] = s
			rate, ci := s.SuccessRate()
			table.AddRow(cfg.name,
				fmt.Sprintf("%d", s.DetectedCount),
				report.PctCI(rate, ci),
				report.Dur(s.MeanSuccessLatency()),
				fmt.Sprintf("%d", s.EscalatedRuns),
				histogram(s.SuccessByAttempt))
		}
		fmt.Fprint(stdout, table.Render(format))

		nili, rehype, hyb := summaries[0], summaries[1], summaries[2]
		hr, hci := hyb.SuccessRate()
		nr, _ := nili.SuccessRate()
		rr, _ := rehype.SuccessRate()
		fmt.Fprintf(stdout, "\nHybrid recovery rate %s vs NiLiHype %s and ReHype %s",
			report.Pct(hr), report.Pct(nr), report.Pct(rr))
		if hr+hci >= nr && hr+hci >= rr {
			fmt.Fprintf(stdout, " — matches the best single mechanism (within the 95%% CI).\n")
		} else {
			fmt.Fprintf(stdout, " — BELOW a single mechanism beyond the 95%% CI.\n")
		}
		fmt.Fprintf(stdout, "Hybrid mean successful-recovery latency %s vs NiLiHype %s (%.1fx) and ReHype %s (%.2fx)\n",
			report.Dur(hyb.MeanSuccessLatency()), report.Dur(nili.MeanSuccessLatency()),
			ratio(hyb.MeanSuccessLatency(), nili.MeanSuccessLatency()),
			report.Dur(rehype.MeanSuccessLatency()),
			ratio(hyb.MeanSuccessLatency(), rehype.MeanSuccessLatency()))
		return nil
	}
}

// histogram renders a SuccessByAttempt map as "1:131 2:1".
func histogram(m map[int]int) string {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, m[k]))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

const auditHelp = `hyperrecover audit runs the state-audit experiment: the hybrid
escalation ladder with and without the post-recovery invariant audit
(internal/audit) faces the same mixed-fault seed set, under three
adversarial injection profiles:

  - single: one fault per run (the paper's §VI-C model)
  - burst: a second fault is armed within a short window after the first
    fires, so corruption can land while the first fault is still latent
    or during the recovery the first fault triggers
  - during-recovery: an extra fault trigger is armed at the moment
    recovery pauses the system, so corruption lands while recovery's
    own repairs run

For each profile the tool reports both configurations' recovery rates,
the audit's repair/sacrifice totals, and how often the adversarial
triggers actually fired. The headline: the audit never lowers the
recovery rate and buys back runs whose residual structural damage the
ladder's fixed enhancement set misses.

Examples:

	hyperrecover audit                          # 100 runs per fault type
	hyperrecover audit -runs-per-fault 200 -burst 50ms
	hyperrecover audit -format markdown
`

func auditCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{setup: "3appvm", runs: 100, duration: 3 * time.Second, memory: 1024, format: "text"}).
		register(fs, "runs-per-fault", "duration", "memory", "parallel", "format")
	burst := 100 * time.Millisecond
	durVar(fs, &burst, "burst", 0, time.Hour, "burst-profile window for the second fault")

	return func(stdout, _ io.Writer) error {
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		tmpl, err := rf.campaign()
		if err != nil {
			return err
		}
		profiles := []struct {
			name   string
			mutate func(*campaign.RunConfig)
		}{
			{"single", func(rc *campaign.RunConfig) {}},
			{"burst", func(rc *campaign.RunConfig) { rc.BurstWindow = burst }},
			{"during-recovery", func(rc *campaign.RunConfig) { rc.FaultDuringRecovery = true }},
		}

		table := report.NewTable(
			fmt.Sprintf("State audit: hybrid ladder ± audit, mixed faults (%d runs each: Failstop/Register/Code), 3AppVM, %d MB",
				3*rf.runs, rf.memory),
			"Profile", "Audit", "Detected", "Successful recovery", "Violations", "Repaired", "Sacrificed", "Burst", "During-rec")

		// rates[profile][0] = audit off, [1] = audit on.
		rates := make([][2]float64, len(profiles))
		for i, p := range profiles {
			for on, label := range []string{"off", "on"} {
				c := tmpl
				c.Base.Recovery = core.HybridConfig()
				c.Base.Recovery.Escalation.Audit = on == 1
				p.mutate(&c.Base)
				s := campaign.MixedFaultCampaign(c, paperFaults)
				rate, ci := s.SuccessRate()
				rates[i][on] = rate
				table.AddRow(p.name, label,
					fmt.Sprintf("%d", s.DetectedCount),
					report.PctCI(rate, ci),
					fmt.Sprintf("%d", s.AuditViolations),
					fmt.Sprintf("%d", s.AuditRepaired),
					fmt.Sprintf("%d", s.SacrificedVMs),
					fmt.Sprintf("%d", s.BurstFiredRuns),
					fmt.Sprintf("%d", s.DuringRecoveryFiredRuns))
			}
		}
		fmt.Fprint(stdout, table.Render(format))

		fmt.Fprintln(stdout)
		for i, p := range profiles {
			off, on := rates[i][0], rates[i][1]
			verdict := "audit-on >= audit-off"
			if on < off {
				verdict = "audit-on BELOW audit-off"
			}
			fmt.Fprintf(stdout, "%-16s audit-on %s vs audit-off %s — %s\n",
				p.name+":", report.Pct(on), report.Pct(off), verdict)
		}
		return nil
	}
}

const sloHelp = `hyperrecover slo scores recovery mechanisms by user-visible
damage instead of recovery latency: an open-loop population of users
(default one million) issues requests against the simulated system
while faults are injected and recovered, and each mechanism is charged
the user-seconds of degradation, timed-out requests, and degraded
1-second intervals its detect→pause→repair→resume window caused.

Examples:

	hyperrecover slo                               # 1M users, 100 runs/mechanism
	hyperrecover slo -users 250000 -runs 300
	hyperrecover slo -fault register -timeout 300ms
	hyperrecover slo -mechanisms nilihype,rehype
`

func sloCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{users: 1_000_000, runs: 100, duration: 3 * time.Second, fault: "failstop",
		setup: "3appvm", workload: "unixbench", logging: true}).
		register(fs, "users", "runs", "duration", "fault", "setup", "parallel")
	timeout, period := 500*time.Millisecond, time.Second
	durVar(fs, &timeout, "timeout", 0, time.Hour, "per-request deadline (0 = traffic default)")
	durVar(fs, &period, "period", 0, time.Hour, "per-user request period (0 = traffic default)")
	mechList := fs.String("mechanisms", "nilihype,rehype,full-ladder",
		"comma-separated mechanisms to compare: nilihype | rehype | checkpoint | privvm-restart | hybrid | full-ladder")

	return func(stdout, _ io.Writer) error {
		c, err := rf.campaign()
		if err != nil {
			return err
		}
		c.Base.Traffic.Timeout, c.Base.Traffic.Period = timeout, period
		// Resolve the whole list before printing anything.
		var names []string
		var cfgs []core.Config
		for _, name := range strings.Split(*mechList, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			cfg, err := core.ParseConfig(name)
			if err != nil {
				return err
			}
			names, cfgs = append(names, strings.ToLower(name)), append(cfgs, cfg)
		}
		if len(cfgs) == 0 {
			return fmt.Errorf("empty mechanism list")
		}

		fmt.Fprintf(stdout, "== user-visible SLO under recovery: fault=%s users=%d runs=%d/mechanism duration=%v deadline=%v ==\n",
			rf.fault, rf.users, rf.runs, rf.duration, timeout)
		fmt.Fprintf(stdout, "%-14s %-9s %-13s %-12s %-13s %-11s %-10s %-10s %s\n",
			"mechanism", "success", "mean-recovery", "outage/run", "user-sec/run",
			"timed-out", "p99-lat", "degr-ivl", "worst-goodput")
		for i, cfg := range cfgs {
			c.Base.Recovery = cfg
			printSLORow(stdout, names[i], c.Execute())
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "outage/run and user-sec/run are means over scored runs; user-sec is outage × users.")
		fmt.Fprintln(stdout, "degr-ivl counts 1s intervals that lost >10% of offered requests; worst-goodput is the worst interval's completed/offered.")
		return nil
	}
}

// printSLORow renders one mechanism's aggregate SLO as a comparison row.
func printSLORow(w io.Writer, name string, s campaign.Summary) {
	if s.SLORuns == 0 {
		fmt.Fprintf(w, "%-14s no scored runs (%d detected, %d recovered)\n",
			name, s.DetectedCount, s.RecoverySuccess)
		return
	}
	n := uint64(s.SLORuns)
	slo := s.SLO
	outagePerRun := time.Duration(slo.OutageUs/n) * time.Microsecond
	fmt.Fprintf(w, "%-14s %-9s %-13v %-12v %-13.1f %-11s %-10v %-10s %d‰\n",
		name,
		fmt.Sprintf("%d/%d", s.RecoverySuccess, s.DetectedCount),
		s.MeanSuccessLatency().Round(10*time.Microsecond),
		outagePerRun.Round(10*time.Microsecond),
		slo.DegradedUserSeconds()/float64(n),
		fmt.Sprintf("%d/%d", slo.Lost(), slo.Offered),
		time.Duration(slo.Latency.Quantile(0.99))*time.Microsecond,
		fmt.Sprintf("%d/%d", slo.DegradedIntervals, slo.Intervals),
		slo.WorstIntervalPermille,
	)
}
