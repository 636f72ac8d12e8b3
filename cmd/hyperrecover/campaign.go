package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/inject"
)

// paperRuns are the paper's campaign sizes per fault type (§VI-C).
var paperRuns = map[inject.FaultType]int{inject.Failstop: 1000, inject.Register: 5000, inject.Code: 2000}

const campaignHelp = `hyperrecover campaign runs fault-injection campaigns and
reports successful-recovery rates (Figure 2) and injection-outcome
breakdowns (§VII-A).

Examples:

	hyperrecover campaign -mechanism nilihype -fault register -runs 700
	hyperrecover campaign -mechanism rehype -fault code -runs 400
	hyperrecover campaign -all -runs 300          # full Figure 2 grid
	hyperrecover campaign -all -paper             # paper-scale campaign sizes
	hyperrecover campaign -runs 2000 -parallel 8  # 8 concurrent runs
`

func campaignCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{mechanism: "nilihype", fault: "failstop", setup: "3appvm", workload: "unixbench",
		runs: 300, duration: 3 * time.Second, logging: true}).
		register(fs, "mechanism", "fault", "setup", "workload", "runs", "duration", "logging", "paper", "parallel", "repair-cpus")
	var (
		hvm    = fs.Bool("hvm", false, "run AppVMs under full hardware virtualization (§VI-A)")
		all    = fs.Bool("all", false, "run the full Figure 2 grid (both mechanisms, all fault types)")
		matrix = fs.Bool("fault-matrix", false, "run the E12 per-fault-class recovery matrix (all classes × hybrid vs full ladder)")
	)

	return func(stdout, _ io.Writer) error {
		tmpl, err := rf.campaign()
		if err != nil {
			return err
		}
		tmpl.Base.HVM = *hvm
		if rf.paper {
			tmpl.Base.BenchDuration = 24 * time.Second
		}
		if *matrix {
			printFaultMatrix(stdout, tmpl)
			return nil
		}

		// The Figure 2 grid sets each row's mechanism as the one-shot
		// config's only rung; a ladder preset has no such rung to set.
		if *all && len(tmpl.Base.Recovery.Escalation.Ladder) > 0 {
			return fmt.Errorf("-all runs the one-shot mechanisms of Figure 2, not the ladder preset %q", rf.mechanism)
		}
		execOne := func(m core.Mechanism, ft inject.FaultType) {
			c := tmpl
			c.Base.Fault, c.Base.Recovery.Mechanism = ft, m
			if n, ok := paperRuns[ft]; ok && rf.paper {
				c.Runs = n
			}
			fmt.Fprint(stdout, c.Execute().Format())
			fmt.Fprintln(stdout)
		}

		if *all {
			for _, m := range []core.Mechanism{core.Microreset, core.Microreboot} {
				for _, ft := range paperFaults {
					execOne(m, ft)
				}
			}
			return nil
		}
		execOne(tmpl.Base.Recovery.Mechanism, tmpl.Base.Fault)
		return nil
	}
}

// faultMatrix runs tmpl for every fault class under every ladder preset —
// the E12 matrix — handing each cell's summary to cell, fault-major.
func faultMatrix(tmpl campaign.Campaign, cell func(ladder string, ft inject.FaultType, s campaign.Summary)) {
	for _, ft := range allFaults {
		for _, lad := range core.LadderPresets {
			c := tmpl
			c.Base.Fault, c.Base.Recovery = ft, lad.Config()
			cell(lad.Name, ft, c.Execute())
		}
	}
}

// isPrivVMFault picks the classes the full ladder's extra rung exists for:
// it must recover strictly more of them than the hybrid does (E12).
func isPrivVMFault(ft inject.FaultType) bool {
	return ft == inject.PrivVMCrash || ft == inject.PrivVMHang
}

// printFaultMatrix prints one matrix row per class×ladder cell plus the
// PrivVM-fault comparison.
func printFaultMatrix(w io.Writer, tmpl campaign.Campaign) {
	fmt.Fprintf(w, "== per-fault-class recovery matrix (n=%d per cell) ==\n", tmpl.Runs)
	fmt.Fprintf(w, "%-14s %-12s %-9s %-9s %-16s %-14s %s\n",
		"class", "ladder", "detected", "success", "rate", "mean-latency", "audit r/d/e")
	priv := map[string]int{}
	faultMatrix(tmpl, func(ladder string, ft inject.FaultType, s campaign.Summary) {
		for class, fc := range s.FaultClasses {
			rate, ci := fc.SuccessRate()
			fmt.Fprintf(w, "%-14s %-12s %-9d %-9d %5.1f%% ±%5.1f%%   %-14v %d/%d/%d\n",
				class, ladder, fc.Detected, fc.Success, 100*rate, 100*ci,
				fc.MeanSuccessLatency().Round(10*time.Microsecond),
				fc.AuditRepaired, fc.AuditDegraded, fc.AuditEscalate)
			if isPrivVMFault(ft) {
				priv[ladder] += fc.Success
			}
		}
	})
	fmt.Fprintf(w, "\nPrivVM faults recovered: hybrid=%d full-ladder=%d", priv["hybrid"], priv["full-ladder"])
	if gain := priv["full-ladder"] - priv["hybrid"]; gain > 0 {
		fmt.Fprintf(w, " (PrivVM-restart rung recovers %d more)\n", gain)
	} else {
		fmt.Fprintln(w, " (no gain from PrivVM-restart rung at this n)")
	}
}
