package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/health"
	"nilihype/internal/inject"
	"nilihype/internal/report"
	"nilihype/internal/traffic"
)

const reportHelp = `hyperrecover report regenerates the full evaluation in one run:
the Table I enhancement ladder, the Figure 2 recovery-rate grid with the
§VII-A outcome breakdowns, and the Figure 3 overhead table — the numbers
recorded in EXPERIMENTS.md. Expect several CPU-minutes.

With -format json it instead emits the machine-readable fault-class ×
ladder recovery matrix (per-class stats, root causes, health trajectory)
plus the aggregated end-user SLO block, sized by -runs.
`

func reportCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{setup: "3appvm", workload: "unixbench", logging: true, duration: 2 * time.Second,
		format: "text", runs: 100, users: 100_000}).
		register(fs, "format", "runs", "users")

	return func(stdout, _ io.Writer) error {
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		c, err := rf.campaign()
		if err != nil {
			return err
		}
		if format == report.JSON {
			return jsonReport(stdout, c)
		}
		c.Base.Traffic.Users = 0 // -users sizes the JSON report's SLO block only
		textReport(stdout, c)
		return nil
	}
}

// ladderJSON is one escalation ladder's row of the JSON report.
type ladderJSON struct {
	Runs         int                                  `json:"runs"`
	FaultClasses map[string]*campaign.FaultClassStats `json:"fault_classes"`
	RootCauses   map[string]int                       `json:"root_causes,omitempty"`
	SLORuns      int                                  `json:"slo_runs,omitempty"`
	SLO          *traffic.SLO                         `json:"slo,omitempty"`
	Health       health.Report                        `json:"health"`
}

// jsonReport runs the fault-class × ladder matrix with the end-user
// traffic engine armed and emits the per-class recovery stats, the
// forensic root-cause breakdown, the replayed host-health trajectory, and
// the aggregate SLO block as one JSON document.
func jsonReport(w io.Writer, tmpl campaign.Campaign) error {
	sums := map[string]*campaign.Summary{}
	faultMatrix(tmpl, func(ladder string, _ inject.FaultType, s campaign.Summary) {
		if sums[ladder] == nil {
			sums[ladder] = &s
		} else {
			sums[ladder].Merge(s)
		}
	})
	out := map[string]*ladderJSON{}
	for ladder, sum := range sums {
		row := &ladderJSON{
			Runs:         sum.Runs,
			FaultClasses: sum.FaultClasses,
			RootCauses:   sum.RootCauses,
			SLORuns:      sum.SLORuns,
			Health:       sum.HealthReport(health.Config{}),
		}
		if sum.SLORuns > 0 {
			row.SLO = &sum.SLO
		}
		out[ladder] = row
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// textReport regenerates the evaluation at the sizes EXPERIMENTS.md
// records. tmpl carries the 3AppVM/2 s/logging-on base every section but
// Figure 2 (3 s) starts from.
func textReport(w io.Writer, tmpl campaign.Campaign) {
	start := time.Now()
	fmt.Fprintln(w, "== Table I ladder (1AppVM failstop, n=500) ==")
	c := tmpl
	c.Base.Setup, c.Base.Fault, c.Runs = campaign.OneAppVM, inject.Failstop, 500
	tableI(c, func(label string, rate, ci float64) {
		fmt.Fprintf(w, "%-52s %5.1f%% ± %4.1f%%\n", label, 100*rate, 100*ci)
	})

	fmt.Fprintln(w, "\n== Figure 2 (3AppVM, n: fs=400 reg=1500 code=700) ==")
	fig2 := report.NewBarChart("successful recovery rate (%)")
	fig2.Max = 100
	c = tmpl
	c.Base.BenchDuration = 3 * time.Second
	for _, mech := range []core.Mechanism{core.Microreset, core.Microreboot} {
		for i, ft := range paperFaults {
			c.Base.Fault, c.Base.Recovery, c.Runs = ft, oneShot(mech), []int{400, 1500, 700}[i]
			s := c.Execute()
			rate, ci := s.SuccessRate()
			nrate, _ := s.NoVMFRate()
			nm, sdc, det := s.OutcomeRates()
			fmt.Fprintf(w, "%-9s %-9s success %5.1f%%±%4.1f%% noVMF %5.1f%% | nm=%4.1f%% sdc=%4.1f%% det=%4.1f%% (detected n=%d)\n",
				mech, ft, 100*rate, 100*ci, 100*nrate, 100*nm, 100*sdc, 100*det, s.DetectedCount)
			fig2.AddBar(fmt.Sprintf("%v/%v", mech, ft), 100*rate,
				fmt.Sprintf("± %.1f (noVMF %.1f)", 100*ci, 100*nrate))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, fig2.Render())

	fmt.Fprintln(w, "\n== Figure 3 overhead ==")
	fig3 := report.NewBarChart("hypervisor processing overhead (%)")
	for _, p := range overheadPoints(2*time.Second, 1) {
		fig3.AddBar(p.Config.String(), p.WithLogging(),
			fmt.Sprintf("(NiLiHype* %.1f)", p.WithoutLogging()))
	}
	fmt.Fprint(w, fig3.Render())

	fmt.Fprintln(w, "\n== Recovery domains (3AppVM failstop microreset + audit, n=200) ==")
	domains := func(repairCPUs int) campaign.Summary {
		c := tmpl
		c.Base.Fault, c.Base.Recovery, c.Runs = inject.Failstop, oneShot(core.Microreset), 200
		c.Base.Recovery.Escalation.Audit = true
		c.Base.Recovery.RepairCPUs = repairCPUs
		return c.Execute()
	}
	serial, parallel := domains(0), domains(campaign.MachineCPUs)
	sm, pm := serial.MeanSuccessLatency(), parallel.MeanSuccessLatency()
	fmt.Fprintf(w, "serial repair:   mean recovery latency %v (n=%d successful)\n",
		sm.Round(10*time.Microsecond), serial.RecoverySuccess)
	fmt.Fprintf(w, "%d-CPU domains:  mean recovery latency %v (n=%d successful), %.1f%% lower\n",
		campaign.MachineCPUs, pm.Round(10*time.Microsecond), parallel.RecoverySuccess,
		100*(1-float64(pm)/float64(sm)))
	fmt.Fprintf(w, "parallel accounting: %d run(s) over up to %d domains; serialized %v vs parallel %v charged\n",
		parallel.ParallelRepairRuns, parallel.RepairDomains,
		parallel.SerialRepairLatency.Round(time.Millisecond),
		parallel.ParallelRepairLatency.Round(time.Millisecond))

	fmt.Fprintln(w, "\n== E12 fault-class × ladder recovery matrix (3AppVM, n=100/cell) ==")
	c = tmpl
	c.Runs = 100
	priv := map[string]int{}
	faultMatrix(c, func(ladder string, ft inject.FaultType, s campaign.Summary) {
		for class, fc := range s.FaultClasses {
			rate, ci := fc.SuccessRate()
			fmt.Fprintf(w, "%-12s %-12s detected=%-4d success %5.1f%%±%4.1f%%  mean-latency %-12v audit r/d/e %d/%d/%d\n",
				class, ladder, fc.Detected, 100*rate, 100*ci,
				fc.MeanSuccessLatency().Round(10*time.Microsecond),
				fc.AuditRepaired, fc.AuditDegraded, fc.AuditEscalate)
			if isPrivVMFault(ft) {
				priv[ladder] += fc.Success
			}
		}
	})
	fmt.Fprintf(w, "PrivVM-fault recoveries: hybrid=%d, full-ladder=%d (restart rung gains %d)\n",
		priv["hybrid"], priv["full-ladder"], priv["full-ladder"]-priv["hybrid"])

	fmt.Fprintln(w, "\nelapsed:", time.Since(start))
}
