package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/inject"
	"nilihype/internal/journal"
	"nilihype/internal/report"
)

// The forensic loop: postmortem finds and classifies the runs that went
// wrong, trace replays any one of them — same vocabulary, so a bundle's
// seed renders under the flags that produced it.

const traceHelp = `hyperrecover trace renders one fault-injection run's always-on
telemetry: the flight-recorder timeline as a Chrome trace_event JSON
document (open chrome://tracing — or https://ui.perfetto.dev — and load
the file; per-CPU lanes carry hypervisor activity, the "recovery" lane
carries the detect→pause→repair-phase→resume spans and markers), or as
a plain-text timeline followed by the end-of-run metrics registry.

Examples:

	hyperrecover trace -seed 3 -fault code -adversarial > trace.json
	hyperrecover trace -adversarial -find-failed 50 -format text
	hyperrecover trace -seed 7 -mechanism rehype -fault register > trace.json
`

func traceCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{seed: 1, fault: "code", mechanism: "nilihype", setup: "3appvm", duration: 3 * time.Second, format: "chrome"}).
		register(fs, "seed", "fault", "mechanism", "setup", "duration", "logging", "repair-cpus", "format")
	adversarial := fs.Bool("adversarial", false,
		"adversarial run: hybrid escalation ladder, audit gate, burst fault, fault-during-recovery")
	flight, findFailed := 4096, 0
	intVar(fs, &flight, "flight", 1, 1<<22, "flight recorder capacity (events retained)")
	intVar(fs, &findFailed, "find-failed", 0, maxRuns,
		"scan up to N seeds from -seed for a run that fails recovery, escalates or degrades, and render that run")

	return func(stdout, stderr io.Writer) error {
		rc, err := traceRunConfig(rf, *adversarial, flight)
		if err != nil {
			return err
		}
		format := strings.ToLower(rf.format)
		if format != "chrome" && format != "text" {
			return fmt.Errorf("unknown format %q (want chrome or text)", rf.format)
		}

		res, tel, jrn := campaign.TraceRun(rc)
		for i := 1; i < findFailed && !res.WentWrong(); i++ {
			rc.Seed++
			res, tel, jrn = campaign.TraceRun(rc)
		}
		if tel == nil {
			return fmt.Errorf("run failed to boot: %s", res.FailReason)
		}
		if findFailed > 0 && !res.WentWrong() {
			return fmt.Errorf("no failed, escalated or degraded run in %d seed(s) from %d", findFailed, rf.seed)
		}
		// The verdict goes to stderr so a redirected chrome trace stays
		// pure JSON.
		fmt.Fprintf(stderr, "seed %d: outcome=%v success=%v escalated=%v attempts=%d fail=%q root-cause=%q\n",
			res.Seed, res.Outcome, res.Success, res.Escalated, res.Attempts, res.FailReason, res.RootCause)

		if format == "chrome" {
			// The causal journal renders as its own lane alongside the raw
			// flight-recorder lanes.
			return tel.WriteChromeTraceLanes(stdout, campaign.MachineCPUs, journal.TraceLane(jrn))
		}
		if err := tel.WriteTextTimeline(stdout); err != nil {
			return err
		}
		if len(jrn) > 0 {
			fmt.Fprintln(stdout, "\nrecovery journal:")
			for _, e := range jrn {
				fmt.Fprintln(stdout, " ", e)
			}
		}
		fmt.Fprintln(stdout)
		return tel.WriteMetrics(stdout)
	}
}

// traceRunConfig maps trace's flags to the run it renders. The adversarial
// run swaps the recovery config for the hybrid ladder behind the audit
// gate and arms a burst fault and a fault during recovery.
func traceRunConfig(rf *runFlags, adversarial bool, flight int) (campaign.RunConfig, error) {
	c, err := rf.campaign()
	if err != nil {
		return campaign.RunConfig{}, err
	}
	rc := c.Base
	rc.FlightRecorderCapacity = flight
	if adversarial {
		rc.Recovery = core.HybridConfig()
		rc.Recovery.Escalation.Audit = true
		rc.Recovery = rf.withRepairCPUs(rc.Recovery)
		rc.BurstWindow = 100 * time.Millisecond
		rc.BurstFault = inject.Register
		rc.FaultDuringRecovery = true
	}
	return rc, nil
}

// postmortemJSON is the machine-readable document -format json emits.
type postmortemJSON struct {
	Runs       int                                  `json:"runs"`
	RootCauses map[string]int                       `json:"root_causes,omitempty"`
	ByClass    map[string]*campaign.FaultClassStats `json:"fault_classes,omitempty"`
	Bundles    []campaign.Bundle                    `json:"bundles,omitempty"`
}

const postmortemHelp = `hyperrecover postmortem runs a fault-injection campaign and
performs automatic failure forensics on every run whose recovery story
went wrong — failed, escalated, or degraded to keep the host alive. For
each such run it assembles a post-mortem bundle (the causal recovery
journal, the corrupted structural cells, the per-attempt outage windows,
the flight-recorder tail, the SLO damage) and classifies a root cause;
the report is the per-fault-class root-cause matrix and the N
lowest-seed bundles in full.

Examples:

	hyperrecover postmortem -fault ioapic -runs 200
	hyperrecover postmortem -fault privvm-crash -mechanism hybrid -runs 50 -bundles 2
	hyperrecover postmortem -fault failstop -runs 500 -format json > postmortem.json
`

func postmortemCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{fault: "failstop", mechanism: "microreset", setup: "3appvm", runs: 100, duration: 2 * time.Second, logging: true, format: "text"}).
		register(fs, "fault", "mechanism", "runs", "seed-base", "parallel", "users", "format")
	nBundles := 3
	intVar(fs, &nBundles, "bundles", 0, maxRuns, "post-mortem bundles to print in full (lowest seeds first)")

	return func(stdout, _ io.Writer) error {
		c, err := rf.campaign()
		if err != nil {
			return err
		}
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		if format != report.Text && format != report.JSON {
			return fmt.Errorf("format %v not supported (want text or json)", format)
		}

		// Collect every wrong run's bundle during execution (OnResult runs
		// under the campaign's mutex); trim to the N lowest seeds afterwards
		// so the selection is deterministic whatever the completion order.
		var bundles []campaign.Bundle
		c.OnResult = func(r campaign.Result) {
			if b, ok := campaign.AssembleBundle(r); ok {
				bundles = append(bundles, b)
			}
		}
		sum := c.Execute()
		sort.Slice(bundles, func(i, j int) bool { return bundles[i].Seed < bundles[j].Seed })
		bundles = bundles[:min(nBundles, len(bundles))]

		if format == report.JSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(postmortemJSON{
				Runs:       sum.Runs,
				RootCauses: sum.RootCauses,
				ByClass:    sum.FaultClasses,
				Bundles:    bundles,
			})
		}

		fmt.Fprint(stdout, sum.Format())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sum.FormatRootCauseMatrix())
		for i := range bundles {
			fmt.Fprintf(stdout, "\n== post-mortem %d/%d ==\n", i+1, len(bundles))
			fmt.Fprint(stdout, bundles[i].Format())
		}
		return nil
	}
}
