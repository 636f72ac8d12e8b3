package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/cloc"
	"nilihype/internal/core"
	"nilihype/internal/report"
)

// The paper's own tables and figures, one subcommand each.

// tableI runs tmpl once per enhancement-ladder rung (Table I: 1AppVM,
// fail-stop faults, microreset), handing each rung's recovery rate to row.
func tableI(tmpl campaign.Campaign, row func(label string, rate, ci float64)) {
	for _, rung := range core.Ladder() {
		tmpl.Base.Recovery = core.Config{Mechanism: core.Microreset, Enhancements: rung.Enh}
		rate, ci := tmpl.Execute().SuccessRate()
		row(rung.Label, rate, ci)
	}
}

const ladderHelp = `hyperrecover ladder reproduces Table I: the incremental
development of the NiLiHype enhancements, measured as the successful
recovery rate with fail-stop faults in the 1AppVM setup.
`

func ladderCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{setup: "1appvm", fault: "failstop", workload: "unixbench", logging: true,
		runs: 400, duration: 2 * time.Second}).
		register(fs, "runs", "duration", "paper", "parallel")

	return func(stdout, _ io.Writer) error {
		c, err := rf.campaign()
		if err != nil {
			return err
		}
		if rf.paper {
			c.Base.BenchDuration = 10 * time.Second
		}
		fmt.Fprintln(stdout, "Table I — NiLiHype enhancement ladder (1AppVM, fail-stop faults)")
		fmt.Fprintf(stdout, "%-52s %s\n", "Mechanism", "Successful Recovery Rate")
		tableI(c, func(label string, rate, ci float64) {
			fmt.Fprintf(stdout, "%-52s %5.1f%% ± %.1f%%\n", label, 100*rate, 100*ci)
		})
		return nil
	}
}

const latencyHelp = `hyperrecover latency reproduces the recovery-latency
experiments: Table II (ReHype breakdown), Table III (NiLiHype
breakdown), the sender-observed service interruption of §VII-B, and the
memory-size sweep demonstrating the page-frame-scan scaling.
`

func latencyCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{mechanism: "both", memory: 8192, seed: 3, format: "text"}).
		register(fs, "mechanism", "memory", "seed", "format")
	sweep := fs.Bool("sweep", false, "sweep memory sizes 2-64 GB (page-frame-scan scaling)")
	scanCPUs := 1
	intVar(fs, &scanCPUs, "scan-cpus", 1, campaign.MachineCPUs, "recover on N cores: shard the page-frame scan (§VII-B mitigation) and run the IRQ/scheduler repairs concurrently")

	return func(stdout, _ io.Writer) error {
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		// "both" is this experiment's own value: the paper's pair.
		mechs := []core.Mechanism{core.Microreset, core.Microreboot}
		if !strings.EqualFold(rf.mechanism, "both") {
			m, err := core.ParseMechanism(rf.mechanism)
			if err != nil {
				return err
			}
			mechs = []core.Mechanism{m}
		}

		if *sweep {
			sizes := []int{2048, 4096, 8192, 16384, 32768, 65536}
			for _, mech := range mechs {
				tbl := report.NewTable(fmt.Sprintf("%s recovery latency vs. memory size", mech),
					"memory_mb", "total_ms", "sender_interruption_ms")
				results, err := campaign.SweepLatency(mech, sizes, rf.seed)
				if err != nil {
					return err
				}
				for _, r := range results {
					tbl.AddRow(fmt.Sprintf("%d", r.MemoryMB),
						fmt.Sprintf("%.1f", ms(r.Total)),
						fmt.Sprintf("%.1f", ms(r.ServiceInterruption)))
				}
				fmt.Fprint(stdout, tbl.Render(format))
				fmt.Fprintln(stdout)
			}
			return nil
		}

		var totals []campaign.LatencyResult
		for _, mech := range mechs {
			cfg := oneShot(mech)
			cfg.RepairCPUs = scanCPUs
			r, err := campaign.MeasureLatencyCfg(cfg, rf.memory, rf.seed)
			if err != nil {
				return err
			}
			totals = append(totals, r)
			fmt.Fprint(stdout, r.FormattedBreakdown)
			fmt.Fprintf(stdout, "  Service interruption observed by NetBench sender: %.2fms\n\n",
				ms(r.ServiceInterruption))
		}
		if len(totals) == 2 {
			fmt.Fprintf(stdout, "Latency ratio (ReHype/NiLiHype): %.1fx\n",
				float64(totals[1].Total)/float64(totals[0].Total))
		}
		return nil
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// overheadPoints measures every Figure 3 configuration.
func overheadPoints(dur time.Duration, seed uint64) []campaign.OverheadPoint {
	var pts []campaign.OverheadPoint
	for _, cfg := range campaign.AllOverheadConfigs() {
		pts = append(pts, campaign.MeasureOverhead(cfg, dur, seed))
	}
	return pts
}

const overheadHelp = `hyperrecover overhead reproduces Figure 3: the hypervisor
processing overhead during normal operation, for NiLiHype and for
NiLiHype* (retry-mitigation logging disabled), across the four target
system configurations.
`

func overheadCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{duration: 2 * time.Second, seed: 1, format: "text"}).
		register(fs, "duration", "paper", "seed", "format")
	hypShare := 0.05
	floatVar(fs, &hypShare, "hyp-share", 0, 1, "assumed hypervisor share of total CPU cycles (§VII-C: <5%)")

	return func(stdout, _ io.Writer) error {
		format, err := report.ParseFormat(rf.format)
		if err != nil {
			return err
		}
		dur := rf.duration
		if rf.paper {
			dur = 21 * time.Second
		}
		pts := overheadPoints(dur, rf.seed)
		tbl := report.NewTable("Hypervisor processing overhead in normal operation (Figure 3)",
			"config", "NiLiHype", "NiLiHype*")
		worst := 0.0
		for _, p := range pts {
			tbl.AddRow(p.Config.String(),
				fmt.Sprintf("%.1f%%", p.WithLogging()),
				fmt.Sprintf("%.1f%%", p.WithoutLogging()))
			worst = max(worst, p.WithLogging())
		}
		fmt.Fprint(stdout, tbl.Render(format))
		fmt.Fprintf(stdout, "\nWorst-case total-CPU impact at %.0f%% hypervisor share: %.2f%% (paper: <1%%)\n",
			100*hypShare, worst*hypShare)
		return nil
	}
}

const locHelp = `hyperrecover loc applies the paper's implementation-complexity
methodology (Table IV, CLOC over the recovery changes) to this
repository: lines of code are counted per category — code executing
during normal operation to enable recovery, code executing only during
recovery, and the substrate being recovered.
`

func locCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	root := fs.String("root", ".", "repository root to scan")
	return func(stdout, _ io.Writer) error {
		rep, err := cloc.ScanTree(os.DirFS(*root), nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Format())
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Paper's Table IV (Xen patch LOC, for reference): NiLiHype required")
		fmt.Fprintln(stdout, "under 2200 added/modified lines; ReHype needed slightly more normal-")
		fmt.Fprintln(stdout, "operation code (IO-APIC and boot-option logging) and significantly")
		fmt.Fprintln(stdout, "more recovery-only code (state preservation and re-integration).")
		return nil
	}
}
