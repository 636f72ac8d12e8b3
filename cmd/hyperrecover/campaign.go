package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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
	hyperrecover campaign -runs 2000 -shards 8    # 8 worker processes

With -shards N the campaign is split into N contiguous seed-range shards,
each executed by a worker subprocess (this binary re-execed as
"hyperrecover shard-worker"), and the shard summaries are merged —
bit-identical to the single-process result, but scaling across cores
without sharing a Go runtime.
`

func campaignCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rf := (&runFlags{mechanism: "nilihype", fault: "failstop", setup: "3appvm", workload: "unixbench",
		runs: 300, duration: 3 * time.Second, logging: true}).
		register(fs, "mechanism", "fault", "setup", "workload", "runs", "duration", "logging", "paper", "parallel", "repair-cpus")
	var (
		hvm    = fs.Bool("hvm", false, "run AppVMs under full hardware virtualization (§VI-A)")
		all    = fs.Bool("all", false, "run the full Figure 2 grid (both mechanisms, all fault types)")
		matrix = fs.Bool("fault-matrix", false, "run the E12 per-fault-class recovery matrix (all classes × hybrid vs full ladder)")
		shards int
		shardT = 30 * time.Minute
	)
	intVar(fs, &shards, "shards", 0, 1024, "split the campaign across this many worker processes (0 = in-process)")
	durVar(fs, &shardT, "shard-timeout", time.Second, 24*time.Hour, "per-shard worker deadline (with -shards)")

	return func(stdout, stderr io.Writer) error {
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

		execOne := func(m core.Mechanism, ft inject.FaultType) error {
			c := tmpl
			c.Base.Fault = ft
			// A ladder preset names a whole escalating config; a single
			// mechanism is the one-shot config's only rung.
			if len(c.Base.Recovery.Escalation.Ladder) == 0 {
				c.Base.Recovery.Mechanism = m
			}
			if n, ok := paperRuns[ft]; ok && rf.paper {
				c.Runs = n
			}
			if shards > 0 {
				return execSharded(stdout, stderr, c, shards, shardT)
			}
			fmt.Fprint(stdout, c.Execute().Format())
			fmt.Fprintln(stdout)
			return nil
		}

		if *all {
			for _, m := range []core.Mechanism{core.Microreset, core.Microreboot} {
				for _, ft := range paperFaults {
					if err := execOne(m, ft); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return execOne(tmpl.Base.Recovery.Mechanism, tmpl.Base.Fault)
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

// execSharded runs the campaign across n worker subprocesses and prints
// the merged report plus the aggregate-throughput line.
func execSharded(stdout, stderr io.Writer, c campaign.Campaign, n int, timeout time.Duration) error {
	start := time.Now()
	sum, statuses, err := campaign.ExecuteSharded(c, n, campaign.ShardOptions{
		Spawn:   spawnShard,
		Timeout: timeout,
		OnShardDone: func(st campaign.ShardStatus) {
			if st.Err != "" {
				fmt.Fprintf(stderr, "shard %d: FAILED after %d attempt(s): %s\n", st.Index, st.Attempts, st.Err)
				return
			}
			note := ""
			if st.Attempts > 1 {
				note = fmt.Sprintf(" (after %d attempts)", st.Attempts)
			}
			fmt.Fprintf(stderr, "shard %d: done, %d runs%s\n", st.Index, st.Runs, note)
		},
	})
	wall := time.Since(start)
	fmt.Fprint(stdout, sum.Format())
	fmt.Fprintf(stdout, "  sharded: %d shard(s), %d runs in %v wall (%.2f runs/sec aggregate)\n\n",
		len(statuses), sum.Runs, wall.Round(time.Millisecond), float64(sum.Runs)/wall.Seconds())
	return err
}

// spawnShard launches one shard worker: this binary re-execed as
// `hyperrecover shard-worker`, the spec on stdin, the summary envelope on
// stdout, stderr passed through. ctx expiry (the per-shard deadline) kills
// the worker.
func spawnShard(ctx context.Context, spec campaign.ShardSpec) (campaign.Summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return campaign.Summary{}, fmt.Errorf("shard %d: locate executable: %w", spec.Index, err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return campaign.Summary{}, fmt.Errorf("shard %d: encode spec: %w", spec.Index, err)
	}
	cmd := exec.CommandContext(ctx, exe, "shard-worker")
	cmd.Stdin = bytes.NewReader(specJSON)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return campaign.Summary{}, fmt.Errorf("shard %d: worker killed at deadline: %v", spec.Index, ctx.Err())
		}
		return campaign.Summary{}, fmt.Errorf("shard %d: worker: %w", spec.Index, err)
	}
	return campaign.DecodeShardSummary(&out, spec.Index)
}

func shardWorkerCmd(*flag.FlagSet) func(stdout, stderr io.Writer) error {
	return func(stdout, _ io.Writer) error { return campaign.RunShardWorker(os.Stdin, stdout) }
}
