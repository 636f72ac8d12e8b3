// Command hyperrecover-campaign runs fault-injection campaigns and
// reports successful-recovery rates (Figure 2) and injection-outcome
// breakdowns (§VII-A).
//
// Examples:
//
//	hyperrecover-campaign -mechanism nilihype -fault register -runs 700
//	hyperrecover-campaign -mechanism rehype -fault code -runs 400
//	hyperrecover-campaign -all -runs 300          # full Figure 2 grid
//	hyperrecover-campaign -all -paper             # paper-scale campaign sizes
//	hyperrecover-campaign -runs 2000 -shards 8    # 8 worker processes
//
// With -shards N the campaign is split into N contiguous seed-range shards,
// each executed by a worker subprocess (this binary re-execed in a hidden
// -shard-worker mode), and the shard summaries are merged — bit-identical
// to the single-process result, but scaling across cores without sharing a
// Go runtime.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hyperrecover-campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mechName   = flag.String("mechanism", "nilihype", "recovery mechanism: nilihype | rehype | checkpoint | privvm-restart | hybrid | full-ladder")
		faultStr   = flag.String("fault", "failstop", "fault type: failstop | register | code | privvm-crash | privvm-hang | ioapic")
		setupStr   = flag.String("setup", "3appvm", "target system: 1appvm | 3appvm")
		workload   = flag.String("workload", "unixbench", "1AppVM benchmark: blkbench | unixbench | netbench")
		runs       = flag.Int("runs", 300, "number of injection runs")
		duration   = flag.Duration("duration", 3*time.Second, "benchmark duration (virtual time)")
		logging    = flag.Bool("logging", true, "enable §IV retry-mitigation logging (off = NiLiHype*)")
		hvm        = flag.Bool("hvm", false, "run AppVMs under full hardware virtualization (§VI-A)")
		all        = flag.Bool("all", false, "run the full Figure 2 grid (both mechanisms, all fault types)")
		traceRun   = flag.Uint64("trace-run", 0, "run a single seed and print its recovery timeline instead of a campaign")
		paper      = flag.Bool("paper", false, "paper-scale campaigns (1000/5000/2000 runs, 24s benchmarks)")
		parallel   = flag.Int("parallel", 0, "concurrent runs per process (0 = GOMAXPROCS)")
		repairCPUs = flag.Int("repair-cpus", 0, "partition non-reboot repair+audit into recovery domains over this many CPUs (0/1 = serial; implies audit)")
		shards     = flag.Int("shards", 0, "split the campaign across this many worker processes (0 = in-process)")
		shardTO    = flag.Duration("shard-timeout", 30*time.Minute, "per-shard worker deadline (with -shards)")
		worker     = flag.Bool("shard-worker", false, "internal: run as a shard worker (spec on stdin, summary on stdout)")
		matrix     = flag.Bool("fault-matrix", false, "run the E12 per-fault-class recovery matrix (all classes × hybrid vs full ladder)")
	)
	flag.Parse()

	if *worker {
		return campaign.RunShardWorker(os.Stdin, os.Stdout)
	}

	setup, err := parseSetup(*setupStr)
	if err != nil {
		return err
	}
	wl, err := parseWorkload(*workload)
	if err != nil {
		return err
	}

	benchDur := *duration
	if *paper {
		benchDur = 24 * time.Second
	}

	// recoveryCfg builds the per-run recovery config, folding in the
	// recovery-domain flags: partitioned repair needs the audit gate, since
	// the domain walk is the audit.
	withDomainFlags := func(rc core.Config) core.Config {
		if *repairCPUs > 1 {
			rc.RepairCPUs = *repairCPUs
			rc.Escalation.Audit = true
		}
		return rc
	}
	recoveryCfg := func(m core.Mechanism) core.Config {
		return withDomainFlags(core.Config{Mechanism: m, Enhancements: core.AllEnhancements})
	}

	if *matrix {
		return execFaultMatrix(setup, wl, *logging, *hvm, benchDur, *runs, *parallel)
	}

	// Ladder presets name a whole escalating Config rather than a single
	// mechanism; resolve them before the single-mechanism parse.
	mechCfg, mechIsLadder := parseLadder(*mechName)
	if mechIsLadder {
		mechCfg = withDomainFlags(mechCfg)
	}
	var mech core.Mechanism
	if !mechIsLadder {
		mech, err = parseMechanism(*mechName)
		if err != nil {
			return err
		}
	}
	cfgFor := func(m core.Mechanism) core.Config {
		if mechIsLadder {
			return mechCfg
		}
		return recoveryCfg(m)
	}

	execOne := func(m core.Mechanism, ft inject.FaultType, n int) error {
		c := campaign.Campaign{
			Base: campaign.RunConfig{
				Setup:         setup,
				Fault:         ft,
				Workload:      wl,
				Logging:       *logging,
				HVM:           *hvm,
				Recovery:      cfgFor(m),
				BenchDuration: benchDur,
			},
			Runs:        n,
			Parallelism: *parallel,
		}
		if *shards > 0 {
			return execSharded(c, *shards, *shardTO)
		}
		fmt.Print(c.Execute().Format())
		fmt.Println()
		return nil
	}

	if *traceRun > 0 {
		ft, err := parseFault(*faultStr)
		if err != nil {
			return err
		}
		r := campaign.Run(campaign.RunConfig{
			Seed:          *traceRun,
			Setup:         setup,
			Fault:         ft,
			Workload:      wl,
			Logging:       *logging,
			HVM:           *hvm,
			Recovery:      cfgFor(mech),
			BenchDuration: benchDur,
			TraceCapacity: 4096,
		})
		fmt.Printf("seed %d: outcome=%v success=%v noVMF=%v fail=%q\n",
			r.Seed, r.Outcome, r.Success, r.NoVMF, r.FailReason)
		fmt.Println("recovery timeline (panic/spin/wedge/discard/retry/drop events):")
		for _, line := range r.Trace {
			for _, kind := range []string{" panic ", " spin ", " wedge ", " discard ", " retry ", " drop "} {
				if strings.Contains(line, kind) {
					fmt.Println(" ", line)
					break
				}
			}
		}
		return nil
	}

	if *all {
		for _, m := range []core.Mechanism{core.Microreset, core.Microreboot} {
			for _, ft := range []inject.FaultType{inject.Failstop, inject.Register, inject.Code} {
				n := *runs
				if *paper {
					n = map[inject.FaultType]int{
						inject.Failstop: 1000, inject.Register: 5000, inject.Code: 2000,
					}[ft]
				}
				if err := execOne(m, ft, n); err != nil {
					return err
				}
			}
		}
		return nil
	}

	ft, err := parseFault(*faultStr)
	if err != nil {
		return err
	}
	n := *runs
	if *paper {
		n = map[inject.FaultType]int{
			inject.Failstop: 1000, inject.Register: 5000, inject.Code: 2000,
		}[ft]
	}
	return execOne(mech, ft, n)
}

// execFaultMatrix runs the E12 per-fault-class recovery matrix: every
// fault class under the hybrid ladder (microreset→microreboot) and the
// full ladder (…→PrivVM restart), then prints one matrix row per
// class×ladder cell plus the PrivVM-fault comparison the full ladder's
// extra rung exists for.
func execFaultMatrix(setup campaign.Setup, wl guest.Kind, logging, hvm bool, benchDur time.Duration, runs, parallel int) error {
	ladders := []struct {
		name string
		cfg  core.Config
	}{
		{"hybrid", core.HybridConfig()},
		{"full-ladder", core.FullLadderConfig()},
	}
	faults := []inject.FaultType{
		inject.Failstop, inject.Register, inject.Code,
		inject.PrivVMCrash, inject.PrivVMHang, inject.DeviceIOAPIC,
	}
	fmt.Printf("== per-fault-class recovery matrix (n=%d per cell) ==\n", runs)
	fmt.Printf("%-14s %-12s %-9s %-9s %-16s %-14s %s\n",
		"class", "ladder", "detected", "success", "rate",
		"mean-latency", "audit r/d/e")
	// privSuccess tallies recovered PrivVM-fault runs per ladder: the
	// full ladder must recover strictly more of them (E12 acceptance).
	privSuccess := map[string]int{}
	for _, ft := range faults {
		for _, lad := range ladders {
			c := campaign.Campaign{
				Base: campaign.RunConfig{
					Setup:         setup,
					Fault:         ft,
					Workload:      wl,
					Logging:       logging,
					HVM:           hvm,
					Recovery:      lad.cfg,
					BenchDuration: benchDur,
				},
				Runs:        runs,
				Parallelism: parallel,
			}
			s := c.Execute()
			for class, fc := range s.FaultClasses {
				rate, ci := fc.SuccessRate()
				fmt.Printf("%-14s %-12s %-9d %-9d %5.1f%% ±%5.1f%%   %-14v %d/%d/%d\n",
					class, lad.name, fc.Detected, fc.Success, 100*rate, 100*ci,
					fc.MeanSuccessLatency().Round(10*time.Microsecond),
					fc.AuditRepaired, fc.AuditDegraded, fc.AuditEscalate)
				if ft == inject.PrivVMCrash || ft == inject.PrivVMHang {
					privSuccess[lad.name] += fc.Success
				}
			}
		}
	}
	fmt.Printf("\nPrivVM faults recovered: hybrid=%d full-ladder=%d",
		privSuccess["hybrid"], privSuccess["full-ladder"])
	if privSuccess["full-ladder"] > privSuccess["hybrid"] {
		fmt.Printf(" (PrivVM-restart rung recovers %d more)\n",
			privSuccess["full-ladder"]-privSuccess["hybrid"])
	} else {
		fmt.Println(" (no gain from PrivVM-restart rung at this n)")
	}
	return nil
}

// execSharded runs the campaign across n worker subprocesses and prints
// the merged report plus the aggregate-throughput line.
func execSharded(c campaign.Campaign, n int, timeout time.Duration) error {
	start := time.Now()
	sum, statuses, err := campaign.ExecuteSharded(c, n, campaign.ShardOptions{
		Spawn:   spawnShard,
		Timeout: timeout,
		OnShardDone: func(st campaign.ShardStatus) {
			if st.Err != "" {
				fmt.Fprintf(os.Stderr, "shard %d: FAILED after %d attempt(s): %s\n",
					st.Index, st.Attempts, st.Err)
				return
			}
			note := ""
			if st.Attempts > 1 {
				note = fmt.Sprintf(" (after %d attempts)", st.Attempts)
			}
			fmt.Fprintf(os.Stderr, "shard %d: done, %d runs%s\n", st.Index, st.Runs, note)
		},
	})
	wall := time.Since(start)
	fmt.Print(sum.Format())
	fmt.Printf("  sharded: %d shard(s), %d runs in %v wall (%.2f runs/sec aggregate)\n\n",
		len(statuses), sum.Runs, wall.Round(time.Millisecond),
		float64(sum.Runs)/wall.Seconds())
	return err
}

// spawnShard launches one shard worker: this binary re-execed with
// -shard-worker, the spec on stdin, the summary envelope on stdout, stderr
// passed through. ctx expiry (the per-shard deadline) kills the worker.
func spawnShard(ctx context.Context, spec campaign.ShardSpec) (campaign.Summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return campaign.Summary{}, fmt.Errorf("shard %d: locate executable: %w", spec.Index, err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return campaign.Summary{}, fmt.Errorf("shard %d: encode spec: %w", spec.Index, err)
	}
	cmd := exec.CommandContext(ctx, exe, "-shard-worker")
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

func parseMechanism(s string) (core.Mechanism, error) {
	switch strings.ToLower(s) {
	case "nilihype", "microreset":
		return core.Microreset, nil
	case "rehype", "microreboot":
		return core.Microreboot, nil
	case "rehype-cp", "checkpoint":
		return core.CheckpointRestore, nil
	case "privvm-restart":
		return core.PrivVMRestart, nil
	default:
		return 0, fmt.Errorf("unknown mechanism %q", s)
	}
}

// parseLadder resolves the escalating-ladder presets that name a whole
// Config rather than a single mechanism.
func parseLadder(s string) (core.Config, bool) {
	switch strings.ToLower(s) {
	case "hybrid":
		return core.HybridConfig(), true
	case "full-ladder":
		return core.FullLadderConfig(), true
	default:
		return core.Config{}, false
	}
}

func parseFault(s string) (inject.FaultType, error) {
	switch strings.ToLower(s) {
	case "failstop":
		return inject.Failstop, nil
	case "register":
		return inject.Register, nil
	case "code":
		return inject.Code, nil
	case "privvm-crash":
		return inject.PrivVMCrash, nil
	case "privvm-hang":
		return inject.PrivVMHang, nil
	case "ioapic", "device":
		return inject.DeviceIOAPIC, nil
	default:
		return 0, fmt.Errorf("unknown fault type %q", s)
	}
}

func parseSetup(s string) (campaign.Setup, error) {
	switch strings.ToLower(s) {
	case "1appvm":
		return campaign.OneAppVM, nil
	case "3appvm":
		return campaign.ThreeAppVM, nil
	default:
		return 0, fmt.Errorf("unknown setup %q", s)
	}
}

func parseWorkload(s string) (guest.Kind, error) {
	switch strings.ToLower(s) {
	case "blkbench":
		return guest.BlkBench, nil
	case "unixbench":
		return guest.UnixBench, nil
	case "netbench":
		return guest.NetBench, nil
	default:
		return 0, fmt.Errorf("unknown workload %q", s)
	}
}
