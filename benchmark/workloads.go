package main

import (
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
	"nilihype/internal/traffic"
)

// referenceSeconds is the --seconds value the fixed run counts below are
// sized for (BENCHMARK.json's run_seconds). Another --seconds scales the
// counts linearly, so a fixed (seed, seconds) pair always runs the same
// seeds and the simulated-clock numbers repeat exactly.
const referenceSeconds = 10

// quickRuns is the per-workload run count of -quick, the smoke mode the
// package tests drive.
const quickRuns = 20

// workload is one fixed campaign shape. Runs is the timed run count at
// referenceSeconds on the 2-core reference box.
type workload struct {
	Name string
	Runs int
	Why  string
	Base campaign.RunConfig
	// PaperMs, when set, is the paper's recovery latency this workload
	// reproduces; the correctness gate holds the simulated mean to it.
	// PaperPct is the paper's recovery rate for this configuration. The
	// distance to each is printed beside the simulated results.
	PaperMs  float64
	PaperPct float64
}

// workloads returns the four benchmark workloads, in report order. Each
// loads a different layer; the Why strings are the short form of the
// README's per-workload rationale.
func workloads() []workload {
	// ThroughputBenchConfig with its default memory size spelled out, so
	// the rig the probes build is the size the campaign runs at.
	failstop := campaign.ThroughputBenchConfig()
	failstop.MemoryMB = 1024

	ladder := core.FullLadderConfig()
	ladder.RepairCPUs = 8

	big := failstop
	big.MemoryMB = 8192
	big.Workload = guest.NetBench
	big.BenchDuration = time.Second

	rehype := failstop
	rehype.Recovery.Mechanism = core.Microreboot
	rehype.Traffic = traffic.Config{Users: 1_000_000}

	return []workload{
		{
			Name: "failstop_1vm", Runs: 2000, Base: failstop, PaperPct: paperTable1Pct,
			Why: "2000 runs: paper's primary config (1AppVM/UnixBench/failstop, microreset, 1 GB); the event loop dominates, memory-size work is small",
		},
		{
			Name: "code_3vm_ladder", Runs: 700,
			Base: campaign.RunConfig{
				Setup: campaign.ThreeAppVM, Fault: inject.Code, Recovery: ladder,
				Logging: true, BenchDuration: 3 * time.Second, MemoryMB: 1024,
			},
			Why: "700 runs: 3AppVM code faults, full ladder + audit on 8 repair CPUs; loads guests, devices, audit, forensics and the allocation-heavy path",
		},
		{
			Name: "failstop_8g", Runs: 700, Base: big, PaperMs: paperTable3Ms,
			Why: "700 runs: paper's 8 GB latency testbed (Table III, 22 ms); frame-table restore and page-frame scans over 2 M descriptors dominate",
		},
		{
			Name: "rehype_1vm_users", Runs: 2000, Base: rehype,
			Why: "2000 runs: microreboot baseline (Table II) with 1 M open-loop users; the only workload arming the traffic wheel and SLO scoring",
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runsFor scales a workload's fixed run count to the requested measuring
// time.
func (w workload) runsFor(seconds int) int {
	n := w.Runs * seconds / referenceSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// Seed layout. One benchmark seed owns a block of seedStride campaign
// seeds, so different --seed values never share a run. Inside the block
// the timed runs take the first seeds; the warm-up and the traced pass's
// side campaigns each take a disjoint offset.
const (
	seedStride   = 1 << 24
	warmupOffset = 1 << 20
	sideOffset   = 2 << 20
)

func seedBase(seed uint64) uint64 { return seed * seedStride }
