package campaign

import (
	"fmt"
	"time"

	"nilihype/internal/guest"
)

// OverheadConfig names one target-system configuration of the Figure 3
// experiment (§VII-C): the three 1AppVM benchmarks plus the synchronized
// 3AppVM configuration (all three AppVMs created at the same time and
// running throughout — recovery is not exercised).
type OverheadConfig int

// Overhead configurations.
const (
	OverheadBlk OverheadConfig = iota + 1
	OverheadUnix
	OverheadNet
	Overhead3AppVM
)

// String returns the configuration name.
func (o OverheadConfig) String() string {
	switch o {
	case OverheadBlk:
		return "BlkBench"
	case OverheadUnix:
		return "UnixBench"
	case OverheadNet:
		return "NetBench"
	case Overhead3AppVM:
		return "3AppVM"
	default:
		return fmt.Sprintf("overhead(%d)", int(o))
	}
}

// AllOverheadConfigs lists the Figure 3 configurations in paper order.
func AllOverheadConfigs() []OverheadConfig {
	return []OverheadConfig{OverheadBlk, OverheadUnix, OverheadNet, Overhead3AppVM}
}

// OverheadPoint is one bar pair of Figure 3.
type OverheadPoint struct {
	Config OverheadConfig
	// CyclesStock/CyclesNiLiHype/CyclesNoLogging are the summed
	// unhalted-in-hypervisor cycle counts over all CPUs for the
	// synchronized benchmark window.
	CyclesStock     uint64
	CyclesNiLiHype  uint64
	CyclesNoLogging uint64
}

// WithLogging returns the NiLiHype hypervisor processing overhead: the
// percent increase in hypervisor cycles relative to stock Xen.
func (p OverheadPoint) WithLogging() float64 {
	return pctIncrease(p.CyclesNiLiHype, p.CyclesStock)
}

// WithoutLogging returns the NiLiHype* overhead (logging disabled).
func (p OverheadPoint) WithoutLogging() float64 {
	return pctIncrease(p.CyclesNoLogging, p.CyclesStock)
}

func pctIncrease(with, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(with) - float64(base)) / float64(base)
}

// MeasureOverhead runs one Figure 3 configuration in its three variants —
// NiLiHype (logging on), NiLiHype* (logging off), and stock Xen (no
// recovery machinery at all) — with identical seeds and workloads, and
// reports the hypervisor cycle counts. The measurement window is the
// synchronized benchmark execution (§VII-C: counters reset when all
// benchmarks are ready, read when all complete).
func MeasureOverhead(cfg OverheadConfig, duration time.Duration, seed uint64) OverheadPoint {
	p := OverheadPoint{Config: cfg}
	p.CyclesNiLiHype = overheadRun(cfg, duration, seed, true, true)
	p.CyclesNoLogging = overheadRun(cfg, duration, seed, false, true)
	p.CyclesStock = overheadRun(cfg, duration, seed, false, false)
	return p
}

// overheadRun executes one variant and returns hypervisor cycles summed
// over all CPUs for the benchmark window.
func overheadRun(cfg OverheadConfig, duration time.Duration, seed uint64, logging, prep bool) uint64 {
	clk, h, err := bootHypervisor(hvConfig(seed, defaultMemoryMB, logging, prep, 0))
	if err != nil {
		panic("campaign: overhead " + err.Error())
	}
	world := guest.NewWorld(h, seed^0x5eed)
	world.StartPrivVM()

	addVM := func(k guest.Kind, dom, cpu int) {
		if _, err := world.AddAppVM(guest.Config{Kind: k, Dom: dom, CPU: cpu, Duration: duration}); err != nil {
			panic("campaign: overhead vm: " + err.Error())
		}
	}
	netFlow := -1
	switch cfg {
	case OverheadBlk:
		addVM(guest.BlkBench, unixDom, unixCPU)
	case OverheadUnix:
		addVM(guest.UnixBench, unixDom, unixCPU)
	case OverheadNet:
		addVM(guest.NetBench, unixDom, unixCPU)
		netFlow = unixDom
	default: // 3AppVM: all three created at the same time (§VII-C)
		addVM(guest.UnixBench, unixDom, unixCPU)
		addVM(guest.NetBench, netDom, netCPU)
		addVM(guest.BlkBench, blkDom, blkCPU)
		netFlow = netDom
	}

	// Synchronized measurement start: reset the counters as the
	// benchmarks begin.
	for _, cpu := range h.Machine.CPUs() {
		cpu.ResetCounters()
	}
	world.StartAll()
	if netFlow >= 0 {
		world.Sender.Start(netFlow, duration)
	}
	clk.RunUntil(duration + 200*time.Millisecond)

	var total uint64
	for _, cpu := range h.Machine.CPUs() {
		total += cpu.Cycles.Hypervisor
	}
	return total
}
