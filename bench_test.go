// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VII), plus the design-choice ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its artifact's rows/series and reports them
// as custom metrics (success_%, noVMF_%, ms, overhead_%), so the output of
// a -bench run is the reproduced evaluation. Campaign sizes are scaled
// down from the paper's (which used 1000-5000 runs per campaign); the
// cmd/hyperrecover subcommands run the same experiments at any scale.
package nilihype_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/cloc"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// benchRuns is the campaign size per configuration point.
const benchRuns = 120

// BenchmarkTable1EnhancementLadder regenerates Table I: the successful
// recovery rate of microreset as each enhancement is added (1AppVM,
// fail-stop faults). Paper: 0%, 16.0%, 51.8%, 82.2%, 95.0%, 96.1%, (n/a).
func BenchmarkTable1EnhancementLadder(b *testing.B) {
	for _, rung := range core.Ladder() {
		rung := rung
		b.Run(sanitize(rung.Label), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:         campaign.OneAppVM,
						Fault:         inject.Failstop,
						Workload:      guest.UnixBench,
						Logging:       true,
						Recovery:      core.Config{Mechanism: core.Microreset, Enhancements: rung.Enh},
						BenchDuration: 2 * time.Second,
					},
					Runs: benchRuns,
				}
				rate, _ = c.Execute().SuccessRate()
			}
			b.ReportMetric(100*rate, "success_%")
		})
	}
}

// BenchmarkFigure2RecoveryRate regenerates Figure 2: successful recovery
// rate (and noVMF) of NiLiHype and ReHype for Failstop, Register and Code
// faults in the 3AppVM setup. Paper shape: the mechanisms tie on
// Failstop; ReHype holds a small edge on Register/Code; Code is lowest;
// NiLiHype stays above 88%.
func BenchmarkFigure2RecoveryRate(b *testing.B) {
	for _, mech := range []core.Mechanism{core.Microreset, core.Microreboot} {
		for _, ft := range []inject.FaultType{inject.Failstop, inject.Register, inject.Code} {
			mech, ft := mech, ft
			b.Run(fmt.Sprintf("%v/%v", mech, ft), func(b *testing.B) {
				var rate, novmf float64
				for i := 0; i < b.N; i++ {
					runs := benchRuns
					if ft != inject.Failstop {
						// Only ~20%/~53% of these manifest as detected.
						runs = benchRuns * 3
					}
					c := campaign.Campaign{
						Base: campaign.RunConfig{
							Setup:         campaign.ThreeAppVM,
							Fault:         ft,
							Logging:       true,
							Recovery:      core.Config{Mechanism: mech, Enhancements: core.AllEnhancements},
							BenchDuration: 3 * time.Second,
						},
						Runs: runs,
					}
					s := c.Execute()
					rate, _ = s.SuccessRate()
					novmf, _ = s.NoVMFRate()
				}
				b.ReportMetric(100*rate, "success_%")
				b.ReportMetric(100*novmf, "noVMF_%")
			})
		}
	}
}

// BenchmarkOutcomeBreakdown regenerates the §VII-A injection-outcome
// breakdowns. Paper: Register 74.8% non-manifested / 5.6% SDC / 19.6%
// detected; Code 35.0% / 12.1% / 52.9%.
func BenchmarkOutcomeBreakdown(b *testing.B) {
	for _, ft := range []inject.FaultType{inject.Register, inject.Code} {
		ft := ft
		b.Run(ft.String(), func(b *testing.B) {
			var nm, sdc, det float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:         campaign.ThreeAppVM,
						Fault:         ft,
						Logging:       true,
						Recovery:      core.DefaultConfig(),
						BenchDuration: 3 * time.Second,
					},
					Runs: benchRuns * 3,
				}
				nm, sdc, det = c.Execute().OutcomeRates()
			}
			b.ReportMetric(100*nm, "nonmanifested_%")
			b.ReportMetric(100*sdc, "SDC_%")
			b.ReportMetric(100*det, "detected_%")
		})
	}
}

// BenchmarkTable2ReHypeLatency regenerates Table II: ReHype's recovery
// latency breakdown at the paper's 8 GB testbed. Paper total: 713 ms.
func BenchmarkTable2ReHypeLatency(b *testing.B) {
	var r campaign.LatencyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = campaign.MeasureLatency(core.Microreboot, 8192, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Total.Seconds()*1000, "total_ms")
	b.Log("\n" + r.FormattedBreakdown)
}

// BenchmarkTable3NiLiHypeLatency regenerates Table III: NiLiHype's
// recovery latency breakdown at 8 GB. Paper total: 22 ms (21 ms page-frame
// scan + 1 ms others).
func BenchmarkTable3NiLiHypeLatency(b *testing.B) {
	var r campaign.LatencyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = campaign.MeasureLatency(core.Microreset, 8192, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Total.Seconds()*1000, "total_ms")
	b.Log("\n" + r.FormattedBreakdown)
}

// BenchmarkServiceInterruption regenerates the §VII-B sender-side
// measurement: the NetBench sender on a separate host observes the
// recovery gap. Paper: 22 ms vs 713 ms, a >30x ratio.
func BenchmarkServiceInterruption(b *testing.B) {
	for _, mech := range []core.Mechanism{core.Microreset, core.Microreboot} {
		mech := mech
		b.Run(mech.String(), func(b *testing.B) {
			var gap time.Duration
			for i := 0; i < b.N; i++ {
				r, err := campaign.MeasureLatency(mech, 8192, 3)
				if err != nil {
					b.Fatal(err)
				}
				gap = r.ServiceInterruption
			}
			b.ReportMetric(gap.Seconds()*1000, "interruption_ms")
		})
	}
}

// BenchmarkFigure3Overhead regenerates Figure 3: hypervisor processing
// overhead during normal operation for NiLiHype and NiLiHype* (logging
// off) across the four configurations. Paper shape: logging dominates;
// BlkBench is the worst case, staying under 1% of total CPU at a <5%
// hypervisor share.
func BenchmarkFigure3Overhead(b *testing.B) {
	for _, cfg := range campaign.AllOverheadConfigs() {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			var p campaign.OverheadPoint
			for i := 0; i < b.N; i++ {
				p = campaign.MeasureOverhead(cfg, 2*time.Second, 1)
			}
			b.ReportMetric(p.WithLogging(), "overhead_%")
			b.ReportMetric(p.WithoutLogging(), "overhead_nolog_%")
		})
	}
}

// BenchmarkTable4LOC regenerates the Table IV methodology: LOC of
// recovery-only versus normal-operation code in this implementation.
func BenchmarkTable4LOC(b *testing.B) {
	var rep cloc.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = cloc.ScanTree(os.DirFS("."), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PerCategory[cloc.RecoveryOnly].Code), "recovery_loc")
	b.ReportMetric(float64(rep.PerCategory[cloc.NormalOperation].Code), "normal_op_loc")
	b.Log("\n" + rep.Format())
}

// BenchmarkAblationDiscardScope compares discarding all execution threads
// (the NiLiHype design) with discarding only the detecting CPU's thread —
// the §III-C design choice. The all-threads choice must win.
func BenchmarkAblationDiscardScope(b *testing.B) {
	for _, scope := range []core.DiscardScope{core.AllThreads, core.DetectingOnly} {
		scope := scope
		name := "AllThreads"
		if scope == core.DetectingOnly {
			name = "DetectingOnly"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:    campaign.OneAppVM,
						Fault:    inject.Failstop,
						Workload: guest.UnixBench,
						Logging:  true,
						Recovery: core.Config{
							Mechanism:    core.Microreset,
							Enhancements: core.AllEnhancements,
							Scope:        scope,
						},
						BenchDuration: 2 * time.Second,
					},
					Runs: benchRuns,
				}
				rate, _ = c.Execute().SuccessRate()
			}
			b.ReportMetric(100*rate, "success_%")
		})
	}
}

// BenchmarkAblationPFScan toggles the page-frame-descriptor consistency
// scan: skipping it saves ~21 ms of latency but costs recovery rate
// (§VII-B cites a 4% reduction).
func BenchmarkAblationPFScan(b *testing.B) {
	for _, withScan := range []bool{true, false} {
		withScan := withScan
		name := "WithScan"
		enh := core.AllEnhancements
		if !withScan {
			name = "WithoutScan"
			enh &^= core.EnhPFScan
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:         campaign.ThreeAppVM,
						Fault:         inject.Register,
						Logging:       true,
						Recovery:      core.Config{Mechanism: core.Microreset, Enhancements: enh},
						BenchDuration: 3 * time.Second,
					},
					Runs: benchRuns * 3,
				}
				rate, _ = c.Execute().SuccessRate()
			}
			b.ReportMetric(100*rate, "success_%")
		})
	}
}

// BenchmarkAblationLogging toggles the §IV retry-mitigation logging:
// NiLiHype* avoids the logging overhead but loses recovery rate (§IV
// cites ~12%: 84% vs 96% on the 1AppVM fail-stop setup).
func BenchmarkAblationLogging(b *testing.B) {
	for _, logging := range []bool{true, false} {
		logging := logging
		name := "NiLiHype"
		if !logging {
			name = "NiLiHypeStar"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:         campaign.OneAppVM,
						Fault:         inject.Failstop,
						Workload:      guest.UnixBench,
						Logging:       logging,
						Recovery:      core.DefaultConfig(),
						BenchDuration: 2 * time.Second,
					},
					Runs: benchRuns,
				}
				rate, _ = c.Execute().SuccessRate()
			}
			b.ReportMetric(100*rate, "success_%")
		})
	}
}

// BenchmarkExtensionParallelScan exercises the §VII-B mitigation for
// large-memory hosts: sharding the page-frame consistency scan across
// cores. At 64 GB the sequential scan alone costs 168 ms; eight cores
// bring recovery latency back near the paper's 8 GB figure.
func BenchmarkExtensionParallelScan(b *testing.B) {
	for _, scanCPUs := range []int{1, 2, 4, 8} {
		scanCPUs := scanCPUs
		b.Run(fmt.Sprintf("64GB/%dcores", scanCPUs), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				r, err := campaign.MeasureLatencyCfg(core.Config{
					Mechanism:    core.Microreset,
					Enhancements: core.AllEnhancements,
					ScanCPUs:     scanCPUs,
				}, 65536, 3)
				if err != nil {
					b.Fatal(err)
				}
				total = r.Total
			}
			b.ReportMetric(total.Seconds()*1000, "total_ms")
		})
	}
}

// sanitize turns a Table I rung label into a benchmark name.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '+':
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkExtensionHVMvsPV compares recovery rates for paravirtualized
// and fully hardware-virtualized AppVMs. §VI-A: "fault injection results
// obtained with AppVM supported by full hardware virtualization (HVMs)
// are very similar to those obtained with paravirtualized AppVMs" — the
// hazards (non-idempotent mapping counts, held locks) are the same whether
// the request is a hypercall or a VM exit.
func BenchmarkExtensionHVMvsPV(b *testing.B) {
	for _, hvm := range []bool{false, true} {
		hvm := hvm
		name := "PV"
		if hvm {
			name = "HVM"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := campaign.Campaign{
					Base: campaign.RunConfig{
						Setup:         campaign.OneAppVM,
						Fault:         inject.Failstop,
						Workload:      guest.UnixBench,
						Logging:       true,
						HVM:           hvm,
						Recovery:      core.DefaultConfig(),
						BenchDuration: 2 * time.Second,
					},
					Runs: benchRuns,
				}
				rate, _ = c.Execute().SuccessRate()
			}
			b.ReportMetric(100*rate, "success_%")
		})
	}
}
