// Benchmark harness for the comparisons no single cmd/hyperrecover run
// reproduces: the design-choice ablations called out in DESIGN.md and the
// HVM-versus-PV extension. Every table and figure of the paper's
// evaluation (§VII) is a subcommand; EXPERIMENTS.md names each one. Run
// with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its rows as a success_% metric. Campaign sizes
// are scaled down from the paper's (which used 1000-5000 runs per
// campaign).
package nilihype_test

import (
	"testing"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// benchRuns is the campaign size per configuration point.
const benchRuns = 120

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
