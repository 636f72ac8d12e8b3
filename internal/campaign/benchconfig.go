package campaign

import (
	"time"

	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// ThroughputBenchConfig is the fixed run configuration shared by the
// campaign-throughput benchmark (BenchmarkCampaignThroughput) and the
// failstop workloads of `go run ./benchmark`, so the numbers that ledger
// records stay comparable across changes: a 1AppVM/UnixBench failstop
// campaign under Microreset with all enhancements and logging on — the
// paper's primary configuration, and the hottest realistic simulation
// path.
func ThroughputBenchConfig() RunConfig {
	return RunConfig{
		Setup:         OneAppVM,
		Fault:         inject.Failstop,
		Workload:      guest.UnixBench,
		Logging:       true,
		Recovery:      core.Config{Mechanism: core.Microreset, Enhancements: core.AllEnhancements},
		BenchDuration: 2 * time.Second,
	}
}
