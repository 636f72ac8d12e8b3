package campaign

import (
	"errors"
	"fmt"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/inject"
	"nilihype/internal/prng"
)

// LatencyResult is one recovery-latency measurement (Tables II/III and the
// §VII-B NetBench service-interruption measurement).
type LatencyResult struct {
	Mechanism core.Mechanism
	MemoryMB  int

	// Total is the modeled recovery latency.
	Total time.Duration
	// Breakdown itemizes it (Table II for ReHype, Table III for
	// NiLiHype).
	Breakdown []core.LatencyStep
	// ServiceInterruption is the outage observed by the NetBench sender
	// on the separate host (recovery latency plus up to one send
	// period).
	ServiceInterruption time.Duration
	// FormattedBreakdown is the Table II/III-style rendering.
	FormattedBreakdown string
}

// MeasureLatency runs the §VII-B experiment: NetBench in the 1AppVM setup
// on a machine with the given memory size, one fail-stop fault, recovery
// with the given mechanism, and the service interruption measured at the
// sender. The paper's configuration is 8192 MB.
func MeasureLatency(mech core.Mechanism, memoryMB int, seed uint64) (LatencyResult, error) {
	return MeasureLatencyCfg(core.Config{Mechanism: mech, Enhancements: core.AllEnhancements}, memoryMB, seed)
}

// ErrLatencyRunFailed marks a latency run whose recovery did not succeed;
// MeasureLatencyCfg retries such runs with the next seed.
var ErrLatencyRunFailed = errors.New("campaign: latency run did not recover")

// measureLatencyAttempts caps the seed-bumping retry of MeasureLatencyCfg.
const measureLatencyAttempts = 8

// MeasureLatencyCfg is MeasureLatency with a full recovery configuration
// (e.g. a parallelized page-frame scan via Config.RepairCPUs). A run whose
// recovery fails (the fault drew an unrecoverable effect for this seed) is
// retried with the next seed, up to measureLatencyAttempts seeds, so the
// measurement is of a successful recovery — the paper measures successful
// recoveries. Setup and boot errors are returned immediately; if no seed
// yields a successful recovery the last run's failure is returned.
func MeasureLatencyCfg(cfg core.Config, memoryMB int, seed uint64) (LatencyResult, error) {
	var lastErr error
	for i := uint64(0); i < measureLatencyAttempts; i++ {
		res, err := measureLatencyOnce(cfg, memoryMB, seed+i)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrLatencyRunFailed) {
			return res, err
		}
		lastErr = err
	}
	return LatencyResult{Mechanism: cfg.Mechanism, MemoryMB: memoryMB},
		fmt.Errorf("campaign: no successful recovery in %d seeds starting at %d: %w",
			measureLatencyAttempts, seed, lastErr)
}

// measureLatencyOnce performs a single latency run with one seed.
func measureLatencyOnce(cfg core.Config, memoryMB int, seed uint64) (LatencyResult, error) {
	res := LatencyResult{Mechanism: cfg.Mechanism, MemoryMB: memoryMB}
	clk, h, err := bootHypervisor(hvConfig(seed, memoryMB, true, true, 0))
	if err != nil {
		return res, fmt.Errorf("campaign: latency %w", err)
	}
	h.SetSchedFluxProb(hv.DefaultSchedFluxProb)
	world := guest.NewWorld(h, seed^0x5eed)
	world.StartPrivVM()

	const benchDuration = 4 * time.Second
	vm, err := world.AddAppVM(guest.Config{
		Kind: guest.NetBench, Dom: unixDom, CPU: unixCPU, Duration: benchDuration,
	})
	if err != nil {
		return res, fmt.Errorf("campaign: latency vm: %w", err)
	}
	if cfg.Enhancements == 0 {
		cfg.Enhancements = core.AllEnhancements
	}
	engine := core.NewEngine(h, cfg)
	det := detect.New(h, engine.OnDetection)
	engine.Det = det
	det.Start()

	vm.Start()
	world.Sender.Start(unixDom, benchDuration)

	// One fail-stop fault mid-run; the caller retries failed recoveries
	// with fresh seeds.
	injector := inject.New(h, world, prng.New(seed, 0xfa17), inject.Params{
		Type:     inject.Failstop,
		WindowLo: time.Second,
		WindowHi: 2 * time.Second,
	})
	injector.Schedule()

	clk.RunUntil(benchDuration + 2*time.Second)

	if engine.Status() != core.StatusRecovered {
		return res, fmt.Errorf("%w (seed %d): %s", ErrLatencyRunFailed, seed, engine.FailReason)
	}
	res.Total = engine.Latency
	res.Breakdown = engine.Breakdown
	res.FormattedBreakdown = engine.FormatBreakdown()
	res.ServiceInterruption = world.Sender.ServiceInterruption()
	return res, nil
}

// SweepLatency measures recovery latency across memory sizes,
// demonstrating the §VII-B scaling of the page-frame scan.
func SweepLatency(mech core.Mechanism, memoryMBs []int, seed uint64) ([]LatencyResult, error) {
	var out []LatencyResult
	for _, mb := range memoryMBs {
		r, err := MeasureLatency(mech, mb, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
