package campaign

import (
	"fmt"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/simclock"
	"nilihype/internal/traffic"
)

// hvConfig is the standard campaign machine configuration — the single
// boot shape shared by fault-injection runs, the latency experiment and
// the overhead experiment (which alone varies logging/prep).
// MachineCPUs is the campaign machine's CPU count (§VI-A testbed shape);
// exported so the trace tooling can label all per-CPU timeline lanes.
const MachineCPUs = 8

func hvConfig(seed uint64, memoryMB int, logging, recoveryPrep bool, flightCap int) hv.Config {
	return hv.Config{
		Machine: hw.Config{
			CPUs:     MachineCPUs,
			MemoryMB: memoryMB,
			BlockSvc: 200 * time.Microsecond,
			NICLat:   30 * time.Microsecond,
		},
		HeapFrames:             heapFrames,
		LoggingEnabled:         logging,
		RecoveryPrep:           recoveryPrep,
		FlightRecorderCapacity: flightCap,
		Seed:                   seed,
	}
}

// bootHypervisor builds and boots a hypervisor on a fresh clock.
func bootHypervisor(cfg hv.Config) (*simclock.Clock, *hv.Hypervisor, error) {
	clk := simclock.New()
	h, err := hv.New(clk, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	if err := h.Boot(); err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	return clk, h, nil
}

// imageKey identifies the pristine boot image a run forks from: every
// RunConfig field that shapes the pre-injection system, and none that vary
// per run (the seed and all injection parameters are applied after the
// snapshot, so runs differing only in those share one image).
type imageKey struct {
	Setup         Setup
	Workload      guest.Kind
	Logging       bool
	BenchDuration time.Duration
	MemoryMB      int
	HVM           bool
	FlightCap     int
}

func keyOf(rc RunConfig) imageKey {
	rc = rc.withDefaults()
	return imageKey{
		Setup:         rc.Setup,
		Workload:      rc.Workload,
		Logging:       rc.Logging,
		BenchDuration: rc.BenchDuration,
		MemoryMB:      rc.MemoryMB,
		HVM:           rc.HVM,
		FlightCap:     rc.FlightRecorderCapacity,
	}
}

// image is a booted target system captured at its pristine boot-complete
// point. The first run consumes the live state directly (a cold boot and
// a first fork are the same thing); every later run restores the snapshot
// and re-arms the per-run state.
//
// The build phase is carefully RNG-draw-free: domain creation, timers and
// hook wiring consume no randomness, so the image is seed-independent and
// the per-run reseeds put both RNG streams exactly where a cold boot with
// that seed would.
type image struct {
	clk   *simclock.Clock
	h     *hv.Hypervisor
	world *guest.World
	det   *detect.Detector
	// ws is the recovery workspace every run's engine reuses, handed over
	// like det.
	ws *core.Workspace

	// engine is the CURRENT run's recovery engine. The detector is part
	// of the image (its watchdog timers are snapshot state), so its hook
	// dispatches through this slot rather than binding one run's engine.
	engine *core.Engine

	// appCfgs is the AppVM creation order (SeedAppVM must follow it to
	// consume the world stream like the legacy combined path).
	appCfgs []guest.Config

	snap  *hv.Snapshot
	wsnap *guest.WorldSnapshot

	// res and apps are per-run scratch recycled across runs of this image:
	// run() rebuilds them in place and returns a shallow copy of res, so a
	// campaign's steady state appends into already-grown backing arrays
	// instead of reallocating them every run. The copy-on-retain contract
	// (see Result.Clone) is what makes the aliasing safe.
	res  Result
	apps []*guest.AppVM

	// traffic is the open-loop population engine, created lazily on the
	// first traffic-enabled run and re-armed per run (traffic is applied
	// after the snapshot like the sender, so it is not part of the image
	// key — trafficCfg guards against a differently-configured run
	// sharing the image). slo is the per-run scratch Result.SLO points
	// into, under the same copy-on-retain contract as res.
	traffic    *traffic.Engine
	trafficCfg traffic.Config
	slo        traffic.SLO

	// used marks that a run has consumed the pristine state, so the next
	// run must restore first.
	used bool
}

// buildImage boots the target system for rc's shape and snapshots it at
// the boot-complete point: platform up, PrivVM ticking, detectors armed,
// AppVM domains created but no benchmark started, no randomness drawn, no
// clock event dispatched.
func buildImage(rc RunConfig) (*image, error) {
	rc = rc.withDefaults()
	clk, h, err := bootHypervisor(hvConfig(rc.Seed, rc.MemoryMB, rc.Logging, true, rc.FlightRecorderCapacity))
	if err != nil {
		return nil, err
	}
	h.SetSchedFluxProb(hv.DefaultSchedFluxProb)

	world := guest.NewWorld(h, rc.Seed^0x5eed)
	world.StartPrivVM()

	img := &image{clk: clk, h: h, world: world, ws: core.NewWorkspace(h)}
	img.det = detect.New(h, func(e detect.Event) {
		if img.engine != nil {
			img.engine.OnDetection(e)
		}
	})
	img.det.Start()

	switch rc.Setup {
	case OneAppVM:
		img.appCfgs = []guest.Config{
			{Kind: rc.Workload, Dom: unixDom, CPU: unixCPU, Duration: rc.BenchDuration, HVM: rc.HVM},
		}
	default:
		img.appCfgs = []guest.Config{
			{Kind: guest.UnixBench, Dom: unixDom, CPU: unixCPU, Duration: rc.BenchDuration, HVM: rc.HVM},
			{Kind: guest.NetBench, Dom: netDom, CPU: netCPU, Duration: rc.BenchDuration},
		}
	}
	for _, cfg := range img.appCfgs {
		if _, err := world.CreateAppVM(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	img.snap = h.Snapshot()
	img.wsnap = world.Snapshot()
	return img, nil
}
