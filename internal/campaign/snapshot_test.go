package campaign

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
	"nilihype/internal/mm"
)

// assertForkMatchesCold runs rc once cold-booted and once forked from a
// shared boot image for every seed, and requires bit-identical Results.
// The first img.run consumes the fresh boot and the later ones restore the
// snapshot, so both image paths are exercised.
func assertForkMatchesCold(t *testing.T, rc RunConfig, seeds []uint64) {
	t.Helper()
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	for _, seed := range seeds {
		rc.Seed = seed
		cold := Run(rc)
		forked := img.run(rc)
		if !reflect.DeepEqual(cold, forked) {
			t.Fatalf("seed %d: forked run differs from cold boot:\n cold:   %+v\n forked: %+v",
				seed, cold, forked)
		}
	}
}

func TestSnapshotForkMatchesColdBoot1AppVMFailstop(t *testing.T) {
	rc := fastCfg(inject.Failstop, core.Microreset)
	rc.Setup = OneAppVM
	rc.Workload = guest.UnixBench
	assertForkMatchesCold(t, rc, []uint64{1, 2, 3})
}

func TestSnapshotForkMatchesColdBoot1AppVMRegisterNetBench(t *testing.T) {
	rc := fastCfg(inject.Register, core.Microreset)
	rc.Setup = OneAppVM
	rc.Workload = guest.NetBench
	assertForkMatchesCold(t, rc, []uint64{1, 2, 3})
}

func TestSnapshotForkMatchesColdBoot3AppVMFailstop(t *testing.T) {
	assertForkMatchesCold(t, fastCfg(inject.Failstop, core.Microreset), []uint64{1, 2, 3})
}

func TestSnapshotForkMatchesColdBoot3AppVMRegister(t *testing.T) {
	assertForkMatchesCold(t, fastCfg(inject.Register, core.Microreset), []uint64{1, 2, 3})
}

func TestSnapshotForkMatchesColdBootMicroreboot(t *testing.T) {
	assertForkMatchesCold(t, fastCfg(inject.Code, core.Microreboot), []uint64{1, 2})
}

// The adversarial shape covers burst faults, fault-during-recovery, the
// hybrid escalation ladder and the audit walks — the densest consumers of
// restored state.
func TestSnapshotForkMatchesColdBootAdversarial(t *testing.T) {
	assertForkMatchesCold(t, adversarialCfg(), []uint64{1, 2, 3})
}

func TestSnapshotForkMatchesColdBootHVM(t *testing.T) {
	rc := fastCfg(inject.Register, core.Microreset)
	rc.Setup = OneAppVM
	rc.HVM = true
	assertForkMatchesCold(t, rc, []uint64{1, 2})
}

// fullWalkInconsistent is the frame-table consistency walk over every
// descriptor, written against the by-value accessor alone: it shares no
// code with the table's dirty set, which is what it checks.
func fullWalkInconsistent(ft *mm.FrameTable) []int {
	var out []int
	for i := 0; i < ft.Len(); i++ {
		if f := ft.At(i); f.Type == mm.FramePageTable && (f.UseCount > 0) != f.Validated {
			out = append(out, i)
		}
	}
	return out
}

// forkShapes are the configurations the fork-equivalence tests cover,
// one image shape each.
func forkShapes() []struct {
	name string
	rc   RunConfig
} {
	oneVM := func(fault inject.FaultType, wl guest.Kind, hvm bool) RunConfig {
		rc := fastCfg(fault, core.Microreset)
		rc.Setup, rc.Workload, rc.HVM = OneAppVM, wl, hvm
		return rc
	}
	return []struct {
		name string
		rc   RunConfig
	}{
		{"1vm-failstop", oneVM(inject.Failstop, guest.UnixBench, false)},
		{"1vm-register", oneVM(inject.Register, guest.NetBench, false)},
		{"1vm-hvm", oneVM(inject.Register, guest.UnixBench, true)},
		{"3vm-failstop", fastCfg(inject.Failstop, core.Microreset)},
		{"3vm-register", fastCfg(inject.Register, core.Microreset)},
		{"microreboot", fastCfg(inject.Code, core.Microreboot)},
		{"adversarial", adversarialCfg()},
		{"privvm-restart", ladderCfg(inject.PrivVMCrash)},
		{"parallel-repair", parallelRepairCfg(inject.Code, ThreeAppVM)},
	}
}

// TestSnapshotForkDirtySetMatchesFullWalk holds the dirty-chunk frame
// table to two oracles that ignore the dirty set, after every run of every
// shape the fork-equivalence tests cover: the incremental consistency scan
// must report exactly what a walk over all descriptors finds, and a
// restore must leave every descriptor equal to the pristine table, not
// just the ones in chunks the run is known to have touched. A write path
// that forgets to mark (Frame, AssignRange, CorruptRandomDescriptor) fails
// one or the other. The parallel-repair shape also puts the one-lane
// marking rule under -race.
func TestSnapshotForkDirtySetMatchesFullWalk(t *testing.T) {
	for _, shape := range forkShapes() {
		rc := shape.rc
		t.Run(shape.name, func(t *testing.T) {
			img, err := buildImage(rc)
			if err != nil {
				t.Fatalf("buildImage: %v", err)
			}
			ft := img.h.Frames
			pristine := make([]mm.PageFrame, ft.Len())
			for i := range pristine {
				pristine[i] = ft.At(i)
			}
			// Ten seeds: the code-fault shapes first corrupt a descriptor in
			// a chunk nothing else touched at seeds 7 and 9.
			for seed := uint64(1); seed <= 10; seed++ {
				rc.Seed = seed
				img.run(rc)
				if got, want := ft.InconsistentFrames(), fullWalkInconsistent(ft); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: dirty-chunk scan found %v, full walk %v", seed, got, want)
				}
				img.h.Restore(img.snap)
				img.world.Restore(img.wsnap)
				for i, want := range pristine {
					if got := ft.At(i); got != want {
						t.Fatalf("seed %d: frame %d is %+v after restore, pristine %+v", seed, i, got, want)
					}
				}
				if bad := ft.InconsistentFrames(); len(bad) != 0 {
					t.Fatalf("seed %d: restored table reports inconsistent frames %v", seed, bad)
				}
			}
		})
	}
}

// executeCold is the fork path's reference Summary: c's seeds, each
// cold-booted through Run, aggregated the way a one-worker Execute does.
func executeCold(c Campaign) Summary {
	s := Summary{Config: c.Base, Runs: c.Runs,
		FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	p := Summary{FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	for i := 0; i < c.Runs; i++ {
		rc := c.Base
		rc.Seed = c.SeedBase + uint64(i+1)
		p.add(Run(rc))
	}
	s.merge(&p)
	return s
}

// TestCampaignSummaryIdenticalSnapshotVsColdBoot is the boot-once
// executor's correctness bar: the campaign Summary must be bit-identical
// to the one aggregated from cold-booted runs, at any parallelism.
func TestCampaignSummaryIdenticalSnapshotVsColdBoot(t *testing.T) {
	oneVM := fastCfg(inject.Failstop, core.Microreset)
	oneVM.Setup = OneAppVM
	bases := []RunConfig{
		oneVM,
		fastCfg(inject.Register, core.Microreset),
		adversarialCfg(),
	}
	for _, base := range bases {
		ref := executeCold(Campaign{Base: base, Runs: 6})
		for _, par := range []int{1, 4} {
			c := Campaign{Base: base, Runs: 6, Parallelism: par}
			if s := c.Execute(); !reflect.DeepEqual(ref, s) {
				t.Fatalf("%v %v: forked summary differs from cold boot (par=%d):\n ref: %+v\n got: %+v",
					base.Setup, base.Fault, par, ref, s)
			}
		}
	}
}

// TestForkedRunTelemetryMatchesColdBoot extends the fork-equivalence bar
// to the always-on telemetry: a forked run must produce bit-identical
// metric values (counters, gauges, histograms) AND bit-identical
// flight-recorder contents to a cold boot with the same seed — i.e. the
// snapshot restore rewinds the registry and ring to pristine, and the
// replayed run re-fills them identically (including intern IDs, which the
// flight events' string arguments embed).
func TestForkedRunTelemetryMatchesColdBoot(t *testing.T) {
	rc := adversarialCfg()
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		rc.Seed = seed
		_, coldTel, _ := TraceRun(rc) // fresh image every call = cold boot
		forkedRes := img.run(rc)
		forkTel := img.h.Tel
		if forkTel.Counters != coldTel.Counters {
			t.Fatalf("seed %d: counters differ:\n cold:   %v\n forked: %v",
				seed, coldTel.Counters, forkTel.Counters)
		}
		if forkTel.Gauges != coldTel.Gauges {
			t.Fatalf("seed %d: gauges differ:\n cold:   %v\n forked: %v",
				seed, coldTel.Gauges, forkTel.Gauges)
		}
		if forkTel.Hists != coldTel.Hists {
			t.Fatalf("seed %d: histograms differ", seed)
		}
		if !reflect.DeepEqual(forkTel.Flight.Events(), coldTel.Flight.Events()) {
			t.Fatalf("seed %d: flight-recorder contents differ:\n cold:\n%v\n forked:\n%v",
				seed, coldTel.FlightTail(coldTel.Flight.Len()), forkTel.FlightTail(forkTel.Flight.Len()))
		}
		// The rendered tails (which resolve intern IDs to strings) must
		// agree too — a mismatch here with matching events would mean the
		// intern table drifted between the paths.
		if !reflect.DeepEqual(forkTel.FlightTail(forkTel.Flight.Len()), coldTel.FlightTail(coldTel.Flight.Len())) {
			t.Fatalf("seed %d: rendered flight tails differ", seed)
		}
		if forkedRes.Detected && !forkedRes.Success && len(forkedRes.Flight) == 0 {
			t.Fatalf("seed %d: failed run carried no flight tail", seed)
		}
	}
}

// TestRestoreIsAllocationFree guards the fork path's whole point: rolling
// a dirty post-run system back to pristine must reuse the pooled arenas,
// not allocate fresh ones.
func TestRestoreIsAllocationFree(t *testing.T) {
	rc := fastCfg(inject.Register, core.Microreset)
	img, err := buildImage(rc)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		rc.Seed = seed
		img.run(rc)
	}
	allocs := testing.AllocsPerRun(10, func() {
		img.h.Restore(img.snap)
		img.world.Restore(img.wsnap)
	})
	if allocs > 0 {
		t.Fatalf("Restore allocates %.1f objects/run, want 0", allocs)
	}
}

// TestImageBytesIndependentOfMemory: boot writes the same descriptors
// whatever the memory size, and the frame table stores only the segments
// written, so building the 8 GB benchmark shape's boot image allocates
// about as much at 1 GB as at 64 GB. A table stored in full, live and
// snapshot, costs 16 MB more at 8 GB and 128 MB more at 64 GB.
func TestImageBytesIndependentOfMemory(t *testing.T) {
	rc := ThroughputBenchConfig()
	rc.Workload = guest.NetBench
	rc.BenchDuration = time.Second
	var mb []float64
	for _, memoryMB := range []int{1024, 8192, 65536} {
		rc.MemoryMB = memoryMB
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := buildImage(rc); err != nil {
			t.Fatalf("buildImage at %d MB: %v", memoryMB, err)
		}
		runtime.ReadMemStats(&after)
		mb = append(mb, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	t.Logf("image build allocates %.2f / %.2f / %.2f MB at 1 / 8 / 64 GB", mb[0], mb[1], mb[2])
	if lo, hi := slices.Min(mb), slices.Max(mb); hi > 1.1*lo {
		t.Fatal("want the three within 10% of each other")
	}
}

// BenchmarkSnapshotRestore times a bare snapshot restore. Only the first
// iteration finds anything dirty; the rest measure the restore's floor.
func BenchmarkSnapshotRestore(b *testing.B) {
	rc := ThroughputBenchConfig()
	img, err := buildImage(rc)
	if err != nil {
		b.Fatalf("buildImage: %v", err)
	}
	rc.Seed = 1
	img.run(rc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.h.Restore(img.snap)
		img.world.Restore(img.wsnap)
	}
}

// BenchmarkSnapshotForkRun times a full forked run (restore + reseed +
// benchmark + fault + recovery + classification).
func BenchmarkSnapshotForkRun(b *testing.B) {
	rc := ThroughputBenchConfig()
	img, err := buildImage(rc)
	if err != nil {
		b.Fatalf("buildImage: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Seed = uint64(i + 1)
		img.run(rc)
	}
}

// TestSnapshotForkMixedImageMatchesColdBoot forks an adversarial run and
// then a plain hybrid code-fault run from one image, as the audit and
// hybrid commands do: both configs share an image key. The plain run must
// not inherit anything the adversarial one armed after the snapshot, such
// as the recovery-pause hook that injection installs.
func TestSnapshotForkMixedImageMatchesColdBoot(t *testing.T) {
	plain := fastCfg(inject.Code, core.Microreset)
	plain.Recovery = core.HybridConfig()
	adv := adversarialCfg()
	if keyOf(plain) != keyOf(adv) {
		t.Fatal("the two configs must share one image")
	}
	img, err := buildImage(plain)
	if err != nil {
		t.Fatalf("buildImage: %v", err)
	}
	for seed := uint64(1); seed <= 10; seed++ {
		adv.Seed = seed + 1000
		img.run(adv)
		plain.Seed = seed
		if cold, forked := Run(plain), img.run(plain); !reflect.DeepEqual(cold, forked) {
			t.Fatalf("seed %d: forked run after an adversarial one differs from cold boot:\n cold:   %+v\n forked: %+v",
				seed, cold, forked)
		}
	}
}
