package core_test

import (
	"fmt"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/detect"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hypercall"
	"nilihype/internal/locking"
	"nilihype/internal/simclock"
)

// Example_faultDrill is the paper's §IV non-idempotent hypercall made
// visible: a fail-stop fault lands inside an mmu_update pin after the page
// reference count was taken but before the hypercall completed. It prints
// the hazard state the recovery engine faces (half-updated descriptor,
// held lock, pending undo record), then walks the microreset and the
// hypercall retry to completion.
func Example_faultDrill() {
	clk := simclock.New()
	h, err := hv.New(clk, hv.DefaultConfig())
	if err != nil {
		panic(err)
	}
	if err := h.Boot(); err != nil {
		panic(err)
	}
	world := guest.NewWorld(h, 1)
	if _, err := world.AddAppVM(guest.Config{Kind: guest.UnixBench, Dom: 1, CPU: 1, Duration: 2 * time.Second}); err != nil {
		panic(err)
	}
	engine := core.NewEngine(h, core.DefaultConfig())
	engine.Det = detect.New(h, engine.OnDetection)
	engine.Det.Start()
	clk.RunUntil(100 * time.Millisecond)

	d, err := h.Domain(1)
	if err != nil {
		panic(err)
	}
	pfn := d.MemStart + 123
	frame := h.Frames.Frame(pfn)
	state := func(label string) {
		fmt.Printf("%s: UseCount=%d Validated=%v page_alloc held=%v local_irq_count=%d\n", label,
			frame.UseCount, frame.Validated, d.PageAllocLock.Owner() != locking.NoOwner, h.PerCPU(1).LocalIRQCount)
	}

	// entry(150) + lock(40) + inc_refcount(60) = 250 instructions: the
	// fault hits write_pte with the count already taken.
	h.ArmInjection(260, func(pt hv.InjectionPoint) (hv.InjectAction, string) {
		fmt.Printf("fault lands in %s at step %q\n", pt.Activity, pt.StepName)
		state("at the fault")
		for _, l := range pt.HeldLocks {
			fmt.Printf("  held by the dying thread: %s (%v)\n", l.Name(), l.Kind())
		}
		fmt.Printf("  undo records pending: %d\n", h.PerCPU(1).Env.Undo.Len())
		return hv.ActionPanic, "failstop (drill)"
	})
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpMMUUpdate, Dom: 1,
		Args: [4]uint64{hypercall.MMUPin, uint64(pfn)}})
	state("after the repairs")

	clk.RunUntil(clk.Now() + 500*time.Millisecond)
	fmt.Printf("engine %v in %v (detected: %v)\n", engine.Status(), engine.Latency, engine.FirstDetection)
	state("after the retry")
	fmt.Printf("hypercalls retried: %d\n", h.Stats.RetriedCalls)

	// Output:
	// fault lands in hypercall:mmu_update at step "write_pte"
	// at the fault: UseCount=1 Validated=false page_alloc held=true local_irq_count=0
	//   held by the dying thread: domain1.page_alloc_lock (heap)
	//   undo records pending: 1
	// after the repairs: UseCount=1 Validated=true page_alloc held=false local_irq_count=0
	// engine recovered in 22ms (detected: panic on cpu1 at 100ms: failstop (drill))
	// after the retry: UseCount=1 Validated=true page_alloc held=false local_irq_count=0
	// hypercalls retried: 1
}
