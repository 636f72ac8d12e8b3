package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nilihype/internal/dom"
	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/guest"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/journal"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/simclock"
	"nilihype/internal/telemetry"
	"nilihype/internal/xentime"
)

// field returns the type of t's field name, for the live types a package
// does not export.
func field(t reflect.Type, name string) reflect.Type {
	f, ok := t.FieldByName(name)
	if !ok {
		panic(t.String() + " has no field " + name)
	}
	return f.Type
}

// liveTypes are the types whose mutable fields hv.Restore and
// World.Restore must rewind. mm.FrameTable is left out: it restores
// through its dirty-chunk overlay instead of a state value.
var liveTypes = []reflect.Type{
	reflect.TypeFor[simclock.Clock](), reflect.TypeFor[simclock.Event](),
	reflect.TypeFor[hw.Machine](), reflect.TypeFor[hw.CPU](), reflect.TypeFor[hw.IOAPIC](),
	reflect.TypeFor[hw.BlockDevice](), reflect.TypeFor[hw.NIC](),
	reflect.TypeFor[locking.Registry](), reflect.TypeFor[locking.Lock](),
	reflect.TypeFor[mm.Heap](), reflect.TypeFor[mm.Object](),
	reflect.TypeFor[sched.Scheduler](), field(reflect.TypeFor[sched.Scheduler](), "cpus").Elem(),
	reflect.TypeFor[sched.VCPU](),
	reflect.TypeFor[xentime.Subsystem](), reflect.TypeFor[xentime.Timer](),
	reflect.TypeFor[dom.List](), reflect.TypeFor[dom.Domain](),
	reflect.TypeFor[evtchn.Broker](), reflect.TypeFor[evtchn.Table](),
	reflect.TypeFor[grant.Table](), reflect.TypeFor[grant.Maptrack](),
	reflect.TypeFor[hv.Hypervisor](), reflect.TypeFor[hv.PerCPU](), reflect.TypeFor[hv.Console](),
	reflect.TypeFor[telemetry.Telemetry](), reflect.TypeFor[journal.Journal](),
	reflect.TypeFor[guest.World](), reflect.TypeFor[guest.AppVM](), reflect.TypeFor[guest.NetSender](),
}

const (
	boot      = "boot wiring: set at construction or boot, before the image is captured, and never reassigned"
	config    = "configuration fixed at construction"
	scratch   = "scratch or cache that is rebuilt or checked before it is read"
	objects   = "membership of objects saved one by one, each with its own state value"
	component = "a component with its own state value and snapshot"
)

// outsideState lists every field of a live type that sits outside the
// type's state value, with the reason a restore need not copy it. A new
// field must go in the state value or here.
var outsideState = map[string]string{
	"simclock.Clock.queue": objects,
	"simclock.Clock.free":  "the recycled events: Restore drops the revived ones from it",

	"hw.Machine.Clock":          component,
	"hw.Machine.cpus":           boot,
	"hw.Machine.ioapic":         component,
	"hw.Machine.block":          component,
	"hw.Machine.nic":            component,
	"hw.Machine.pageFrames":     config,
	"hw.Machine.sink":           boot,
	"hw.CPU.ID":                 config,
	"hw.CPU.machine":            boot,
	"hw.CPU.apicTag":            boot,
	"hw.CPU.perfTag":            boot,
	"hw.CPU.apicFn":             boot,
	"hw.CPU.perfFn":             boot,
	"hw.IOAPIC.machine":         boot,
	"hw.IOAPIC.bootLines":       "the software copy of the table, written at the end of boot and only read after",
	"hw.BlockDevice.machine":    boot,
	"hw.BlockDevice.svc":        config,
	"hw.BlockDevice.completeFn": boot,
	"hw.BlockDevice.spare":      "drain buffer: its contents are dead until the next drain overwrites them",
	"hw.BlockDevice.tags":       scratch,
	"hw.NIC.machine":            boot,
	"hw.NIC.lat":                config,
	"hw.NIC.rxArriveFn":         boot,
	"hw.NIC.txArriveFn":         boot,
	"hw.NIC.rxSpare":            "drain buffer: its contents are dead until the next drain overwrites them",
	"hw.NIC.txSink":             boot,

	"locking.Registry.static": objects,
	"locking.Registry.heap":   objects,
	"locking.Lock.name":       config,
	"locking.Lock.kind":       config,

	"mm.Heap.ft":          boot,
	"mm.Heap.locks":       boot,
	"mm.Heap.start":       config,
	"mm.Heap.count":       config,
	"mm.Heap.objects":     objects,
	"mm.Heap.seen":        scratch,
	"mm.Heap.seenOutside": scratch,
	"mm.Object.ID":        config,

	"sched.Scheduler.cpus":  "fixed per-CPU array; each element has its own state value",
	"sched.Scheduler.vcpus": objects,
	"sched.Scheduler.tel":   boot,
	"sched.percpu.lock":     boot,
	"sched.percpu.op":       "the in-flight switch record; a snapshot is taken with no switch in flight",
	"sched.VCPU.Domain":     config,
	"sched.VCPU.ID":         config,

	"xentime.Subsystem.apic":         boot,
	"xentime.Subsystem.heaps":        objects,
	"xentime.Subsystem.dueScratch":   scratch,
	"xentime.Subsystem.recurScratch": scratch,
	"xentime.Timer.Name":             config,
	"xentime.Timer.Fn":               config,
	"xentime.Timer.runLabel":         config,
	"xentime.Timer.rearmLabel":       config,

	"dom.List.domains":         objects,
	"dom.List.head":            "list link: Restore relinks the list from the saved order",
	"dom.Domain.next":          "list link: Restore relinks the list from the saved order",
	"dom.Domain.ID":            config,
	"dom.Domain.Name":          config,
	"dom.Domain.IsPriv":        config,
	"dom.Domain.MemStart":      config,
	"dom.Domain.MemCount":      config,
	"dom.Domain.Obj":           boot,
	"dom.Domain.PageAllocLock": boot,
	"dom.Domain.GrantLock":     boot,
	"dom.Domain.Events":        component,
	"dom.Domain.GrantTab":      component,
	"dom.Domain.Maptrack":      component,
	"dom.Domain.WakeupPool":    "allocation pool: the record is re-armed with a full schedule on every use",

	"evtchn.Table.owner": config,

	"grant.Table.owner":    config,
	"grant.Maptrack.owner": config,

	"hv.Hypervisor.Clock":          component,
	"hv.Hypervisor.Machine":        component,
	"hv.Hypervisor.Locks":          component,
	"hv.Hypervisor.Frames":         "the frame table: restored through its own dirty-chunk overlay",
	"hv.Hypervisor.Heap":           component,
	"hv.Hypervisor.Sched":          component,
	"hv.Hypervisor.Timers":         component,
	"hv.Hypervisor.Domains":        component,
	"hv.Hypervisor.Broker":         component,
	"hv.Hypervisor.Cons":           component,
	"hv.Hypervisor.Tel":            component,
	"hv.Hypervisor.Jrn":            component,
	"hv.Hypervisor.percpu":         "fixed per-CPU array; each element has its own state value",
	"hv.Hypervisor.Statics":        boot,
	"hv.Hypervisor.RNG":            "RNG handle: ReseedRun rewinds its stream",
	"hv.Hypervisor.rngStream":      "RNG handle: ReseedRun rewinds its stream",
	"hv.Hypervisor.irqActivityIDs": scratch,
	"hv.Hypervisor.injectFn": "read only while injectArmed is set, and injectArmed restores to false: " +
		"every image is captured before injection is armed",
	"hv.Hypervisor.panicHook":     boot,
	"hv.Hypervisor.nmiHook":       boot,
	"hv.Hypervisor.eventHook":     boot,
	"hv.Hypervisor.nicRxHook":     boot,
	"hv.Hypervisor.schedFluxProb": "configuration set before the image is captured",
	"hv.PerCPU.ID":                config,
	"hv.PerCPU.Env":               "handler environment: Restore resets its program state and restores its undo counters",
	"hv.PerCPU.schedTick":         boot,
	"hv.PerCPU.irqFixedSteps":     boot,
	"hv.PerCPU.irqProg":           "step buffer: only read while InIRQProgram is set, which a snapshot never is",
	"hv.PerCPU.irqPkts":           "RX batch: only read while InIRQProgram is set, which a snapshot never is",
	"hv.Console.cap":              config,

	"telemetry.Telemetry.OpNames": boot,
	"telemetry.Telemetry.now":     boot,
	"telemetry.Telemetry.strIDs":  "intern index: Restore cuts it back with the table",

	"journal.Journal.strIDs": "intern index: Restore cuts it back with the table",

	"guest.World.H":               boot,
	"guest.World.Sender":          component,
	"guest.World.apps":            "membership saved by the world snapshot; each VM is reset for the run",
	"guest.World.rng":             "RNG handle: Reseed rewinds its stream",
	"guest.World.callFree":        "allocation pool",
	"guest.World.batchFree":       "allocation pool",
	"guest.World.privTickFn":      boot,
	"guest.World.privTickBodyFn":  boot,
	"guest.AppVM.W":               boot,
	"guest.AppVM.Cfg":             config,
	"guest.AppVM.Files":           "reset and reseeded by SeedAppVM every run",
	"guest.AppVM.procs":           "run state kept as a pool: resetForRun empties it",
	"guest.AppVM.inFlight":        "run state kept as a pool: resetForRun empties it",
	"guest.AppVM.iterFn":          scratch,
	"guest.AppVM.runFn":           scratch,
	"guest.AppVM.pinScratch":      scratch,
	"guest.AppVM.gotScratch":      scratch,
	"guest.NetSender.w":           boot,
	"guest.NetSender.period":      config,
	"guest.NetSender.intervalLen": config,
	"guest.NetSender.sendFn":      boot,
}

// isState reports whether f is a type's embedded state value.
func isState(f reflect.StructField) bool {
	return f.Anonymous && strings.HasSuffix(f.Type.Name(), "State")
}

// TestStateFieldsClassified holds every live type to one rule: a field is
// in the type's state value, which Snapshot copies, or it is listed in
// outsideState with the reason no restore needs it. A mutable field added
// outside the state value fails here before any fork test has to reach it.
func TestStateFieldsClassified(t *testing.T) {
	seen := make(map[string]bool)
	for _, ty := range liveTypes {
		states := 0
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if isState(f) {
				states++
				continue
			}
			key := ty.String() + "." + f.Name
			seen[key] = true
			if _, ok := outsideState[key]; !ok {
				t.Errorf("%s is outside %s's state value and not in outsideState", key, ty)
			}
		}
		if states > 1 {
			t.Errorf("%s embeds %d state values, want at most one", ty, states)
		}
	}
	for key := range outsideState {
		if !seen[key] {
			t.Errorf("outsideState lists %s, which is not a field outside a live type's state value", key)
		}
	}
}

// TestRestoreRoundTrip is the snapshot's property test: after runs of
// every fork-equivalence shape, Restore must leave every component's state
// equal to what the image captured, so a snapshot taken right after the
// restore equals the image's. Live objects compare by identity, funcs by
// code pointer.
func TestRestoreRoundTrip(t *testing.T) {
	for _, shape := range forkShapes() {
		rc := shape.rc
		t.Run(shape.name, func(t *testing.T) {
			img, err := buildImage(rc)
			if err != nil {
				t.Fatalf("buildImage: %v", err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				rc.Seed = seed
				img.run(rc)
				img.h.Restore(img.snap)
				img.world.Restore(img.wsnap)
				if err := sameValue(reflect.ValueOf(img.snap), reflect.ValueOf(img.h.Snapshot()), "hv"); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := sameValue(reflect.ValueOf(img.wsnap), reflect.ValueOf(img.world.Snapshot()), "world"); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// sameValue compares two snapshot values and names the first difference.
// It follows pointers only into snapshot types; any other pointer names a
// live object, which a restore must revive in place, so it compares by
// identity. Slices compare by contents, with nil equal to empty.
func sameValue(a, b reflect.Value, path string) error {
	differ := func() error { return fmt.Errorf("%s differs after restore", path) }
	switch a.Kind() {
	case reflect.Pointer:
		if a.Pointer() == b.Pointer() {
			return nil
		}
		if a.IsNil() || b.IsNil() || !strings.HasSuffix(a.Type().Elem().Name(), "Snapshot") {
			return differ()
		}
		return sameValue(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameValue(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s has length %d after restore, want %d", path, b.Len(), a.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s has %d entries after restore, want %d", path, b.Len(), a.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Errorf("%s lost an entry after restore", path)
			}
			if err := sameValue(it.Value(), bv, path+"[key]"); err != nil {
				return err
			}
		}
	case reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() || (a.Kind() != reflect.Interface && a.Pointer() != b.Pointer()) {
			return differ()
		}
		if a.Kind() == reflect.Interface && !a.IsNil() {
			return sameValue(a.Elem(), b.Elem(), path)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ()
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ()
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return differ()
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return differ()
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ()
		}
	default:
		return fmt.Errorf("%s: cannot compare kind %s", path, a.Kind())
	}
	return nil
}
