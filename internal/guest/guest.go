// Package guest models the virtual machines and the synthetic benchmarks
// of the paper's evaluation (§VI-A): BlkBench (block-interface stress),
// UnixBench (hypercall/VM-management stress), and NetBench (a 1 ms UDP
// request/reply service whose sender runs on a separate physical host).
//
// Guests drive the hypervisor exactly the way real PV guests do: through
// hypercalls, forwarded syscalls, grant/event-channel I/O paths, and
// timer-based blocking. Their request mixes are what determine the
// hypervisor-activity occupancy fractions that the recovery experiments
// depend on.
package guest

import (
	"fmt"
	"strings"
	"time"

	"nilihype/internal/evtchn"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
	"nilihype/internal/hypercall"
	"nilihype/internal/prng"
)

// Kind selects a benchmark.
type Kind int

// Benchmarks.
const (
	BlkBench Kind = iota + 1
	UnixBench
	NetBench
)

// kindNames is the one name table for benchmarks.
var kindNames = [...]string{BlkBench: "BlkBench", UnixBench: "UnixBench", NetBench: "NetBench"}

// String returns the benchmark name.
func (k Kind) String() string {
	if k <= 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a benchmark from its name, ignoring case.
func ParseKind(name string) (Kind, error) {
	for k := BlkBench; int(k) < len(kindNames); k++ {
		if strings.EqualFold(name, kindNames[k]) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

// Config describes one AppVM and its benchmark.
type Config struct {
	Kind     Kind
	Dom      int
	CPU      int
	MemPages int
	// HVM runs the guest under full hardware virtualization: kernel
	// memory management reaches the hypervisor as EPT-violation VM
	// exits and device accesses as emulated I/O, instead of PV
	// hypercalls and forwarded syscalls. I/O rings (grants, event
	// channels) remain PV, as with Xen PVHVM guests. The paper reports
	// injection results for HVM AppVMs "very similar" to PV (§VI-A).
	HVM bool
	// Duration is the benchmark run length (paper: ~10 s for 1AppVM,
	// ~24 s for 3AppVM; scaled down by default for campaign speed).
	Duration time.Duration
	// IterPeriod is the workload pacing (time between iterations).
	IterPeriod time.Duration
}

// DefaultMemPages is the AppVM memory size (64 MB at 4 KiB pages).
const DefaultMemPages = 16384

// World wires guests, the external host, and the hypervisor together.
type World struct {
	H *hv.Hypervisor

	// apps is the AppVM set; a snapshot saves its membership and a
	// restore resets each VM for the next run.
	apps   map[int]*AppVM
	Sender *NetSender

	rng *prng.Stream

	// callFree and batchFree recycle completed hypercall and multicall
	// records (see pool.go).
	callFree  []*hypercall.Call
	batchFree []*hypercall.Call

	// privTickFn/privTickBodyFn are the PrivVM housekeeping callbacks
	// cached as method values: the tick fires every 5 ms of virtual time,
	// and rebuilding its closures each period would allocate on every tick.
	privTickFn     func()
	privTickBodyFn func()

	worldState
}

// worldState is the PrivVM guest's health.
type worldState struct {
	// privHung marks the PrivVM guest as hung: management hypercalls
	// stall (the housekeeping tick goes silent, domctl requests cannot be
	// issued) even though Dom0's hypervisor-side structures are intact.
	privHung bool
	// privTickLive tracks whether the housekeeping tick chain is armed,
	// so ResumePrivVM can re-arm a dead chain without double-scheduling a
	// live one.
	privTickLive bool
}

// NewWorld builds the guest world over a booted hypervisor and registers
// the event and NIC hooks.
func NewWorld(h *hv.Hypervisor, seed uint64) *World {
	w := &World{
		H:    h,
		apps: make(map[int]*AppVM),
		rng:  prng.NewStream(seed, 0x60e57),
	}
	h.SetEventHook(w.onEvent)
	h.SetNICRxHook(w.onPacket)
	w.privTickFn = w.privTick
	w.privTickBodyFn = w.privTickBody
	w.Sender = newNetSender(w)
	return w
}

// Reseed rewinds the world's RNG stream to the position NewWorld(h, seed)
// would start from. On a fresh world it is a no-op; the campaign's
// snapshot-fork path uses it so forked runs draw the same per-VM seeds a
// cold boot would.
func (w *World) Reseed(seed uint64) { w.rng.Reseed(seed, 0x60e57) }

// AddAppVM creates the domain and its workload. Call Start (or StartAll)
// to begin the benchmark.
func (w *World) AddAppVM(cfg Config) (*AppVM, error) {
	vm, err := w.CreateAppVM(cfg)
	if err != nil {
		return nil, err
	}
	w.SeedAppVM(cfg.Dom)
	return vm, nil
}

// CreateAppVM creates the domain and its workload shell without drawing
// any randomness — the shape-only half of AddAppVM. The campaign's
// snapshot-fork path runs it once per image (before the snapshot) and then
// SeedAppVM once per run, so the image is seed-independent.
func (w *World) CreateAppVM(cfg Config) (*AppVM, error) {
	if cfg.MemPages == 0 {
		cfg.MemPages = DefaultMemPages
	}
	if cfg.IterPeriod == 0 {
		cfg.IterPeriod = defaultIterPeriod(cfg.Kind)
	}
	if err := w.H.CreateDomain(cfg.Dom, cfg.Kind.String(), cfg.MemPages, cfg.CPU, false); err != nil {
		return nil, fmt.Errorf("guest: %w", err)
	}
	vm := &AppVM{W: w, Cfg: cfg}
	w.apps[cfg.Dom] = vm
	return vm, nil
}

// SeedAppVM draws domain dom's per-run randomness: the workload RNG and,
// for BlkBench, the file-content seed. The draw order matches AddAppVM
// exactly, so calling CreateAppVM+SeedAppVM for each VM in creation order
// consumes the world stream identically to the legacy combined path.
func (w *World) SeedAppVM(dom int) {
	vm := w.apps[dom]
	if vm == nil {
		return
	}
	vm.rng = prng.New(w.rng.Uint64(), uint64(vm.Cfg.Dom))
	if vm.Cfg.Kind == BlkBench {
		if vm.Files != nil {
			// Forked-run path: the store survives resetForRun so its map
			// is reused instead of reallocated every run.
			vm.Files.Reset(w.rng.Uint64())
		} else {
			vm.Files = NewFileStore(w.rng.Uint64())
		}
	}
}

// AttachAppVM wraps an already-created domain (e.g. one built by a PrivVM
// domctl hypercall after recovery) with a workload.
func (w *World) AttachAppVM(cfg Config) *AppVM {
	if cfg.IterPeriod == 0 {
		cfg.IterPeriod = defaultIterPeriod(cfg.Kind)
	}
	vm := &AppVM{W: w, Cfg: cfg}
	vm.rng = prng.New(w.rng.Uint64(), uint64(cfg.Dom))
	if cfg.Kind == BlkBench {
		vm.Files = NewFileStore(w.rng.Uint64())
	}
	w.apps[cfg.Dom] = vm
	return vm
}

// App returns the AppVM for a domain, or nil.
func (w *World) App(dom int) *AppVM { return w.apps[dom] }

// Apps returns all AppVMs in domain-ID order.
func (w *World) Apps() []*AppVM {
	var out []*AppVM
	for id := 0; id < 1024; id++ {
		if vm, ok := w.apps[id]; ok {
			out = append(out, vm)
		}
	}
	return out
}

// StartAll starts every attached benchmark.
func (w *World) StartAll() {
	for _, vm := range w.Apps() {
		vm.Start()
	}
}

// CorruptGuestData models silent data corruption reaching a guest: its
// benchmark output no longer matches the golden copy (§VI-A failure
// criterion 1). For BlkBench the corruption lands in an actual stored
// file, caught mechanically by the golden comparison; for the other
// benchmarks (whose outputs are syscall logs) the corrupted-output flag
// stands in.
func (w *World) CorruptGuestData(dom int) {
	vm := w.apps[dom]
	if vm == nil {
		return
	}
	if vm.Files != nil {
		vm.Files.Corrupt(w.rng.Uint64())
		return
	}
	vm.OutputCorrupted = true
}

// onEvent routes event-channel notifications to workloads by the port's
// binding: block-completion VIRQ ports drive the BlkBench completion
// path; ring-notification acks are absorbed.
func (w *World) onEvent(domID, port int) {
	vm := w.apps[domID]
	if vm == nil {
		return
	}
	d, err := w.H.Domain(domID)
	if err != nil {
		return
	}
	p, err := d.Events.Port(port)
	if err != nil {
		return
	}
	d.Events.ClearPending()
	if p.State == evtchn.VIRQBound && p.VIRQ == evtchn.VIRQBlock {
		vm.onBlockComplete()
	}
}

// onPacket routes NIC receive interrupts to the NetBench receiver.
func (w *World) onPacket(p hw.Packet) {
	vm := w.apps[p.Flow]
	if vm == nil || vm.Cfg.Kind != NetBench {
		return
	}
	vm.onNetPacket(p)
}

func defaultIterPeriod(k Kind) time.Duration {
	switch k {
	case BlkBench:
		return 1500 * time.Microsecond
	case UnixBench:
		return 1200 * time.Microsecond
	default:
		return time.Millisecond
	}
}
