// Package inject is the software-implemented fault injector — the
// equivalent of the Gigan injector the paper ports and uses (§VI-C).
//
// Faults are injected through a two-level chained trigger: a first-level
// timer that fires at a random time inside the configured window, and a
// second-level trigger that fires after a uniformly random number of
// instructions (0..20000) have executed in the target hypervisor. Three
// fault types are injected: Failstop (PC := 0), Register (one random bit
// flip in one of the 16 GPRs / SP / FLAGS / PC), and Code (a bit flip in
// the next instruction's bytes, "repaired" on detection so its effects are
// transient).
//
// The architectural consequence of a bit flip (masked / immediate
// exception / wedge / silent corruption with delayed detection / silent
// data corruption) is drawn from per-fault-type manifestation
// distributions whose parameters are the paper's own measured outcome
// breakdowns (§VII-A: Register 74.8/5.6/19.6, Code 35.0/12.1/52.9).
// Latent corruption is structural: the injector damages the real
// simulated structures (heap free list, domain links, timer heaps, lock
// words, event-channel and grant linkage…), and what happens *after* that
// — whether recovery succeeds — is decided mechanistically by the
// simulated hypervisor state.
//
// Two adversarial scenarios stress recovery itself: burst faults (a
// second independent fault within BurstWindow of the first) and
// faults-during-recovery (a second-level trigger armed when a recovery
// attempt pauses the system, landing in the recovery/resume path).
package inject

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"nilihype/internal/dom"
	"nilihype/internal/hv"
	"nilihype/internal/hw"
)

// FaultType selects what is injected.
type FaultType int

// Fault types (§VI-C), plus the broadened fault surface of the ReHype tech
// report: PrivVM failure and device (IO-APIC) corruption.
const (
	Failstop FaultType = iota + 1
	Register
	Code
	// PrivVMCrash kills Dom0 outright: the domain is gone and management
	// hypercalls fail fast. Detected by the management-call watchdog.
	PrivVMCrash
	// PrivVMHang wedges the Dom0 guest: management hypercalls stall
	// mid-flight (including during an in-progress recovery) with no
	// hypervisor-visible structural damage. Detected by the
	// management-call watchdog.
	PrivVMHang
	// DeviceIOAPIC corrupts the IO-APIC: a redirection-table entry is
	// scrambled or a line's delivery state machine is wedged
	// (pending-IRQ-route loss). Detected by the IRQ-delivery criterion.
	DeviceIOAPIC
)

// faultNames is the one name table for fault types: name is String(), key
// the lowercase command-line and fault-class spelling, alias what else a
// command line may say. ParseFaultType matches all three.
var faultNames = [...]struct{ name, key, alias string }{
	Failstop:     {name: "Failstop", key: "failstop"},
	Register:     {name: "Register", key: "register"},
	Code:         {name: "Code", key: "code"},
	PrivVMCrash:  {name: "PrivVM-Crash", key: "privvm-crash"},
	PrivVMHang:   {name: "PrivVM-Hang", key: "privvm-hang"},
	DeviceIOAPIC: {name: "IO-APIC", key: "ioapic", alias: "device"},
}

func (f FaultType) known() bool { return f > 0 && int(f) < len(faultNames) }

// String returns the fault type name.
func (f FaultType) String() string {
	if !f.known() {
		return fmt.Sprintf("fault(%d)", int(f))
	}
	return faultNames[f].name
}

// Key returns the lowercase spelling used on command lines and as the
// fault-class name ("other" for an unknown type).
func (f FaultType) Key() string {
	if !f.known() {
		return "other"
	}
	return faultNames[f].key
}

// ParseFaultType resolves a fault type from its name, key or alias,
// ignoring case.
func ParseFaultType(s string) (FaultType, error) {
	for f := Failstop; f.known(); f++ {
		n := faultNames[f]
		if strings.EqualFold(s, n.name) || strings.EqualFold(s, n.key) || (n.alias != "" && strings.EqualFold(s, n.alias)) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown fault type %q", s)
}

// GuestCorrupter lets the injector damage guest-visible data (the SDC
// path). Implemented by guest.World.
type GuestCorrupter interface {
	CorruptGuestData(dom int)
}

// PrivVMController is the optional world surface the PrivVM fault classes
// use: crash Dom0 or hang its guest. Implemented by guest.World; a World
// without it silently absorbs PrivVM faults (unit-test corrupters).
type PrivVMController interface {
	CrashPrivVM(reason string)
	HangPrivVM()
}

// Params configures one injection.
type Params struct {
	Type FaultType
	// WindowLo/WindowHi bound the first-level (timer) trigger. A
	// reversed window is normalized at Schedule.
	WindowLo, WindowHi time.Duration
	// MaxInstrBudget bounds the second-level trigger (paper: 20000).
	MaxInstrBudget int64
	// AppDomains are candidate victims for guest-data corruption.
	AppDomains []int

	// BurstWindow, when positive, arms a second independent fault at a
	// uniformly random delay within the window after the first fault
	// fires — the burst-fault adversarial scenario.
	BurstWindow time.Duration
	// BurstFault is the burst fault's type; zero means same as Type.
	BurstFault FaultType

	// FaultDuringRecovery arms a second-level trigger each time a
	// recovery attempt pauses the system (once per run), so the fault
	// lands inside the recovery/resume path.
	FaultDuringRecovery bool
	// DuringFault is the fault-during-recovery fault's type; zero means
	// same as Type. A PrivVM type here models the PrivVM failing while a
	// recovery is already in flight.
	DuringFault FaultType

	// CorrelatedReinjection re-injects into the same structural cell the
	// original latent corruption damaged, shortly after an audit accepts a
	// degraded verdict — the fault-while-degraded adversarial scenario
	// (once per run).
	CorrelatedReinjection bool
}

// DefaultMaxInstrBudget is the paper's second-level trigger bound.
const DefaultMaxInstrBudget = 20000

// Effect describes what the injected fault did architecturally.
type Effect int

// Effects.
const (
	EffectNone   Effect = iota + 1 // masked: dead register/bit
	EffectSDC                      // silently corrupted guest data
	EffectPanic                    // immediate fatal exception
	EffectWedge                    // wild execution, no progress
	EffectLatent                   // corrupted hypervisor state, detected later
)

// String returns the effect name.
func (e Effect) String() string {
	switch e {
	case EffectNone:
		return "none"
	case EffectSDC:
		return "sdc"
	case EffectPanic:
		return "panic"
	case EffectWedge:
		return "wedge"
	case EffectLatent:
		return "latent"
	default:
		return fmt.Sprintf("effect(%d)", int(e))
	}
}

// manifestDist is a manifestation distribution: the probabilities of each
// architectural effect; the remainder is EffectLatent.
type manifestDist struct {
	dead, sdc, immediate, wedge float64
}

// Distributions per fault type. Failstop is deterministic. Register and
// Code reproduce the paper's measured outcome breakdowns (§VII-A):
//   - Register: 74.8% non-manifested, 5.6% SDC, 19.6% detected
//     (immediate + wedge + latent = 0.118 + 0.020 + 0.058 = 0.196).
//   - Code: 35.0% non-manifested, 12.1% SDC, 52.9% detected
//     (0.250 + 0.060 + 0.219 = 0.529).
var (
	registerDist = manifestDist{dead: 0.748, sdc: 0.056, immediate: 0.118, wedge: 0.020}
	codeDist     = manifestDist{dead: 0.350, sdc: 0.121, immediate: 0.250, wedge: 0.060}
)

// Detection-latency bounds for latent corruption. Code faults are
// detected significantly later than register faults (§VII-A "likely due
// to the significantly longer detection latency of these faults"),
// giving errors more time to propagate.
const (
	registerLatencyLo = 200 * time.Microsecond
	registerLatencyHi = 5 * time.Millisecond
	codeLatencyLo     = 1 * time.Millisecond
	codeLatencyHi     = 50 * time.Millisecond
)

// corruptionDist gives the per-class probabilities of what latent
// corruption damages (the rest is scratch state with no further
// consequence). The classes map to the paper's top three recovery-failure
// causes (§VII-A) plus the mechanisms' repairable hazards.
type corruptionDist struct {
	pfDesc       float64 // page-frame descriptor (repaired by the scan)
	schedMeta    float64 // scheduling metadata (repaired by the enhancement)
	heapFreelist float64 // heap free list (reboot rebuilds; microreset keeps)
	domList      float64 // domain links (reboot relinks; microreset keeps)
	staticScr    float64 // static-segment state (reboot re-inits; microreset keeps)
	allocObj     float64 // live heap object (reused by BOTH mechanisms)
	privVM       float64 // PrivVM state (fatal: failure cause 2)
	recovery     float64 // recovery-path state (fatal: failure cause 1)
	timerHeap    float64 // timer deadline/heap damage (audit-repairable)
	evtchnLink   float64 // event-channel peer linkage (audit-repairable)
	grantCount   float64 // grant-entry mapping count (audit-repairable)
	lockTable    float64 // lock word held by a phantom owner (hang)
}

var (
	registerCorruption = corruptionDist{
		pfDesc: 0.28, schedMeta: 0.22, heapFreelist: 0.030, domList: 0.016,
		staticScr: 0.062, allocObj: 0.016, privVM: 0.012, recovery: 0.012,
		timerHeap: 0.020, evtchnLink: 0.010, grantCount: 0.008, lockTable: 0.010,
	}
	// Code faults propagate further before detection: more damage lands
	// in fatal and reboot-only-recoverable state.
	codeCorruption = corruptionDist{
		pfDesc: 0.24, schedMeta: 0.20, heapFreelist: 0.030, domList: 0.016,
		staticScr: 0.045, allocObj: 0.028, privVM: 0.016, recovery: 0.014,
		timerHeap: 0.024, evtchnLink: 0.012, grantCount: 0.010, lockTable: 0.012,
	}
)

// Injector performs one fault injection per run (plus the optional
// adversarial burst / during-recovery faults).
type Injector struct {
	H     *hv.Hypervisor
	World GuestCorrupter

	params Params
	rng    *rand.Rand

	// Fired reports whether the second-level trigger fired.
	Fired bool
	// Point is the execution context the fault landed in.
	Point hv.InjectionPoint
	// FaultEffect records the architectural effect drawn.
	FaultEffect Effect
	// Corruptions lists the latent corruption classes applied.
	Corruptions []string
	// Reg/Bit identify the flipped bit (Register faults).
	Reg hw.Reg
	Bit int

	// BurstFired/BurstEffect record the burst fault's outcome.
	BurstFired  bool
	BurstEffect Effect
	// DuringRecoveryFired/DuringEffect record the fault-during-recovery
	// outcome.
	DuringRecoveryFired bool
	DuringEffect        Effect
	// CorrelatedFired records that the correlated re-injection landed.
	CorrelatedFired bool

	burstScheduled  bool
	duringArmed     bool
	correlatedArmed bool
	// lastClass is the most recent structural-corruption class applied
	// (-1 until one lands); the correlated re-injection targets it.
	lastClass int
}

// New builds an injector. The rng must be a dedicated stream so that
// injection decisions never perturb workload randomness.
func New(h *hv.Hypervisor, world GuestCorrupter, rng *rand.Rand, p Params) *Injector {
	if p.MaxInstrBudget == 0 {
		p.MaxInstrBudget = DefaultMaxInstrBudget
	}
	return &Injector{H: h, World: world, params: p, rng: rng, lastClass: -1}
}

// Schedule arms the two-level trigger: at a random time in the window,
// arm the instruction-count trigger. A reversed window (WindowHi <
// WindowLo) is normalized by swapping the bounds; negative bounds clamp
// to zero (the clock cannot schedule in the past).
func (inj *Injector) Schedule() {
	lo, hi := inj.params.WindowLo, inj.params.WindowHi
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 {
		lo = 0
	}
	at := lo
	if span := hi - lo; span > 0 {
		at = lo + time.Duration(inj.rng.Int64N(int64(span)))
	}
	inj.H.Clock.At(at, "inject-arm", func() {
		budget := inj.rng.Int64N(inj.params.MaxInstrBudget + 1)
		inj.H.ArmInjection(budget, inj.onInject)
	})
	if inj.params.FaultDuringRecovery {
		inj.H.SetPauseHook(inj.onRecoveryPause)
	}
}

// onInject is invoked by the hypervisor at the triggered step.
func (inj *Injector) onInject(pt hv.InjectionPoint) (hv.InjectAction, string) {
	inj.Fired = true
	inj.Point = pt
	action, reason := inj.applyFault(pt, inj.params.Type, &inj.FaultEffect, "primary")
	if inj.params.BurstWindow > 0 {
		inj.scheduleBurst()
	}
	return action, reason
}

// applyFault injects one fault of the given type at pt, recording the
// architectural effect into *effect. Shared by the primary, burst, and
// during-recovery triggers; trigger names the arming path for the journal.
func (inj *Injector) applyFault(pt hv.InjectionPoint, typ FaultType, effect *Effect, trigger string) (hv.InjectAction, string) {
	// Journal the fault before its effects land, so corruption-cell
	// events chain causally off this one.
	inj.H.Jrn.Fault(inj.H.Clock.Now(), pt.CPU, typ.String(), trigger)
	switch typ {
	case Failstop:
		*effect = EffectPanic
		return hv.ActionPanic, "failstop: PC forced to 0 (fatal page fault)"
	case Register:
		inj.Reg = hw.Reg(inj.rng.IntN(hw.NumInjectableRegs))
		inj.Bit = inj.rng.IntN(64)
		inj.flipRegister(pt.CPU)
		return inj.manifest(pt, effect, registerDist, registerCorruption, registerLatencyLo, registerLatencyHi)
	case Code:
		// The code fault is "repaired" on detection, so like Register
		// faults its effects are transient (§VI-C).
		return inj.manifest(pt, effect, codeDist, codeCorruption, codeLatencyLo, codeLatencyHi)
	case PrivVMCrash:
		// The PrivVM faults always manifest (they target the Dom0 guest
		// directly, not a random hypervisor bit) and leave no panic to
		// catch: only the management-call watchdog notices.
		*effect = EffectLatent
		if pc, ok := inj.World.(PrivVMController); ok {
			pc.CrashPrivVM("PrivVM crashed (injected fault)")
		}
		inj.Corruptions = append(inj.Corruptions, "privvm-crash")
		inj.H.Jrn.Corruption(inj.H.Clock.Now(), pt.CPU, "privvm-crash")
		return hv.ActionContinue, ""
	case PrivVMHang:
		*effect = EffectLatent
		if pc, ok := inj.World.(PrivVMController); ok {
			pc.HangPrivVM()
		}
		inj.Corruptions = append(inj.Corruptions, "privvm-hang")
		inj.H.Jrn.Corruption(inj.H.Clock.Now(), pt.CPU, "privvm-hang")
		return hv.ActionContinue, ""
	case DeviceIOAPIC:
		// Device corruption is pure table/state damage: execution
		// continues and only the IRQ-delivery criterion notices.
		*effect = EffectLatent
		inj.corruptIOAPIC()
		return hv.ActionContinue, ""
	default:
		*effect = EffectNone
		return hv.ActionContinue, ""
	}
}

// scheduleBurst arms the second, independent fault of the burst scenario
// at a random delay within BurstWindow of the first fault's firing.
func (inj *Injector) scheduleBurst() {
	if inj.burstScheduled {
		return
	}
	inj.burstScheduled = true
	var d time.Duration
	if w := int64(inj.params.BurstWindow); w > 0 {
		d = time.Duration(inj.rng.Int64N(w))
	}
	budget := inj.rng.Int64N(inj.params.MaxInstrBudget + 1)
	inj.H.Clock.After(d, "inject-burst", func() {
		if failed, _ := inj.H.Failed(); failed {
			return
		}
		inj.H.ArmInjection(budget, inj.onBurst)
	})
}

func (inj *Injector) onBurst(pt hv.InjectionPoint) (hv.InjectAction, string) {
	inj.BurstFired = true
	typ := inj.params.BurstFault
	if typ == 0 {
		typ = inj.params.Type
	}
	return inj.applyFault(pt, typ, &inj.BurstEffect, "burst")
}

// onRecoveryPause runs from the hypervisor's pause hook: a recovery
// attempt just started. Arm a small-budget trigger so the fault lands in
// the first post-resume hypervisor activity (retried hypercalls,
// re-delivered interrupts) — the recovery/resume path itself.
func (inj *Injector) onRecoveryPause() {
	if inj.duringArmed {
		return
	}
	inj.duringArmed = true
	budget := inj.rng.Int64N(inj.params.MaxInstrBudget/8 + 1)
	inj.H.ArmInjection(budget, inj.onDuringRecovery)
}

func (inj *Injector) onDuringRecovery(pt hv.InjectionPoint) (hv.InjectAction, string) {
	inj.DuringRecoveryFired = true
	typ := inj.params.DuringFault
	if typ == 0 {
		typ = inj.params.Type
	}
	return inj.applyFault(pt, typ, &inj.DuringEffect, "during-recovery")
}

// OnDegradedVerdict is wired to the recovery engine's audit hook when
// CorrelatedReinjection is on: an audit just accepted degraded service.
// Arm a small-budget trigger that re-damages the same structural cell the
// original latent corruption hit, so the fault lands in the first
// post-resume hypervisor activity while the system is still degraded.
func (inj *Injector) OnDegradedVerdict() {
	if !inj.params.CorrelatedReinjection || inj.correlatedArmed || inj.lastClass < 0 {
		return
	}
	inj.correlatedArmed = true
	budget := inj.rng.Int64N(inj.params.MaxInstrBudget/8 + 1)
	inj.H.ArmInjection(budget, inj.onCorrelated)
}

func (inj *Injector) onCorrelated(pt hv.InjectionPoint) (hv.InjectAction, string) {
	inj.CorrelatedFired = true
	inj.H.Jrn.Fault(inj.H.Clock.Now(), pt.CPU, classLabels[inj.lastClass], "correlated")
	inj.corruptClass(inj.lastClass)
	return hv.ActionContinue, ""
}

// corruptIOAPIC applies one device-corruption round: a redirection-table
// corruption (disable / misroute / wrong vector) or a stranded in-service
// line, on one of the two device lines.
func (inj *Injector) corruptIOAPIC() {
	io := inj.H.Machine.IOAPIC()
	line := hw.IRQLine(1 + inj.rng.IntN(2)) // block or NIC line
	var desc string
	if mode := inj.rng.IntN(4); mode == 3 {
		desc = io.StrandLine(line)
	} else {
		desc = io.CorruptRoute(line, mode)
	}
	inj.Corruptions = append(inj.Corruptions, desc)
	inj.H.Jrn.Corruption(inj.H.Clock.Now(), -1, desc)
}

// flipRegister applies the architectural bit flip to the CPU's register
// file (the manifestation model decides its semantic consequence).
func (inj *Injector) flipRegister(cpu int) {
	inj.H.Machine.CPU(cpu).Regs[inj.Reg] ^= 1 << uint(inj.Bit)
}

// manifest draws the architectural effect and applies it.
func (inj *Injector) manifest(pt hv.InjectionPoint, effect *Effect, d manifestDist, cd corruptionDist,
	latLo, latHi time.Duration) (hv.InjectAction, string) {

	r := inj.rng.Float64()
	switch {
	case r < d.dead:
		*effect = EffectNone
		return hv.ActionContinue, ""
	case r < d.dead+d.sdc:
		*effect = EffectSDC
		inj.corruptGuest(pt)
		return hv.ActionContinue, ""
	case r < d.dead+d.sdc+d.immediate:
		*effect = EffectPanic
		return hv.ActionPanic, fmt.Sprintf("%v fault: fatal exception (%v bit %d)",
			inj.params.Type, inj.Reg, inj.Bit)
	case r < d.dead+d.sdc+d.immediate+d.wedge:
		*effect = EffectWedge
		return hv.ActionWedge, ""
	default:
		*effect = EffectLatent
		inj.applyLatentCorruption(pt, cd)
		inj.scheduleDetection(pt.CPU, latLo, latHi)
		return hv.ActionContinue, ""
	}
}

// corruptGuest damages the data of the issuing domain (if the fault hit a
// hypercall on behalf of a guest) or a random AppVM.
func (inj *Injector) corruptGuest(pt hv.InjectionPoint) {
	dom := -1
	if pt.Call != nil && pt.Call.Dom != 0 {
		dom = pt.Call.Dom
	} else if len(inj.params.AppDomains) > 0 {
		dom = inj.params.AppDomains[inj.rng.IntN(len(inj.params.AppDomains))]
	}
	if dom >= 0 && inj.World != nil {
		inj.World.CorruptGuestData(dom)
	}
}

// applyLatentCorruption damages hypervisor state per the corruption
// distribution. Code faults may corrupt more than one structure.
func (inj *Injector) applyLatentCorruption(pt hv.InjectionPoint, cd corruptionDist) {
	rounds := 1
	if inj.params.Type == Code && inj.rng.Float64() < 0.25 {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		inj.corruptOnce(pt, cd)
	}
}

// Structural-corruption classes. The ids index classLabels and are stable
// across runs, so the correlated re-injection can target "the same cell"
// and the campaign can aggregate per-class without string parsing.
const (
	classPFDesc = iota
	classSchedMeta
	classHeapFreelist
	classDomList
	classStaticScratch
	classAllocObj
	classPrivVM
	classRecovery
	classTimerHeap
	classEvtchn
	classGrant
	classLock
	classScratch
)

// classLabels are the interned Corruptions labels: one static string per
// class, appended without fmt.Sprintf or concatenation so the hot latent
// path stays within the campaign's allocation ceiling.
var classLabels = [...]string{
	classPFDesc:        "pf-descriptor",
	classSchedMeta:     "sched-meta",
	classHeapFreelist:  "heap-freelist",
	classDomList:       "domain-list",
	classStaticScratch: "static-scratch",
	classAllocObj:      "allocated-object",
	classPrivVM:        "privvm",
	classRecovery:      "recovery-path",
	classTimerHeap:     "timer-heap",
	classEvtchn:        "evtchn",
	classGrant:         "grant",
	classLock:          "lock",
	classScratch:       "scratch",
}

// corruptOnce applies one round of structural damage to a randomly chosen
// class of hypervisor state.
func (inj *Injector) corruptOnce(pt hv.InjectionPoint, cd corruptionDist) {
	r := inj.rng.Float64()
	cum := 0.0
	pick := func(p float64) bool {
		cum += p
		return r < cum
	}
	id := classScratch
	switch {
	case pick(cd.pfDesc):
		id = classPFDesc
	case pick(cd.schedMeta):
		id = classSchedMeta
	case pick(cd.heapFreelist):
		id = classHeapFreelist
	case pick(cd.domList):
		id = classDomList
	case pick(cd.staticScr):
		id = classStaticScratch
	case pick(cd.allocObj):
		id = classAllocObj
	case pick(cd.privVM):
		id = classPrivVM
	case pick(cd.recovery):
		id = classRecovery
	case pick(cd.timerHeap):
		id = classTimerHeap
	case pick(cd.evtchnLink):
		id = classEvtchn
	case pick(cd.grantCount):
		id = classGrant
	case pick(cd.lockTable):
		id = classLock
	}
	inj.corruptClass(id)
}

// corruptClass applies one round of class id's structural damage and
// records the interned label. The correlated re-injection calls it
// directly to hit the same cell again.
func (inj *Injector) corruptClass(id int) {
	h := inj.H
	switch id {
	case classPFDesc:
		h.Frames.CorruptRandomDescriptor(inj.rng)
	case classSchedMeta:
		h.Sched.CorruptRandom(inj.rng)
	case classHeapFreelist:
		h.Heap.CorruptFreeList(inj.rng)
	case classDomList:
		h.Domains.CorruptLink(inj.rng)
	case classStaticScratch:
		h.CorruptStaticScratchWord(inj.rng)
	case classAllocObj:
		h.Heap.CorruptRandomObject(inj.rng)
	case classPrivVM:
		if d, err := h.Domain(0); err == nil {
			d.Fail("PrivVM state corrupted by error propagation")
		}
	case classRecovery:
		h.CorruptRecoveryVector(inj.rng)
	case classTimerHeap:
		h.Timers.CorruptRandom(inj.rng)
	case classEvtchn:
		h.Broker.CorruptRandomLink(inj.rng)
	case classGrant:
		inj.corruptGrantCount()
	case classLock:
		h.Locks.CorruptRandomHold(inj.rng)
	}
	inj.Corruptions = append(inj.Corruptions, classLabels[id])
	inj.H.Jrn.Corruption(h.Clock.Now(), -1, classLabels[id])
	inj.lastClass = id
}

// corruptGrantCount garbles a grant entry's mapping count: an active
// entry's count drifts from the maptrack truth, or a free entry gains a
// phantom count. Either way Revoke wedges (ErrBusy forever) until the
// audit recomputes the count.
func (inj *Injector) corruptGrantCount() {
	doms := inj.H.Domains.Preserved()
	type cand struct {
		d   *dom.Domain
		ref int
	}
	var cands []cand
	for _, d := range doms {
		if d.GrantTab == nil {
			continue
		}
		for _, ref := range d.GrantTab.ActiveGrants() {
			cands = append(cands, cand{d, ref})
		}
	}
	if len(cands) > 0 {
		c := cands[inj.rng.IntN(len(cands))]
		e, _ := c.d.GrantTab.Entry(c.ref)
		e.MapCount += 7 + inj.rng.IntN(93)
		return
	}
	// No active grants: give a free entry a phantom count.
	var tabs []*dom.Domain
	for _, d := range doms {
		if d.GrantTab != nil {
			tabs = append(tabs, d)
		}
	}
	if len(tabs) == 0 {
		return
	}
	d := tabs[inj.rng.IntN(len(tabs))]
	ref := inj.rng.IntN(d.GrantTab.Len())
	e, _ := d.GrantTab.Entry(ref)
	e.MapCount = 7 + inj.rng.IntN(93)
}

// scheduleDetection arranges the delayed detection of latent corruption:
// after the drawn latency, the next hypervisor activity on the faulted CPU
// hits the damage and panics. If recovery already ran (a mechanistic
// assertion found the damage first), the stale detection is dropped.
// Degenerate latency bounds (hi <= lo) collapse to lo rather than feeding
// rand.Int64N a non-positive span.
func (inj *Injector) scheduleDetection(cpu int, lo, hi time.Duration) {
	lat := lo
	if hi > lo {
		lat = lo + time.Duration(inj.rng.Int64N(int64(hi-lo)))
	}
	epoch := inj.H.RecoveryEpoch()
	inj.H.Clock.After(lat, "latent-detect", func() {
		if failed, _ := inj.H.Failed(); failed {
			return
		}
		if inj.H.RecoveryEpoch() != epoch {
			return
		}
		inj.H.PanicAtNextStep(cpu, hv.CauseOther, fmt.Sprintf("%v fault: corrupted state hit (%v)",
			inj.params.Type, inj.Corruptions))
	})
}
