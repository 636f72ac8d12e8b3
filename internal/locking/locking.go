// Package locking models the hypervisor's spinlocks.
//
// Xen has two populations of spinlocks: locks embedded in heap-allocated
// objects ("heap locks") and locks in the static data segment ("static
// locks"). Recovery must release both populations, because every thread of
// execution that might have held them is discarded (§V-A "Unlock static
// locks"):
//
//   - Heap locks: ReHype already includes a mechanism that walks the
//     preserved heap and releases them; NiLiHype reuses it.
//   - Static locks: ReHype gets these for free (boot re-initializes the
//     static data segment); NiLiHype instead relies on the linker-script
//     trick — all static locks are declared through one macro and placed in
//     a dedicated segment, effectively one array the recovery CPU can
//     iterate.
//
// The Registry reifies both populations so both recovery mechanisms can be
// implemented faithfully.
package locking

import (
	"fmt"
	"math/rand/v2"
)

// Kind distinguishes the two spinlock populations.
type Kind int

// Lock kinds.
const (
	Static Kind = iota + 1 // resides in the static data segment
	Heap                   // embedded in a heap-allocated object
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Heap:
		return "heap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NoOwner is the owner value of a released lock.
const NoOwner = -1

// Lock is one spinlock with owner tracking. It is not a synchronization
// primitive — the simulation is single-threaded — it is a model of the
// lock's state machine, including the failure mode where the owner thread
// is discarded while holding it.
type Lock struct {
	name string
	kind Kind
	lockState
}

// lockState is the lock word and its counter.
type lockState struct {
	held  bool
	owner int // CPU that holds it, NoOwner when free

	// Acquisitions counts successful acquisitions (for tests and
	// instruction-weight calibration).
	Acquisitions uint64
}

// Name returns the lock's diagnostic name.
func (l *Lock) Name() string { return l.name }

// Kind returns whether the lock is static or heap-allocated.
func (l *Lock) Kind() Kind { return l.kind }

// Owner returns the CPU holding the lock, or NoOwner.
func (l *Lock) Owner() int {
	if !l.held {
		return NoOwner
	}
	return l.owner
}

// TryAcquire attempts to take the lock for cpu. It returns false if the
// lock is already held — the caller then models a spin (which, if the owner
// is gone, ends in a watchdog-detected hang).
func (l *Lock) TryAcquire(cpu int) bool {
	if l.held {
		return false
	}
	l.held = true
	l.owner = cpu
	l.Acquisitions++
	return true
}

// Release frees the lock. Releasing a free lock is a programming error in
// the hypervisor model and panics so tests catch it immediately.
func (l *Lock) Release(cpu int) {
	if !l.held {
		panic(fmt.Sprintf("locking: release of free lock %q by cpu%d", l.name, cpu))
	}
	if l.owner != cpu {
		panic(fmt.Sprintf("locking: cpu%d releasing lock %q owned by cpu%d", cpu, l.name, l.owner))
	}
	l.held = false
	l.owner = NoOwner
}

// ForceRelease frees the lock regardless of owner. Recovery uses this: the
// owning execution thread has been discarded, so ownership checks no longer
// apply.
func (l *Lock) ForceRelease() {
	l.held = false
	l.owner = NoOwner
}

// Registry tracks every lock in the hypervisor image, separated by
// population.
type Registry struct {
	static []*Lock
	heap   []*Lock
}

// NewRegistry returns an empty lock registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// NewStatic declares a static lock (the macro + linker-script path: the
// lock lands in the iterable static-lock segment).
func (r *Registry) NewStatic(name string) *Lock {
	l := &Lock{name: name, kind: Static, lockState: lockState{owner: NoOwner}}
	r.static = append(r.static, l)
	return l
}

// NewHeap declares a lock embedded in a heap object.
func (r *Registry) NewHeap(name string) *Lock {
	l := &Lock{name: name, kind: Heap, lockState: lockState{owner: NoOwner}}
	r.heap = append(r.heap, l)
	return l
}

// DropHeap removes a heap lock from the registry (its containing object was
// freed).
func (r *Registry) DropHeap(l *Lock) {
	for i, h := range r.heap {
		if h == l {
			r.heap = append(r.heap[:i], r.heap[i+1:]...)
			return
		}
	}
}

// HeldLocks returns every held lock of the given kinds.
func (r *Registry) HeldLocks(kinds ...Kind) []*Lock {
	var out []*Lock
	want := func(k Kind) bool {
		for _, kk := range kinds {
			if kk == k {
				return true
			}
		}
		return len(kinds) == 0
	}
	for _, l := range r.static {
		if l.held && want(Static) {
			out = append(out, l)
		}
	}
	for _, l := range r.heap {
		if l.held && want(Heap) {
			out = append(out, l)
		}
	}
	return out
}

// HeldCount returns how many registered locks are currently held. Unlike
// HeldLocks it allocates nothing — it exists for telemetry gauge sampling
// on the campaign's per-run path.
func (r *Registry) HeldCount() int {
	n := 0
	for _, l := range r.static {
		if l.held {
			n++
		}
	}
	for _, l := range r.heap {
		if l.held {
			n++
		}
	}
	return n
}

// UnlockStaticSegment force-releases every held static lock, returning the
// number released. This is the "Unlock static locks" enhancement (§V-A).
func (r *Registry) UnlockStaticSegment() int {
	n := 0
	for _, l := range r.static {
		if l.held {
			l.ForceRelease()
			n++
		}
	}
	return n
}

// UnlockHeapLocks force-releases every held heap lock, returning the number
// released. This is the heap-walking release mechanism ReHype introduced
// and NiLiHype reuses (§III-B, §V-A).
func (r *Registry) UnlockHeapLocks() int {
	n := 0
	for _, l := range r.heap {
		if l.held {
			l.ForceRelease()
			n++
		}
	}
	return n
}

// Counts returns the population sizes (static, heap).
func (r *Registry) Counts() (staticN, heapN int) {
	return len(r.static), len(r.heap)
}

// CorruptRandomHold marks a random free lock as held by a phantom CPU —
// error propagation into a lock word. No thread will ever release it, so
// the next acquirer spins until the watchdog declares a hang; recovery's
// unlock mechanisms (or the audit) force-release it. Returns the victim
// lock's name, or a note when every lock is already held.
func (r *Registry) CorruptRandomHold(rng *rand.Rand) string {
	var free []*Lock // static then heap, declaration order (deterministic)
	for _, l := range r.static {
		if !l.held {
			free = append(free, l)
		}
	}
	for _, l := range r.heap {
		if !l.held {
			free = append(free, l)
		}
	}
	if len(free) == 0 {
		return "no free locks"
	}
	l := free[rng.IntN(len(free))]
	l.held = true
	l.owner = 1000 + rng.IntN(1000) // phantom CPU
	return l.name
}
