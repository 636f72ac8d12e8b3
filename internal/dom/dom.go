// Package dom models guest domains as the hypervisor sees them: the
// per-domain structure (Xen's struct domain, heap-allocated with embedded
// spinlocks), the global domain list (a linked list — one of the paper's
// top corruption targets, §VII-A), and per-domain event-channel state.
package dom

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/locking"
	"nilihype/internal/mm"
	"nilihype/internal/sched"
	"nilihype/internal/xentime"
)

// Well-known domain IDs.
const (
	PrivVMID = 0 // the privileged VM (Dom0)
)

// ErrListCorrupted is returned when a domain-list traversal hits corrupted
// links. The hypervisor treats it as a fatal error (panic).
var ErrListCorrupted = errors.New("dom: domain list corrupted")

// poisonDomain stands in for a garbage next pointer: a link redirected into
// memory that is not a domain structure. Traversals that reach it have
// followed a corrupted link.
var poisonDomain = &Domain{ID: -1, Name: "<poison>"}

// Domain is the hypervisor's per-domain structure. It is backed by a heap
// object so that its embedded locks participate in the heap-lock release
// mechanism.
type Domain struct {
	ID   int
	Name string

	// IsPriv marks the privileged VM (Dom0).
	IsPriv bool

	// MemStart/MemCount delimit the domain's physical frame range.
	MemStart, MemCount int

	// Obj is the backing heap allocation.
	Obj *mm.Object

	// PageAllocLock and GrantLock are the embedded heap spinlocks
	// hypercall handlers take.
	PageAllocLock *locking.Lock
	GrantLock     *locking.Lock

	// Events is the domain's event-channel port table.
	Events *evtchn.Table

	// GrantTab is the domain's guest-visible grant table; Maptrack is
	// the hypervisor-side bookkeeping of its active mappings.
	GrantTab *grant.Table
	Maptrack *grant.Maptrack

	// WakeupPool caches the wakeup Timer record across set_timer_op
	// calls: each set replaces the schedule, so the handler re-adds the
	// same record (name, labels and callback are domain-invariant)
	// instead of allocating a timer per call. Allocation state only —
	// never consulted for semantics, so it is not snapshotted.
	WakeupPool *xentime.Timer

	domainState

	// next chains the domain into the global list (Xen's
	// next_in_list). Corruption damages this link, not a flag.
	next *Domain
}

// domainState is a domain's mutable fields. The sub-tables snapshot
// themselves, and the list link is rebuilt from the saved order.
type domainState struct {
	// VCPUs are the domain's virtual CPUs (one per domain in the paper's
	// setups, §VI-A).
	VCPUs []*sched.VCPU

	// TotPages is the accounting counter hypercalls adjust (a critical
	// variable in the paper's sense — logged for undo).
	TotPages int

	// RingPort is the inter-domain event channel to the PrivVM backend
	// (I/O ring notifications).
	RingPort int

	// WakeupTimer is the domain's singleton set_timer_op timer (Xen
	// keeps one per vCPU; setting it replaces the previous deadline).
	WakeupTimer *xentime.Timer

	// Failed marks the domain as crashed (its guest kernel died). The
	// campaign layer reads this to classify outcomes.
	Failed bool
	// FailReason records why, for reports.
	FailReason string
}

// Fail marks the domain failed with a reason (first reason wins).
func (d *Domain) Fail(reason string) {
	if d.Failed {
		return
	}
	d.Failed = true
	d.FailReason = reason
}

// UpcallVCPU returns the vCPU that handles event upcalls (vCPU 0; the
// paper's domains are single-vCPU), or nil.
func (d *Domain) UpcallVCPU() *sched.VCPU {
	if len(d.VCPUs) > 0 {
		return d.VCPUs[0]
	}
	return nil
}

// List is the hypervisor's global domain list. Xen chains struct domain
// into a singly linked list; error propagation that corrupts a link makes
// traversals that cross the damage fatal. The domains slice is separate
// bookkeeping — the preserved domain structures themselves (they are heap
// objects and survive recovery) — from which a reboot relinks the list
// (ReHype re-integration).
type List struct {
	domains []*Domain // preserved structures, insertion order
	head    *Domain   // linked-list head (traversal source of truth)
}

// NewList returns an empty domain list.
func NewList() *List { return &List{} }

// Insert appends a domain to the list, linking it after the current tail.
func (l *List) Insert(d *Domain) {
	d.next = nil
	if n := len(l.domains); n > 0 {
		l.domains[n-1].next = d
	} else {
		l.head = d
	}
	l.domains = append(l.domains, d)
}

// Remove unlinks a domain. Domain destruction is a slow path, so the links
// are rebuilt from the preserved structures rather than patched in place.
func (l *List) Remove(d *Domain) {
	for i, dd := range l.domains {
		if dd == d {
			l.domains = append(l.domains[:i], l.domains[i+1:]...)
			l.relink()
			return
		}
	}
}

// ByID walks the linked list for a domain. A traversal that follows a
// corrupted link — a poisoned pointer, a cycle, or a truncation before the
// domain is found — returns ErrListCorrupted (fatal to the caller).
func (l *List) ByID(id int) (*Domain, error) {
	n := 0
	for d := l.head; d != nil; d = d.next {
		if d == poisonDomain || n >= len(l.domains) {
			return nil, ErrListCorrupted
		}
		if d.ID == id {
			return d, nil
		}
		n++
	}
	if n != len(l.domains) {
		return nil, ErrListCorrupted
	}
	return nil, fmt.Errorf("dom: no domain %d", id)
}

// All walks the full linked list and returns the domains in link order, or
// ErrListCorrupted if the walk hits damage.
func (l *List) All() ([]*Domain, error) {
	out := make([]*Domain, 0, len(l.domains))
	for d := l.head; d != nil; d = d.next {
		if d == poisonDomain || len(out) >= len(l.domains) {
			return nil, ErrListCorrupted
		}
		out = append(out, d)
	}
	if len(out) != len(l.domains) {
		return nil, ErrListCorrupted
	}
	return out, nil
}

// Len returns the number of domains (valid even when the links are
// corrupted; the count is separate bookkeeping).
func (l *List) Len() int { return len(l.domains) }

// Preserved returns the domain structures in insertion order without
// touching the links — the view a reboot or audit uses while the list
// itself may be damaged.
func (l *List) Preserved() []*Domain {
	out := make([]*Domain, len(l.domains))
	copy(out, l.domains)
	return out
}

// CheckLinks walks the full linked list and returns ErrListCorrupted if
// the walk hits a poisoned pointer, visits more nodes than are registered
// (a cycle), or ends before visiting them all (a truncation).
func (l *List) CheckLinks() error {
	n := 0
	for d := l.head; d != nil; d = d.next {
		if d == poisonDomain || n >= len(l.domains) {
			return ErrListCorrupted
		}
		n++
	}
	if n != len(l.domains) {
		return ErrListCorrupted
	}
	return nil
}

// CorruptLink structurally damages a random link: poisoning it (garbage
// pointer), truncating the chain, or bending it back to the head (cycle).
// Returns a short description of the damage.
func (l *List) CorruptLink(rng *rand.Rand) string {
	if len(l.domains) == 0 {
		return "domain list empty; nothing to damage"
	}
	d := l.domains[rng.IntN(len(l.domains))]
	mode := rng.IntN(3)
	last := l.domains[len(l.domains)-1]
	if mode == 1 && d == last {
		// The tail's next is already nil; truncation there is a no-op.
		mode = 0
	}
	switch mode {
	case 0:
		d.next = poisonDomain
		return fmt.Sprintf("d%d.next poisoned", d.ID)
	case 1:
		d.next = nil
		return fmt.Sprintf("list truncated after d%d", d.ID)
	default:
		d.next = l.head
		return fmt.Sprintf("d%d.next cycles back to head", d.ID)
	}
}

// relink rebuilds the chain from the preserved structures and returns how
// many links (including the head) it had to fix.
func (l *List) relink() int {
	fixed := 0
	var want *Domain
	if len(l.domains) > 0 {
		want = l.domains[0]
	}
	if l.head != want {
		l.head = want
		fixed++
	}
	for i, d := range l.domains {
		var next *Domain
		if i+1 < len(l.domains) {
			next = l.domains[i+1]
		}
		if d.next != next {
			d.next = next
			fixed++
		}
	}
	return fixed
}

// Rebuild relinks the list from the preserved domain structures, repairing
// any link damage. Microreboot performs this as part of state
// re-integration (ReHype); the audit subsystem uses the same walk as a
// repair, which is what lets microreset survive domain-list corruption.
// Returns the number of links fixed.
func (l *List) Rebuild() int { return l.relink() }
