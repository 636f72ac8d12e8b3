// Package evtchn implements Xen-style event channels: the asynchronous
// notification primitive connecting domains to each other and to the
// hypervisor (device interrupts, ring notifications).
//
// Each domain owns a port table. Ports are allocated unbound (waiting for
// a peer), bound inter-domain (send on one side sets pending on the
// other), or bound to a virtual IRQ source (device completions). Pending
// bits survive recovery in place — event channels are part of the state
// microreset reuses and microreboot re-integrates; their delivery
// semantics (set-pending is idempotent) are what makes the event path
// safely retryable.
package evtchn

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
)

// State is a port's binding state.
type State int

// Port states.
const (
	// Free: unallocated.
	Free State = iota
	// Unbound: allocated, waiting for a remote domain to bind.
	Unbound
	// Interdomain: connected to a (domain, port) peer.
	Interdomain
	// VIRQBound: bound to a virtual interrupt source (device class).
	VIRQBound
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Unbound:
		return "unbound"
	case Interdomain:
		return "interdomain"
	case VIRQBound:
		return "virq"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors.
var (
	ErrNoFreePorts = errors.New("evtchn: no free ports")
	ErrBadPort     = errors.New("evtchn: invalid port")
	ErrBadState    = errors.New("evtchn: port in wrong state")
)

// Port is one event channel endpoint.
type Port struct {
	State      State
	RemoteDom  int // Interdomain: the peer domain
	RemotePort int // Interdomain: the peer port
	VIRQ       int // VIRQBound: the virtual IRQ number
	Pending    bool
	Masked     bool
}

// Table is a domain's event channel table.
type Table struct {
	owner int
	tableState
}

// tableState is the port contents; the table never resizes.
type tableState struct{ ports []Port }

// DefaultPorts is the per-domain port table size.
const DefaultPorts = 64

// NewTable builds a port table for a domain.
func NewTable(owner, size int) *Table {
	if size <= 0 {
		size = DefaultPorts
	}
	return &Table{owner, tableState{make([]Port, size)}}
}

// Len returns the table size.
func (t *Table) Len() int { return len(t.ports) }

// Port returns port p for inspection.
func (t *Table) Port(p int) (*Port, error) {
	if p < 0 || p >= len(t.ports) {
		return nil, fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	return &t.ports[p], nil
}

// allocFree finds the lowest free port (port 0 is reserved, as in Xen).
func (t *Table) allocFree() (int, error) {
	for p := 1; p < len(t.ports); p++ {
		if t.ports[p].State == Free {
			return p, nil
		}
	}
	return 0, ErrNoFreePorts
}

// AllocUnbound allocates a port awaiting a bind from remoteDom.
func (t *Table) AllocUnbound(remoteDom int) (int, error) {
	p, err := t.allocFree()
	if err != nil {
		return 0, err
	}
	t.ports[p] = Port{State: Unbound, RemoteDom: remoteDom}
	return p, nil
}

// BindVIRQ allocates a port bound to a virtual IRQ source.
func (t *Table) BindVIRQ(virq int) (int, error) {
	p, err := t.allocFree()
	if err != nil {
		return 0, err
	}
	t.ports[p] = Port{State: VIRQBound, VIRQ: virq}
	return p, nil
}

// Close frees a port, clearing any pending state.
func (t *Table) Close(p int) error {
	port, err := t.Port(p)
	if err != nil {
		return err
	}
	*port = Port{}
	return nil
}

// deliverable reports whether port p is pending and unmasked.
func (t *Table) deliverable(p int) bool { return t.ports[p].Pending && !t.ports[p].Masked }

// LastPending returns the highest pending, unmasked port, or 0 (the
// reserved port) when there is none.
func (t *Table) LastPending() int {
	for p := len(t.ports) - 1; p >= 1; p-- {
		if t.deliverable(p) {
			return p
		}
	}
	return 0
}

// ClearPending clears every pending, unmasked port in place (the guest's
// upcall handler consuming its pending bitmap).
func (t *Table) ClearPending() {
	for p := 1; p < len(t.ports); p++ {
		if t.deliverable(p) {
			t.ports[p].Pending = false
		}
	}
}

// setPending marks a port pending; idempotent (a level-style bit, which is
// why retried sends are harmless).
func (t *Table) setPending(p int) error {
	port, err := t.Port(p)
	if err != nil {
		return err
	}
	if port.State == Free {
		return fmt.Errorf("%w: port %d free", ErrBadState, p)
	}
	port.Pending = true
	return nil
}

// Broker connects domains' tables and routes sends. The hypervisor owns
// one broker; its routing state is part of the reused recovery state.
type Broker struct{ brokerState }

// brokerState is the registration set, keyed by owner.
type brokerState struct{ tables map[int]*Table }

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{brokerState{make(map[int]*Table)}}
}

// Register adds a domain's table.
func (b *Broker) Register(t *Table) { b.tables[t.owner] = t }

// Unregister removes a domain's table (domain destruction).
func (b *Broker) Unregister(owner int) { delete(b.tables, owner) }

// Table returns a domain's table, or nil.
func (b *Broker) Table(owner int) *Table { return b.tables[owner] }

// BindInterdomain connects localDom's new port to remoteDom's unbound
// port remotePort. Both ends become Interdomain.
func (b *Broker) BindInterdomain(localDom, remoteDom, remotePort int) (int, error) {
	lt, rt := b.tables[localDom], b.tables[remoteDom]
	if lt == nil || rt == nil {
		return 0, fmt.Errorf("%w: domain table missing", ErrBadState)
	}
	rp, err := rt.Port(remotePort)
	if err != nil {
		return 0, err
	}
	if rp.State != Unbound || rp.RemoteDom != localDom {
		return 0, fmt.Errorf("%w: remote port %d not unbound for d%d", ErrBadState, remotePort, localDom)
	}
	lp, err := lt.allocFree()
	if err != nil {
		return 0, err
	}
	lt.ports[lp] = Port{State: Interdomain, RemoteDom: remoteDom, RemotePort: remotePort}
	rp.State = Interdomain
	rp.RemotePort = lp
	return lp, nil
}

// Send delivers a notification from (dom, port): for an inter-domain
// port, the peer's pending bit is set and the peer domain ID returned;
// for a VIRQ port, the local pending bit is set.
func (b *Broker) Send(dom, port int) (notifiedDom int, err error) {
	t := b.tables[dom]
	if t == nil {
		return -1, fmt.Errorf("%w: no table for d%d", ErrBadState, dom)
	}
	p, err := t.Port(port)
	if err != nil {
		return -1, err
	}
	switch p.State {
	case Interdomain:
		rt := b.tables[p.RemoteDom]
		if rt == nil {
			return -1, fmt.Errorf("%w: peer d%d gone", ErrBadState, p.RemoteDom)
		}
		if err := rt.setPending(p.RemotePort); err != nil {
			return -1, err
		}
		return p.RemoteDom, nil
	case VIRQBound:
		if err := t.setPending(port); err != nil {
			return -1, err
		}
		return dom, nil
	default:
		return -1, fmt.Errorf("%w: port %d is %v", ErrBadState, port, p.State)
	}
}

// RaiseVIRQ sets pending on dom's port bound to virq (device completion
// delivery). Returns the port, or an error if none is bound.
func (b *Broker) RaiseVIRQ(dom, virq int) (int, error) {
	t := b.tables[dom]
	if t == nil {
		return -1, fmt.Errorf("%w: no table for d%d", ErrBadState, dom)
	}
	for p := 1; p < len(t.ports); p++ {
		if t.ports[p].State == VIRQBound && t.ports[p].VIRQ == virq {
			t.ports[p].Pending = true
			return p, nil
		}
	}
	return -1, fmt.Errorf("%w: d%d has no port for virq %d", ErrBadState, dom, virq)
}

// Owners returns the registered table owners in ascending order — the
// deterministic iteration order corruption and audit walks must use (the
// broker's table map has no stable order of its own).
func (b *Broker) Owners() []int {
	out := make([]int, 0, len(b.tables))
	for o := range b.tables {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// CheckLinks validates inter-domain port linkage: every Interdomain port's
// peer must exist, be Interdomain, and link back. Returns one description
// per broken port in (owner, port) order; empty when the mesh is intact.
func (b *Broker) CheckLinks() []string {
	var out []string
	for _, o := range b.Owners() {
		t := b.tables[o]
		for p := 1; p < len(t.ports); p++ {
			port := &t.ports[p]
			if port.State != Interdomain {
				continue
			}
			rt := b.tables[port.RemoteDom]
			if rt == nil {
				out = append(out, fmt.Sprintf("d%d port %d: peer domain d%d has no table", o, p, port.RemoteDom))
				continue
			}
			rp, err := rt.Port(port.RemotePort)
			if err != nil || rp.State != Interdomain || rp.RemoteDom != o || rp.RemotePort != p {
				out = append(out, fmt.Sprintf("d%d port %d: peer d%d port %d does not link back", o, p, port.RemoteDom, port.RemotePort))
			}
		}
	}
	return out
}

// FindBacklink searches every table for the Interdomain port whose peer
// fields name (dom, port), returning its (owner, port). The audit uses
// this to re-derive a damaged port's peer from the surviving half of the
// link. ok is false when no port links back.
func (b *Broker) FindBacklink(dom, port int) (peerDom, peerPort int, ok bool) {
	for _, o := range b.Owners() {
		t := b.tables[o]
		for p := 1; p < len(t.ports); p++ {
			pp := &t.ports[p]
			if pp.State == Interdomain && pp.RemoteDom == dom && pp.RemotePort == port {
				return o, p, true
			}
		}
	}
	return 0, 0, false
}

// CorruptRandomLink structurally damages a random inter-domain port's peer
// linkage — garbage in its remote port or remote domain field. Sends over
// the damaged port fail (detected) and the peer's backlink no longer
// matches. Returns a short description.
func (b *Broker) CorruptRandomLink(rng *rand.Rand) string {
	type cand struct{ dom, port int }
	var cands []cand
	for _, o := range b.Owners() {
		t := b.tables[o]
		for p := 1; p < len(t.ports); p++ {
			if t.ports[p].State == Interdomain {
				cands = append(cands, cand{o, p})
			}
		}
	}
	if len(cands) == 0 {
		return "no interdomain ports"
	}
	c := cands[rng.IntN(len(cands))]
	port := &b.tables[c.dom].ports[c.port]
	if rng.IntN(2) == 0 {
		port.RemotePort += 7 + rng.IntN(50)
		return fmt.Sprintf("d%d port %d remote-port garbled to %d", c.dom, c.port, port.RemotePort)
	}
	port.RemoteDom += 700 + rng.IntN(300)
	return fmt.Sprintf("d%d port %d remote-dom garbled to d%d", c.dom, c.port, port.RemoteDom)
}

// Well-known virtual IRQ numbers.
const (
	VIRQBlock = 1 // block device completions
	VIRQNet   = 2 // network RX
)
