package evtchn

import (
	"errors"
	"testing"
	"testing/quick"
)

// PendingPorts is the reference enumerator the delivery tests check
// LastPending and ClearPending against: the pending, unmasked ports in
// order, read straight off the port array.
func (t *Table) PendingPorts() []int {
	var out []int
	for p := 1; p < len(t.ports); p++ {
		if t.ports[p].Pending && !t.ports[p].Masked {
			out = append(out, p)
		}
	}
	return out
}

// TakePending is ClearPending that also returns the ports it cleared.
func (t *Table) TakePending() []int {
	out := t.PendingPorts()
	t.ClearPending()
	return out
}

func pair(t *testing.T) (*Broker, *Table, *Table) {
	if t != nil {
		t.Helper()
	}
	b := NewBroker()
	t0 := NewTable(0, 16)
	t1 := NewTable(1, 16)
	b.Register(t0)
	b.Register(t1)
	return b, t0, t1
}

func TestStateStrings(t *testing.T) {
	for _, tt := range []struct {
		s    State
		want string
	}{{Free, "free"}, {Unbound, "unbound"}, {Interdomain, "interdomain"},
		{VIRQBound, "virq"}, {State(9), "state(9)"}} {
		if tt.s.String() != tt.want {
			t.Fatalf("%v != %q", tt.s, tt.want)
		}
	}
}

func TestAllocUnboundSkipsPortZero(t *testing.T) {
	tab := NewTable(1, 8)
	p, err := tab.AllocUnbound(0)
	if err != nil || p != 1 {
		t.Fatalf("p=%d err=%v, want port 1 (port 0 reserved)", p, err)
	}
	if tab.owner != 1 || tab.Len() != 8 {
		t.Fatal("accessors wrong")
	}
}

func TestAllocExhaustion(t *testing.T) {
	tab := NewTable(1, 4)
	for i := 0; i < 3; i++ {
		if _, err := tab.AllocUnbound(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.AllocUnbound(0); !errors.Is(err, ErrNoFreePorts) {
		t.Fatalf("err = %v, want ErrNoFreePorts", err)
	}
}

func TestBindInterdomainAndSend(t *testing.T) {
	b, t0, t1 := pair(t)
	// Backend (dom0) offers an unbound port for dom1.
	back, err := t0.AllocUnbound(1)
	if err != nil {
		t.Fatal(err)
	}
	// Frontend (dom1) binds to it.
	front, err := b.BindInterdomain(1, 0, back)
	if err != nil {
		t.Fatal(err)
	}
	// Send from the frontend: the backend's port goes pending.
	who, err := b.Send(1, front)
	if err != nil || who != 0 {
		t.Fatalf("Send -> %d, %v", who, err)
	}
	if got := t0.PendingPorts(); len(got) != 1 || got[0] != back {
		t.Fatalf("backend pending = %v", got)
	}
	// And the reverse direction.
	who, err = b.Send(0, back)
	if err != nil || who != 1 {
		t.Fatalf("reverse Send -> %d, %v", who, err)
	}
	if got := t1.TakePending(); len(got) != 1 || got[0] != front {
		t.Fatalf("frontend pending = %v", got)
	}
	if len(t1.PendingPorts()) != 0 {
		t.Fatal("TakePending did not clear")
	}
}

func TestSendIsIdempotent(t *testing.T) {
	b, t0, _ := pair(t)
	back, _ := t0.AllocUnbound(1)
	front, _ := b.BindInterdomain(1, 0, back)
	for i := 0; i < 5; i++ {
		if _, err := b.Send(1, front); err != nil {
			t.Fatal(err)
		}
	}
	if got := t0.TakePending(); len(got) != 1 {
		t.Fatalf("pending = %v, want single level-triggered bit", got)
	}
}

func TestBindRejectsWrongState(t *testing.T) {
	b, t0, _ := pair(t)
	// Port not unbound.
	if _, err := b.BindInterdomain(1, 0, 3); err == nil {
		t.Fatal("bind to free port succeeded")
	}
	// Unbound for a different domain.
	back, _ := t0.AllocUnbound(5)
	if _, err := b.BindInterdomain(1, 0, back); err == nil {
		t.Fatal("bind to port reserved for another domain succeeded")
	}
	// Missing table.
	if _, err := b.BindInterdomain(9, 0, back); err == nil {
		t.Fatal("bind from unregistered domain succeeded")
	}
}

func TestVIRQBindAndRaise(t *testing.T) {
	b, _, t1 := pair(t)
	p, err := t1.BindVIRQ(VIRQBlock)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.RaiseVIRQ(1, VIRQBlock)
	if err != nil || got != p {
		t.Fatalf("RaiseVIRQ -> %d, %v", got, err)
	}
	if pending := t1.PendingPorts(); len(pending) != 1 || pending[0] != p {
		t.Fatalf("pending = %v", pending)
	}
	if _, err := b.RaiseVIRQ(1, 99); err == nil {
		t.Fatal("raise of unbound virq succeeded")
	}
	// Send on a VIRQ port sets the local bit.
	t1.TakePending()
	if who, err := b.Send(1, p); err != nil || who != 1 {
		t.Fatalf("Send(virq) -> %d, %v", who, err)
	}
}

func TestMaskedPortNotDelivered(t *testing.T) {
	b, t0, _ := pair(t)
	back, _ := t0.AllocUnbound(1)
	front, _ := b.BindInterdomain(1, 0, back)
	port, _ := t0.Port(back)
	port.Masked = true
	if _, err := b.Send(1, front); err != nil {
		t.Fatal(err)
	}
	if got := t0.PendingPorts(); len(got) != 0 {
		t.Fatalf("masked port visible: %v", got)
	}
	port.Masked = false
	if got := t0.PendingPorts(); len(got) != 1 {
		t.Fatal("unmasking did not reveal pending bit")
	}
}

func TestCloseClearsPort(t *testing.T) {
	b, t0, _ := pair(t)
	back, _ := t0.AllocUnbound(1)
	front, _ := b.BindInterdomain(1, 0, back)
	if err := t0.Close(back); err != nil {
		t.Fatal(err)
	}
	if p, _ := t0.Port(back); p.State != Free {
		t.Fatal("closed port not free")
	}
	// Send to the closed peer fails cleanly.
	if _, err := b.Send(1, front); err == nil {
		t.Fatal("send to closed peer succeeded")
	}
	if err := t0.Close(99); err == nil {
		t.Fatal("close of bad port succeeded")
	}
}

func TestUnregisterBreaksRouting(t *testing.T) {
	b, t0, _ := pair(t)
	back, _ := t0.AllocUnbound(1)
	front, _ := b.BindInterdomain(1, 0, back)
	b.Unregister(0)
	if b.Table(0) != nil {
		t.Fatal("table still registered")
	}
	if _, err := b.Send(1, front); err == nil {
		t.Fatal("send to unregistered domain succeeded")
	}
}

func TestSendErrors(t *testing.T) {
	b, _, t1 := pair(t)
	if _, err := b.Send(9, 1); err == nil {
		t.Fatal("send from unregistered domain succeeded")
	}
	if _, err := b.Send(1, 99); !errors.Is(err, ErrBadPort) {
		t.Fatalf("err = %v, want ErrBadPort", err)
	}
	p, _ := t1.AllocUnbound(0)
	if _, err := b.Send(1, p); !errors.Is(err, ErrBadState) {
		t.Fatalf("send on unbound port: %v, want ErrBadState", err)
	}
}

// TestPropertyPendingConservation: any sequence of sends across a bound
// pair leaves each side with at most one pending bit per port, and
// TakePending drains exactly the pending set.
func TestPropertyPendingConservation(t *testing.T) {
	f := func(sends []bool) bool {
		b, t0, t1 := pair(nil)
		back, _ := t0.AllocUnbound(1)
		front, _ := b.BindInterdomain(1, 0, back)
		for _, toBack := range sends {
			if toBack {
				b.Send(1, front)
			} else {
				b.Send(0, back)
			}
		}
		p0 := len(t0.PendingPorts())
		p1 := len(t1.PendingPorts())
		if p0 > 1 || p1 > 1 {
			return false
		}
		t0.TakePending()
		t1.TakePending()
		return len(t0.PendingPorts()) == 0 && len(t1.PendingPorts()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLastPendingMatchesEnumeration: over random pending/masked
// patterns, LastPending is the last element of the PendingPorts
// enumeration (0 when it is empty), and ClearPending clears exactly the
// ports PendingPorts listed — masked pending ports keep their bit.
func TestPropertyLastPendingMatchesEnumeration(t *testing.T) {
	f := func(pending, masked uint64, size uint8) bool {
		tab := NewTable(1, 1+int(size%64))
		for p := 0; p < tab.Len(); p++ {
			tab.ports[p].Pending = pending>>p&1 != 0
			tab.ports[p].Masked = masked>>p&1 != 0
		}
		// The expectation comes from the bit patterns themselves.
		want := 0
		for p := 1; p < tab.Len(); p++ {
			if (pending&^masked)>>p&1 != 0 {
				want = p
			}
		}
		listed := tab.PendingPorts()
		if len(listed) == 0 && want != 0 || len(listed) > 0 && listed[len(listed)-1] != want {
			return false
		}
		if tab.LastPending() != want {
			return false
		}
		tab.ClearPending()
		if tab.LastPending() != 0 || len(tab.PendingPorts()) != 0 {
			return false
		}
		for p := 1; p < tab.Len(); p++ {
			maskedPending := pending>>p&1 != 0 && masked>>p&1 != 0
			if tab.ports[p].Pending != maskedPending {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if tab := NewTable(1, 8); tab.LastPending() != 0 {
		t.Fatal("LastPending on an empty table is not 0")
	}
}
