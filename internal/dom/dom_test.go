package dom

import (
	"errors"
	"math/rand/v2"
	"testing"

	"nilihype/internal/locking"
	"nilihype/internal/sched"
)

func TestFailFirstReasonWins(t *testing.T) {
	d := &Domain{ID: 1}
	d.Fail("first")
	d.Fail("second")
	if !d.Failed || d.FailReason != "first" {
		t.Fatalf("failed=%v reason=%q", d.Failed, d.FailReason)
	}
}

func TestUpcallVCPU(t *testing.T) {
	reg := locking.NewRegistry()
	s := sched.NewScheduler(1, reg)
	v := s.AddVCPU(1, 0, 0)
	d := &Domain{ID: 1}
	d.VCPUs = []*sched.VCPU{v}
	if got := d.UpcallVCPU(); got != v {
		t.Fatalf("UpcallVCPU = %v, want vcpu", got)
	}
	empty := &Domain{ID: 2}
	if got := empty.UpcallVCPU(); got != nil {
		t.Fatal("UpcallVCPU with no vCPUs returned a vCPU")
	}
}

func TestListInsertRemoveByID(t *testing.T) {
	l := NewList()
	a := &Domain{ID: 0, IsPriv: true}
	b := &Domain{ID: 1}
	l.Insert(a)
	l.Insert(b)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	got, err := l.ByID(1)
	if err != nil || got != b {
		t.Fatalf("ByID(1) = %v, %v", got, err)
	}
	if _, err := l.ByID(9); err == nil {
		t.Fatal("ByID(9) succeeded")
	}
	l.Remove(a)
	if l.Len() != 1 {
		t.Fatalf("Len after remove = %d", l.Len())
	}
	l.Remove(a) // idempotent
	all, err := l.All()
	if err != nil || len(all) != 1 || all[0] != b {
		t.Fatalf("All = %v, %v", all, err)
	}
}

func TestListCorruptionFailsTraversals(t *testing.T) {
	// Exercise every structural damage mode against the traversals that
	// must detect it; Rebuild must repair each one from the preserved
	// structures.
	damage := []struct {
		name  string
		apply func(l *List, a, b, c *Domain)
	}{
		{"poisoned link", func(l *List, a, b, c *Domain) { a.next = poisonDomain }},
		{"truncation", func(l *List, a, b, c *Domain) { a.next = nil }},
		{"cycle", func(l *List, a, b, c *Domain) { b.next = l.head }},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			l := NewList()
			a, b, c := &Domain{ID: 0}, &Domain{ID: 1}, &Domain{ID: 2}
			l.Insert(a)
			l.Insert(b)
			l.Insert(c)
			d.apply(l, a, b, c)
			if err := l.CheckLinks(); !errors.Is(err, ErrListCorrupted) {
				t.Fatalf("CheckLinks err = %v, want ErrListCorrupted", err)
			}
			// The walk fails when it crosses the damage point: domain 2
			// sits past every damage site above.
			if _, err := l.ByID(2); !errors.Is(err, ErrListCorrupted) {
				t.Fatalf("ByID err = %v, want ErrListCorrupted", err)
			}
			if _, err := l.All(); !errors.Is(err, ErrListCorrupted) {
				t.Fatalf("All err = %v, want ErrListCorrupted", err)
			}
			if l.Len() != 3 {
				t.Fatal("Len must work on corrupted list (separate bookkeeping)")
			}
			if got := len(l.Preserved()); got != 3 {
				t.Fatalf("Preserved = %d domains, want 3", got)
			}
			if fixed := l.Rebuild(); fixed == 0 {
				t.Fatal("Rebuild fixed no links on a damaged list")
			}
			if err := l.CheckLinks(); err != nil {
				t.Fatalf("CheckLinks after rebuild: %v", err)
			}
			if _, err := l.ByID(2); err != nil {
				t.Fatalf("ByID after rebuild: %v", err)
			}
		})
	}
}

func TestCorruptLinkIsDetectable(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 50; i++ {
		l := NewList()
		l.Insert(&Domain{ID: 0})
		l.Insert(&Domain{ID: 1})
		l.Insert(&Domain{ID: 2})
		desc := l.CorruptLink(rng)
		if err := l.CheckLinks(); !errors.Is(err, ErrListCorrupted) {
			t.Fatalf("iteration %d (%s): CheckLinks err = %v, want ErrListCorrupted", i, desc, err)
		}
		l.Rebuild()
		if err := l.CheckLinks(); err != nil {
			t.Fatalf("iteration %d (%s): rebuild left damage: %v", i, desc, err)
		}
	}
	empty := NewList()
	if desc := empty.CorruptLink(rng); desc != "domain list empty; nothing to damage" {
		t.Fatalf("empty-list CorruptLink = %q", desc)
	}
}
