package grant

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGrantRevokeRoundTrip(t *testing.T) {
	tab := NewTable(1, 8)
	if tab.owner != 1 || tab.Len() != 8 {
		t.Fatal("accessors wrong")
	}
	if err := tab.Grant(3, 100, false); err != nil {
		t.Fatal(err)
	}
	e, err := tab.Entry(3)
	if err != nil || !e.InUse || e.Frame != 100 || e.ReadOnly {
		t.Fatalf("entry = %+v, %v", e, err)
	}
	if got := tab.ActiveGrants(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("ActiveGrants = %v", got)
	}
	if err := tab.Revoke(3); err != nil {
		t.Fatal(err)
	}
	if got := tab.ActiveGrants(); len(got) != 0 {
		t.Fatalf("ActiveGrants after revoke = %v", got)
	}
}

func TestGrantErrors(t *testing.T) {
	tab := NewTable(1, 4)
	if err := tab.Grant(99, 1, false); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v, want ErrBadRef", err)
	}
	if err := tab.Revoke(2); !errors.Is(err, ErrNotInUse) {
		t.Fatalf("err = %v, want ErrNotInUse", err)
	}
	if _, err := tab.Entry(-1); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v, want ErrBadRef", err)
	}
}

func TestMapUnmapLifecycle(t *testing.T) {
	granter := NewTable(1, 8)
	mt := NewMaptrack(0)
	if err := granter.Grant(2, 555, true); err != nil {
		t.Fatal(err)
	}
	h, frame, err := mt.Map(granter, 2)
	if err != nil || frame != 555 {
		t.Fatalf("Map = %v, %d, %v", h, frame, err)
	}
	if len(mt.maps) != 1 {
		t.Fatalf("Active = %d", len(mt.maps))
	}
	e, _ := granter.Entry(2)
	if e.MapCount != 1 {
		t.Fatalf("MapCount = %d", e.MapCount)
	}
	// Busy entry cannot be revoked or re-granted.
	if err := granter.Revoke(2); !errors.Is(err, ErrBusy) {
		t.Fatalf("revoke busy: %v, want ErrBusy", err)
	}
	if err := granter.Grant(2, 777, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("re-grant busy: %v, want ErrBusy", err)
	}
	if got := mt.HandleForRef(1, 2); got != h {
		t.Fatalf("HandleForRef = %v, want %v", got, h)
	}
	mp, err := mt.Unmap(h, granter)
	if err != nil || mp.Frame != 555 || mp.Ref != 2 || mp.GranterDom != 1 {
		t.Fatalf("Unmap = %+v, %v", mp, err)
	}
	if e.MapCount != 0 || len(mt.maps) != 0 {
		t.Fatal("counts not restored")
	}
	if err := granter.Revoke(2); err != nil {
		t.Fatalf("revoke after unmap: %v", err)
	}
	if got := mt.HandleForRef(1, 2); got != -1 {
		t.Fatalf("HandleForRef after unmap = %v", got)
	}
}

func TestMapErrors(t *testing.T) {
	granter := NewTable(1, 4)
	mt := NewMaptrack(0)
	if _, _, err := mt.Map(granter, 2); !errors.Is(err, ErrNotInUse) {
		t.Fatalf("map unused: %v", err)
	}
	if _, _, err := mt.Map(granter, 99); !errors.Is(err, ErrBadRef) {
		t.Fatalf("map bad ref: %v", err)
	}
	if _, err := mt.Unmap(42, granter); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("unmap bad handle: %v", err)
	}
}

func TestMultipleMappingsPerEntry(t *testing.T) {
	granter := NewTable(1, 4)
	mt := NewMaptrack(0)
	granter.Grant(1, 10, false)
	h1, _, _ := mt.Map(granter, 1)
	h2, _, _ := mt.Map(granter, 1)
	e, _ := granter.Entry(1)
	if e.MapCount != 2 {
		t.Fatalf("MapCount = %d", e.MapCount)
	}
	mt.Unmap(h1, granter)
	if e.MapCount != 1 {
		t.Fatalf("MapCount after first unmap = %d", e.MapCount)
	}
	mt.Unmap(h2, granter)
	if e.MapCount != 0 {
		t.Fatalf("MapCount after second unmap = %d", e.MapCount)
	}
}

// TestPropertyMapCountBalance: any interleaving of grants, maps and
// unmaps keeps every entry's MapCount equal to its live handles.
func TestPropertyMapCountBalance(t *testing.T) {
	f := func(ops []uint8) bool {
		granter := NewTable(1, 8)
		mt := NewMaptrack(0)
		var handles []Handle
		for _, op := range ops {
			ref := int(op) % 8
			switch (op / 8) % 3 {
			case 0:
				granter.Grant(ref, int(op), false)
			case 1:
				if h, _, err := mt.Map(granter, ref); err == nil {
					handles = append(handles, h)
				}
			case 2:
				if len(handles) > 0 {
					mt.Unmap(handles[len(handles)-1], granter)
					handles = handles[:len(handles)-1]
				}
			}
		}
		// Balance: sum of MapCounts == live handles.
		sum := 0
		for ref := 0; ref < 8; ref++ {
			e, _ := granter.Entry(ref)
			if e.MapCount < 0 {
				return false
			}
			sum += e.MapCount
		}
		return sum == len(mt.maps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
