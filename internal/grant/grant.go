// Package grant implements Xen-style grant tables: the mechanism by which
// a domain shares individual page frames with a peer (the block and
// network I/O rings' data path).
//
// A domain writes entries into its own grant table (guest memory — no
// hypervisor involvement); the peer then asks the hypervisor to map a
// granted frame, which allocates a maptrack handle and raises the frame's
// mapping count. Those mapping-count updates are exactly the §IV
// non-idempotent state the retry-mitigation logging exists for.
package grant

import (
	"errors"
	"fmt"
	"sort"
)

// Errors.
var (
	ErrBadRef    = errors.New("grant: invalid grant reference")
	ErrNotInUse  = errors.New("grant: entry not in use")
	ErrBusy      = errors.New("grant: entry has active mappings")
	ErrBadHandle = errors.New("grant: invalid maptrack handle")
)

// Entry is one guest-visible grant table entry.
type Entry struct {
	InUse    bool
	Frame    int
	ReadOnly bool
	// MapCount counts active mappings through this entry (maintained by
	// the hypervisor as peers map/unmap).
	MapCount int
}

// Table is a domain's grant table.
type Table struct {
	owner int
	tableState
}

// tableState is the entry contents; the table never resizes.
type tableState struct{ entries []Entry }

// DefaultRefs is the default grant table size.
const DefaultRefs = 128

// NewTable builds a grant table for a domain.
func NewTable(owner, size int) *Table {
	if size <= 0 {
		size = DefaultRefs
	}
	return &Table{owner, tableState{make([]Entry, size)}}
}

// Len returns the table size.
func (t *Table) Len() int { return len(t.entries) }

// Entry returns entry ref for inspection.
func (t *Table) Entry(ref int) (*Entry, error) {
	if ref < 0 || ref >= len(t.entries) {
		return nil, fmt.Errorf("%w: %d", ErrBadRef, ref)
	}
	return &t.entries[ref], nil
}

// Grant publishes frame through ref (a guest-side write to the domain's
// own grant table). Re-granting an in-use entry is allowed while unmapped
// (the guest updating its ring buffers).
func (t *Table) Grant(ref, frame int, readOnly bool) error {
	e, err := t.Entry(ref)
	if err != nil {
		return err
	}
	if e.InUse && e.MapCount > 0 {
		return fmt.Errorf("%w: ref %d", ErrBusy, ref)
	}
	*e = Entry{InUse: true, Frame: frame, ReadOnly: readOnly}
	return nil
}

// Revoke withdraws the grant. It fails while mappings are active — the
// guest must wait for the peer to unmap (Xen's gnttab_end_foreign_access
// busy case).
func (t *Table) Revoke(ref int) error {
	e, err := t.Entry(ref)
	if err != nil {
		return err
	}
	if !e.InUse {
		return fmt.Errorf("%w: ref %d", ErrNotInUse, ref)
	}
	if e.MapCount > 0 {
		return fmt.Errorf("%w: ref %d (%d mappings)", ErrBusy, ref, e.MapCount)
	}
	*e = Entry{}
	return nil
}

// ActiveGrants returns the refs currently in use.
func (t *Table) ActiveGrants() []int {
	var out []int
	for i := range t.entries {
		if t.entries[i].InUse {
			out = append(out, i)
		}
	}
	return out
}

// Handle identifies one active mapping (Xen's maptrack handle).
type Handle int

// Mapping records what a handle maps.
type Mapping struct {
	GranterDom int
	Ref        int
	Frame      int
}

// Maptrack is the hypervisor-side bookkeeping of a mapper domain's active
// grant mappings.
type Maptrack struct {
	owner int
	maptrackState
}

// maptrackState is the active mappings and the handle counter.
type maptrackState struct {
	maps map[Handle]Mapping
	next Handle
}

// NewMaptrack builds the maptrack for a mapping domain.
func NewMaptrack(owner int) *Maptrack {
	return &Maptrack{owner, maptrackState{maps: make(map[Handle]Mapping)}}
}

// Map maps granted entry ref of the granter's table, returning the handle
// and the granted frame. The frame's descriptor-level reference count is
// the caller's responsibility (the hypercall handler's logged IncUse).
func (m *Maptrack) Map(granter *Table, ref int) (Handle, int, error) {
	e, err := granter.Entry(ref)
	if err != nil {
		return 0, 0, err
	}
	if !e.InUse {
		return 0, 0, fmt.Errorf("%w: ref %d", ErrNotInUse, ref)
	}
	e.MapCount++
	h := m.next
	m.next++
	m.maps[h] = Mapping{GranterDom: granter.owner, Ref: ref, Frame: e.Frame}
	return h, e.Frame, nil
}

// Unmap releases a handle, dropping the granter entry's map count, and
// returns the mapping that was released.
func (m *Maptrack) Unmap(h Handle, granter *Table) (Mapping, error) {
	mp, ok := m.maps[h]
	if !ok {
		return Mapping{}, fmt.Errorf("%w: %d", ErrBadHandle, h)
	}
	e, err := granter.Entry(mp.Ref)
	if err != nil {
		return Mapping{}, err
	}
	if e.MapCount > 0 {
		e.MapCount--
	}
	delete(m.maps, h)
	return mp, nil
}

// HandleForRef finds an active handle mapping (granterDom, ref), or -1.
func (m *Maptrack) HandleForRef(granterDom, ref int) Handle {
	for h, mp := range m.maps {
		if mp.GranterDom == granterDom && mp.Ref == ref {
			return h
		}
	}
	return -1
}

// Mappings returns the active mappings in handle order — the deterministic
// view the audit uses to recompute granter-side map counts.
func (m *Maptrack) Mappings() []Mapping {
	handles := make([]Handle, 0, len(m.maps))
	for h := range m.maps {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	out := make([]Mapping, 0, len(handles))
	for _, h := range handles {
		out = append(out, m.maps[h])
	}
	return out
}
