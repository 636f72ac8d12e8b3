package grant

import (
	"maps"
	"slices"

	"nilihype/internal/snap"
)

// TableSnapshot is one domain's captured grant table.
type TableSnapshot struct{ tableState }

// Snapshot captures the table's entries.
func (t *Table) Snapshot() *TableSnapshot {
	return &TableSnapshot{tableState{slices.Clone(t.entries)}}
}

// Restore rewrites the table's entries from the snapshot.
func (t *Table) Restore(s *TableSnapshot) { copy(t.entries, s.entries) }

// MaptrackSnapshot captures a mapper domain's active mappings and the
// handle counter.
type MaptrackSnapshot struct{ maptrackState }

// Snapshot captures the maptrack state.
func (m *Maptrack) Snapshot() *MaptrackSnapshot {
	s := m.maptrackState
	s.maps = maps.Clone(s.maps)
	return &MaptrackSnapshot{s}
}

// Restore rewinds the maptrack: mappings created after the snapshot drop
// out, snapshot mappings regain their saved handles, and the handle
// counter rewinds.
func (m *Maptrack) Restore(s *MaptrackSnapshot) {
	m.maptrackState, m.maps = s.maptrackState, snap.Map(m.maps, s.maps)
}
