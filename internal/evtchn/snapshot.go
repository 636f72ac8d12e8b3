package evtchn

import (
	"maps"
	"slices"

	"nilihype/internal/snap"
)

// TableSnapshot is one domain's captured port table.
type TableSnapshot struct{ tableState }

// Snapshot captures the table's ports.
func (t *Table) Snapshot() *TableSnapshot {
	return &TableSnapshot{tableState{slices.Clone(t.ports)}}
}

// Restore rewrites the table's ports from the snapshot.
func (t *Table) Restore(s *TableSnapshot) { copy(t.ports, s.ports) }

// BrokerSnapshot captures the broker's registration set. Port contents are
// restored per-table by the domain layer; the broker only tracks which
// tables exist.
type BrokerSnapshot struct{ brokerState }

// Snapshot captures the registered tables.
func (b *Broker) Snapshot() *BrokerSnapshot {
	return &BrokerSnapshot{brokerState{maps.Clone(b.tables)}}
}

// Restore rewinds the registration set: tables registered after the
// snapshot drop out, snapshot tables are re-registered.
func (b *Broker) Restore(s *BrokerSnapshot) { snap.Map(b.tables, s.tables) }
