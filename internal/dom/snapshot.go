package dom

import (
	"slices"

	"nilihype/internal/evtchn"
	"nilihype/internal/grant"
	"nilihype/internal/snap"
)

// savedDomain is one domain's state value plus the snapshots of its
// owned sub-tables, which every domain the hypervisor creates has. The rest of the hypervisor references domains by
// pointer, so restore revives the same structures in place.
type savedDomain struct {
	snap.Obj[Domain, domainState]
	events   *evtchn.TableSnapshot
	grants   *grant.TableSnapshot
	maptrack *grant.MaptrackSnapshot
}

// Snapshot captures the domain list: the preserved structures in insertion
// order (link state is implied — a snapshot is only taken while the links
// are intact, so restore relinks from the order) and each domain's state
// and sub-tables.
type Snapshot struct {
	domains []savedDomain
}

// Snapshot captures the list state.
func (l *List) Snapshot() *Snapshot {
	s := &Snapshot{make([]savedDomain, len(l.domains))}
	for i, d := range l.domains {
		st := d.domainState
		st.VCPUs = slices.Clone(st.VCPUs)
		s.domains[i] = savedDomain{snap.Obj[Domain, domainState]{P: d, S: st},
			d.Events.Snapshot(), d.GrantTab.Snapshot(), d.Maptrack.Snapshot()}
	}
	return s
}

// Restore rewinds the list: domains created after the snapshot drop out,
// snapshot domains regain their saved state and sub-table contents, and
// the linked list is rebuilt from the saved insertion order (undoing any
// link corruption inflicted since).
func (l *List) Restore(s *Snapshot) {
	l.domains = l.domains[:0]
	for i := range s.domains {
		sd := &s.domains[i]
		d := sd.P
		d.domainState, d.VCPUs = sd.S, snap.Slice(d.VCPUs, sd.S.VCPUs)
		d.Events.Restore(sd.events)
		d.GrantTab.Restore(sd.grants)
		d.Maptrack.Restore(sd.maptrack)
		l.domains = append(l.domains, d)
	}
	l.relink()
}
