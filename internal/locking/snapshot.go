package locking

import "nilihype/internal/snap"

// Snapshot captures both lock populations with each lock's state: the
// static segment (fixed membership, mutable words) and the heap
// population (mutable membership — locks are added and dropped with their
// containing objects — in declaration order, which CorruptRandomHold's
// victim selection depends on). Locks are referenced from heap objects,
// domains, the scheduler and the static segment, so restore revives the
// same objects in place.
type Snapshot struct {
	static, heap []snap.Obj[Lock, lockState]
}

func lockSt(l *Lock) *lockState { return &l.lockState }

// Snapshot captures the registry.
func (r *Registry) Snapshot() *Snapshot {
	return &Snapshot{snap.Save(r.static, lockSt), snap.Save(r.heap, lockSt)}
}

// Restore rewinds the registry: every snapshot lock regains its saved
// word, and both populations regain their exact saved order (locks
// registered since the snapshot drop out).
func (r *Registry) Restore(s *Snapshot) {
	r.static = snap.Revive(r.static, s.static, lockSt)
	r.heap = snap.Revive(r.heap, s.heap, lockSt)
}
