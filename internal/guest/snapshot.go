package guest

import (
	"maps"

	"nilihype/internal/snap"
)

// WorldSnapshot captures the guest world's structure: which AppVMs exist,
// and the PrivVM's health. Per-run workload state (counters, RNGs, file
// stores) is not saved — Restore resets it and the campaign re-arms each
// VM with SeedAppVM, the same way a cold boot would.
type WorldSnapshot struct {
	worldState
	apps map[int]*AppVM
}

// Snapshot captures the world's AppVM set.
func (w *World) Snapshot() *WorldSnapshot {
	return &WorldSnapshot{w.worldState, maps.Clone(w.apps)}
}

// Restore rewinds the world: AppVMs attached after the snapshot (the
// 3AppVM setup's post-recovery BlkBench VM) drop out, the snapshot VMs
// reset to their pre-Start state, and the external sender's measurements
// clear. The PrivVM's housekeeping tick chain is armed again by the paired
// clock restore. Callers must Reseed and SeedAppVM afterwards to arm the
// next run.
func (w *World) Restore(s *WorldSnapshot) {
	w.worldState = s.worldState
	for _, vm := range snap.Map(w.apps, s.apps) {
		vm.resetForRun()
	}
	w.Sender.senderState = senderState{
		replyTimes: w.Sender.replyTimes[:0], exclusions: w.Sender.exclusions[:0]}
}

// resetForRun returns the VM to a state indistinguishable (to the
// workload) from freshly created: its run state zeroes, while allocation
// pools — the process free list, the in-flight map, the file store's map,
// the cached iterate method values — keep their capacity for the next
// run. SeedAppVM reseeds rng and Files afterwards, so a forked run draws
// exactly what a cold boot would.
func (vm *AppVM) resetForRun() {
	vm.appvmState = appvmState{}
	vm.procs.reset()
	clear(vm.inFlight)
}
