package guest

import "nilihype/internal/hypercall"

// The world's hypercall free list. Guests issue tens of thousands of calls
// per run; almost all complete synchronously within the dispatch, so the
// records can be recycled immediately instead of allocated fresh each time.
// A record comes back through one of two gates:
//
//   - Refusal: hv.Dispatch returned false. The hypervisor had failed or
//     the CPU was stuck (wedged or spinning), and it never referenced the
//     call. A guest keeps iterating on a stuck CPU until the watchdog
//     fires, so in a run that wedges or spins this is most of the traffic.
//   - Call.Done: the hypervisor core sets it only when an accepted call
//     completes cleanly.
//
// An accepted call that is not Done may still be referenced by recovery
// machinery (a pause-deferred dispatch, a pending-retry record), so it is
// abandoned to the garbage collector and never double-used. Only a run
// that a fault interrupted leaves such records behind.
//
// Worlds are confined to one campaign worker goroutine, so the free list
// needs no locking.

// getCall returns a zeroed call record, reusing a recycled one when
// available.
func (w *World) getCall() *hypercall.Call { return popCall(&w.callFree) }

// getBatch returns a zeroed multicall record. Batches recycle through a
// list of their own so that the record handed out is one whose Batch slice
// already has capacity: on the shared list, one retained (not Done) batch
// shifts the LIFO order and a component record gets re-grown as the batch.
func (w *World) getBatch() *hypercall.Call { return popCall(&w.batchFree) }

func popCall(free *[]*hypercall.Call) *hypercall.Call {
	f := *free
	if n := len(f); n > 0 {
		c := f[n-1]
		f[n-1] = nil
		*free = f[:n-1]
		return c
	}
	return &hypercall.Call{}
}

// putCall recycles a dispatched call if the hypervisor refused it or
// marked it Done.
func (w *World) putCall(c *hypercall.Call, accepted bool) {
	if accepted && !c.Done {
		return
	}
	resetCall(c)
	w.callFree = append(w.callFree, c)
}

// putBatch recycles a dispatched multicall and its components. Components
// are never marked Done individually — they live and die with the outer
// batch, so the outer batch's gate decides for the whole group.
func (w *World) putBatch(b *hypercall.Call, accepted bool) {
	if accepted && !b.Done {
		return
	}
	for i, c := range b.Batch {
		resetCall(c)
		w.callFree = append(w.callFree, c)
		b.Batch[i] = nil
	}
	resetCall(b)
	w.batchFree = append(w.batchFree, b)
}

// resetCall zeroes a call, keeping its Batch capacity.
func resetCall(c *hypercall.Call) {
	batch := c.Batch[:0]
	*c = hypercall.Call{}
	c.Batch = batch
}

// call dispatches a simple (non-batched, spec-free) hypercall from a
// pooled record and recycles it on refusal or completion — the guest fast
// path.
func (w *World) call(cpu int, op hypercall.Op, domID int, args [4]uint64) {
	c := w.getCall()
	c.Op = op
	c.Dom = domID
	c.Args = args
	w.putCall(c, w.H.Dispatch(cpu, c))
}
