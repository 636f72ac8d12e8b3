package hv

import (
	"testing"

	"nilihype/internal/hypercall"
)

// BenchmarkDispatchEventChannelOp measures hv.Dispatch of one
// event_channel_op — build the program, run its steps with undo logging
// and telemetry on, deliver to the PrivVM backend port — on a recycled
// call record, as the guest layer issues it.
func BenchmarkDispatchEventChannelOp(b *testing.B) {
	h, _ := newBooted(b)
	addAppVM(b, h, 1, 1)
	d, err := h.Domain(1)
	if err != nil {
		b.Fatal(err)
	}
	call := &hypercall.Call{}
	dispatch := func() {
		*call = hypercall.Call{Op: hypercall.OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 0, uint64(d.RingPort)}}
		h.Dispatch(1, call)
		if !call.Done {
			b.Fatalf("%v did not complete", call)
		}
	}
	dispatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatch()
	}
}
