package mm

import (
	"errors"
	"fmt"
	"math"
)

// ErrUseCountUnderflow is returned when a reference count would go
// negative — in Xen this trips an ASSERT and panics the hypervisor. It is
// the post-recovery signature of a retried non-idempotent hypercall whose
// first partial execution already dropped the count (§IV).
var ErrUseCountUnderflow = errors.New("mm: page use count underflow")

// IncUse takes a reference on the frame. This is the non-idempotent state
// update at the heart of the paper's hypercall-retry problem: re-executing
// it after a partial hypercall leaves the count one too high.
func (f *PageFrame) IncUse() { f.UseCount++ }

// DecUse drops a reference, failing on underflow.
func (f *PageFrame) DecUse() error {
	if f.UseCount == 0 {
		return ErrUseCountUnderflow
	}
	f.UseCount--
	return nil
}

// AssignRange hands frames [start, start+count) to domain dom with the
// given type. Boot uses it to carve guest memory out of the machine.
func (ft *FrameTable) AssignRange(start, count, dom int, t FrameType) error {
	if start < 0 || start+count > ft.n {
		return fmt.Errorf("mm: frame range [%d,%d) out of bounds (table size %d)",
			start, start+count, ft.n)
	}
	if dom < NoDomain || dom > math.MaxInt16 {
		return fmt.Errorf("mm: domain %d does not fit a frame descriptor's owner field", dom)
	}
	for i := start; i < start+count; i++ {
		*ft.Frame(i) = PageFrame{Type: t, Owner: int16(dom)}
	}
	return nil
}
