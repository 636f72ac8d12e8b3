package hypercall

import (
	"fmt"
	"testing"
)

// TestPropertyRetryAfterAnyPrefix is the central correctness property of
// the recovery machinery: for EVERY handler and EVERY abandonment point,
// executing a prefix of the program, force-releasing the leaked locks,
// rolling back the undo log, and retrying from scratch must produce
// exactly the state of an uninterrupted execution.
//
// Abandonments inside unmitigated windows are excluded: those model the
// §IV residual where the log cannot be trusted, and their retries are
// *expected* to trip assertions (covered by the poisoned-retry tests).
func TestPropertyRetryAfterAnyPrefix(t *testing.T) {
	type scenario struct {
		name  string
		setup func(fx *fixture) // pre-state (e.g. pin before unpin)
		call  func() *Call
	}
	scenarios := []scenario{
		{"mmu_pin", nil, func() *Call {
			return &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 200}}
		}},
		{"mmu_unpin", func(fx *fixture) {
			fx.runAll(t, &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 200}})
		}, func() *Call {
			return &Call{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUUnpin, 200}}
		}},
		{"memory_populate", nil, func() *Call {
			return &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemPopulate, 8}}
		}},
		{"memory_release", nil, func() *Call {
			return &Call{Op: OpMemoryOp, Dom: 1, Args: [4]uint64{MemRelease, 8}}
		}},
		{"grant_map", func(fx *fixture) {
			if err := fx.d1.GrantTab.Grant(5, 190, false); err != nil {
				t.Fatal(err)
			}
		}, func() *Call {
			return &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantMap, 5, 190}}
		}},
		{"grant_unmap", func(fx *fixture) {
			if err := fx.d1.GrantTab.Grant(5, 190, false); err != nil {
				t.Fatal(err)
			}
			fx.runAll(t, &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantMap, 5, 190}})
		}, func() *Call {
			return &Call{Op: OpGrantTableOp, Dom: 1, Args: [4]uint64{GrantUnmap, 5, 190}}
		}},
		{"evtchn_send", nil, func() *Call {
			// Ring port 1 is bound by the fixture.
			return &Call{Op: OpEventChannelOp, Dom: 1, Args: [4]uint64{0, 0, 1}}
		}},
		{"set_timer", nil, func() *Call {
			return &Call{Op: OpSetTimerOp, Dom: 1, Args: [4]uint64{0, 1000000}}
		}},
		{"console_io", nil, func() *Call {
			return &Call{Op: OpConsoleIO, Dom: 1}
		}},
		{"vcpu_op", nil, func() *Call {
			return &Call{Op: OpVCPUOp, Dom: 1}
		}},
		{"syscall_forward", nil, func() *Call {
			return &Call{Op: OpSyscallForward, Dom: 1}
		}},
		{"ept_populate", nil, func() *Call {
			return &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTPopulate, 200}}
		}},
		{"ept_unmap", func(fx *fixture) {
			fx.runAll(t, &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTPopulate, 200}})
		}, func() *Call {
			return &Call{Op: OpEPTViolation, Dom: 1, Args: [4]uint64{EPTUnmap, 200}}
		}},
		{"multicall_pins", nil, func() *Call {
			return &Call{Op: OpMulticall, Dom: 1, Batch: []*Call{
				{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 201}},
				{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 202}},
				{Op: OpMMUUpdate, Dom: 1, Args: [4]uint64{MMUPin, 203}},
			}}
		}},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Reference: uninterrupted execution.
			ref := newFixture(t)
			if sc.setup != nil {
				sc.setup(ref)
			}
			ref.runAll(t, sc.call())
			want := snapshotState(ref)

			// Program length for the enumeration (built on a throwaway
			// fixture so build-time effects don't leak).
			probe := newFixture(t)
			if sc.setup != nil {
				sc.setup(probe)
			}
			probe.env.Call = sc.call()
			prog, err := Build(probe.env, probe.env.Call)
			if err != nil {
				t.Fatal(err)
			}

			for k := 0; k < len(prog); k++ {
				if prog[k].Unmitigated {
					continue // §IV residual: poisoned retries are expected to fail
				}
				fx := newFixture(t)
				if sc.setup != nil {
					sc.setup(fx)
				}
				call := sc.call()
				if err := fx.run(call, k); err != nil {
					t.Fatalf("prefix %d: %v", k, err)
				}
				// Recovery: release leaked locks, roll back, retry.
				fx.locks.UnlockHeapLocks()
				fx.locks.UnlockStaticSegment()
				fx.env.Undo.Rollback()
				if err := fx.run(call, -1); err != nil {
					t.Fatalf("retry after prefix %d failed: %v", k, err)
				}
				got := snapshotState(fx)
				if got != want {
					t.Fatalf("prefix %d: state diverged\n got: %s\nwant: %s", k, got, want)
				}
				if held := fx.locks.HeldLocks(); len(held) != 0 {
					t.Fatalf("prefix %d: %d locks held after retry", k, len(held))
				}
			}
		})
	}
}

// snapshotState summarizes the externally observable hypervisor state the
// retries must converge on.
func snapshotState(fx *fixture) string {
	var counts, validated int
	for i := 0; i < fx.frames.Len(); i++ {
		f := fx.frames.At(i)
		counts += int(f.UseCount)
		if f.Validated {
			validated++
		}
	}
	return fmt.Sprintf("useCountSum=%d validated=%d totPages=%d inconsistent=%d pendingLocal=%d pendingPeer=%d timers=%d",
		counts, validated, fx.d1.TotPages,
		len(fx.frames.InconsistentFrames()),
		len(pendingPorts(fx.d1.Events)), len(pendingPorts(fx.d0.Events)),
		fx.env.Timers.PendingCount(0)) + fmt.Sprintf(" maps=%d grants=%d",
		len(fx.d1.Maptrack.Mappings()), len(fx.d1.GrantTab.ActiveGrants()))
}
