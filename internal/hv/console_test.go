package hv

import (
	"strings"
	"testing"

	"nilihype/internal/hypercall"
)

// Drain is the reference reader: the buffered messages in write order,
// rendered, after which the ring is empty.
func (c *Console) Drain() []string {
	out := make([]string, 0, len(c.ring))
	for _, l := range c.ring[c.start:] {
		out = append(out, l.String())
	}
	for _, l := range c.ring[:c.start] {
		out = append(out, l.String())
	}
	c.ring = c.ring[:0]
	c.start = 0
	return out
}

func TestConsoleRingBasics(t *testing.T) {
	c := NewConsole(3)
	c.Write("a")
	c.Write("b")
	if len(c.ring) != 2 {
		t.Fatalf("Len = %d", len(c.ring))
	}
	got := c.Drain()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Drain = %v", got)
	}
	if len(c.ring) != 0 {
		t.Fatal("ring not cleared")
	}
}

func TestConsoleRingOverwritesOldest(t *testing.T) {
	c := NewConsole(3)
	for _, m := range []string{"1", "2", "3", "4", "5"} {
		c.Write(m)
	}
	got := c.Drain()
	if len(got) != 3 || got[0] != "3" || got[2] != "5" {
		t.Fatalf("Drain = %v, want oldest overwritten", got)
	}
	if c.Written != 5 || c.Dropped != 2 {
		t.Fatalf("written=%d dropped=%d", c.Written, c.Dropped)
	}
}

func TestConsoleDefaultCapacity(t *testing.T) {
	c := NewConsole(0)
	if c.cap != 256 {
		t.Fatalf("cap = %d", c.cap)
	}
}

func TestConsoleIOLandsInRing(t *testing.T) {
	h, _ := newBooted(t)
	addAppVM(t, h, 1, 1)
	h.Dispatch(1, &hypercall.Call{Op: hypercall.OpConsoleIO, Dom: 1})
	msgs := h.Cons.Drain()
	if len(msgs) != 1 || !strings.Contains(msgs[0], "d1") {
		t.Fatalf("console = %v", msgs)
	}
}

func TestPanicLogsToConsole(t *testing.T) {
	h, _ := newBooted(t)
	h.SetPanicHook(func(int, Cause, string) {})
	h.Panic(2, CauseOther, "something broke")
	msgs := h.Cons.Drain()
	found := false
	for _, m := range msgs {
		if strings.Contains(m, "cpu2 panic: something broke") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic not logged: %v", msgs)
	}
}

// TestConsoleGuestLinesRenderOnRead: guest lines are stored unrendered and
// keep their place among rendered ones, through overwrite and Discard.
func TestConsoleGuestLinesRenderOnRead(t *testing.T) {
	c := NewConsole(3)
	c.Write("boot")
	c.WriteGuest(4, 17)
	c.Write("(XEN) cpu1 panic: x")
	c.WriteGuest(2, 18) // overwrites "boot"
	got := c.Drain()
	want := []string{"d4: console output (call 17)", "(XEN) cpu1 panic: x", "d2: console output (call 18)"}
	if len(got) != len(want) {
		t.Fatalf("Drain = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %q, want %q", got, want)
		}
	}
	if c.Written != 4 || c.Dropped != 1 {
		t.Fatalf("written=%d dropped=%d, want 4/1", c.Written, c.Dropped)
	}
	c.WriteGuest(1, 1)
	c.Discard()
	if len(c.ring) != 0 || len(c.Drain()) != 0 {
		t.Fatal("Discard left messages behind")
	}
	if allocs := testing.AllocsPerRun(10, func() { c.WriteGuest(1, 2); c.Discard() }); allocs != 0 {
		t.Fatalf("write+discard of a guest line allocates %.0f objects, want 0", allocs)
	}
}
