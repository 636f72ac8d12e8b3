package hv

import "fmt"

// Console is the hypervisor console: a bounded ring of messages guarded
// by the static console lock (the structure console_io writes under). The
// PrivVM drains it during normal operation; recovery diagnostics land
// here too, which is why a held console lock after a failed recovery is
// so deadly — even the panic path wants it.
type Console struct {
	cap int
	consoleState
}

// consoleState is the ring contents and counters.
type consoleState struct {
	ring  []consLine
	start int

	// Written counts all messages ever accepted; Dropped counts ring
	// overwrites (oldest-first overwrite, as in Xen's conring).
	Written uint64
	Dropped uint64
}

// consLine is one buffered message. A guest's console_io line is kept as
// the (domain, call sequence) pair it is made of and rendered only when
// read: the PrivVM's console daemon discards the ring unread on every
// housekeeping tick, so formatting at write time was work thrown away.
type consLine struct {
	text  string // a rendered message (Write)
	guest bool   // a guest line: rendered from dom and seq
	dom   int
	seq   uint64
}

func (l consLine) String() string {
	if l.guest {
		return fmt.Sprintf("d%d: console output (call %d)", l.dom, l.seq)
	}
	return l.text
}

// NewConsole builds a console ring with the given capacity.
func NewConsole(capacity int) *Console {
	if capacity <= 0 {
		capacity = 256
	}
	return &Console{cap: capacity}
}

// Write appends a message, overwriting the oldest once full. Callers must
// hold the console lock (hypercall handlers acquire it; the model does not
// enforce it here because panic paths write lock-free by design).
func (c *Console) Write(msg string) { c.write(consLine{text: msg}) }

// WriteGuest appends domain dom's console_io output for call seq, under
// the same rules as Write.
func (c *Console) WriteGuest(dom int, seq uint64) {
	c.write(consLine{guest: true, dom: dom, seq: seq})
}

func (c *Console) write(l consLine) {
	c.Written++
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, l)
		return
	}
	c.ring[c.start] = l
	c.start = (c.start + 1) % c.cap
	c.Dropped++
}

// Discard clears the buffered messages without rendering them (the
// PrivVM's console daemon), so draining never allocates.
func (c *Console) Discard() {
	clear(c.ring)
	c.ring = c.ring[:0]
	c.start = 0
}
