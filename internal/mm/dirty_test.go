package mm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"nilihype/internal/locking"
)

// The two oracles below visit every descriptor and never look at the dirty
// set, so they share no code with what they check. They are the only
// whole-table walks left; production code has none.

// naiveInconsistent is the full-table consistency walk.
func naiveInconsistent(frames []PageFrame) []int {
	var out []int
	for i, f := range frames {
		if f.Type == FramePageTable && (f.UseCount > 0) != f.Validated {
			out = append(out, i)
		}
	}
	return out
}

// flat reads the whole table out through At, one descriptor at a time.
func (ft *FrameTable) flat() []PageFrame {
	out := make([]PageFrame, ft.Len())
	for i := range out {
		out[i] = ft.At(i)
	}
	return out
}

// firstDifference compares the table with want descriptor by descriptor
// and returns the first index that differs, or -1.
func (ft *FrameTable) firstDifference(want []PageFrame) int {
	if ft.Len() != len(want) {
		return min(ft.Len(), len(want))
	}
	for i := range want {
		if ft.At(i) != want[i] {
			return i
		}
	}
	return -1
}

func TestSnapshotOfUnchangedTableReturnsBase(t *testing.T) {
	ft := NewFrameTable(200)
	if err := ft.AssignRange(10, 100, 1, FrameGuest); err != nil {
		t.Fatal(err)
	}
	base := ft.Snapshot()
	if again := ft.Snapshot(); again != base {
		t.Fatal("second snapshot of an untouched table copied it again")
	}
	// Fetching a pointer dirties the chunk, but the contents still equal
	// the base, so the base is still the right answer.
	ft.Frame(5)
	if again := ft.Snapshot(); again != base {
		t.Fatal("snapshot of a table equal to its base copied it again")
	}
	ft.Frame(5).IncUse()
	if changed := ft.Snapshot(); changed == base {
		t.Fatal("snapshot of a changed table returned the stale base")
	}
}

// TestRestoreFromEitherSnapshot: restoring a snapshot other than the base
// must bring back all of it, not just the chunks dirtied since some other
// snapshot, and restores may alternate freely (the benchmark rig holds two
// snapshots and does exactly that).
func TestRestoreFromEitherSnapshot(t *testing.T) {
	ft := NewFrameTable(3*chunkFrames + 7)
	a := ft.Snapshot()
	wantA := ft.flat()
	ft.Frame(1).PinAsPageTable()
	ft.Frame(3 * chunkFrames).PinAsPageTable()
	b := ft.Snapshot()
	wantB := ft.flat()
	ft.Frame(chunkFrames + 1).PinAsPageTable()

	for i, s := range []*FrameTableSnapshot{a, b, b, a, a, b} {
		want := wantA
		if s == b {
			want = wantB
		}
		ft.Restore(s)
		if d := ft.firstDifference(want); d >= 0 {
			t.Fatalf("restore %d: frame %d = %+v, want %+v", i, d, ft.At(d), want[d])
		}
		ft.Frame(2*chunkFrames + i).IncUse()
	}
}

// TestTableSpanningSegments: descriptors either side of a storage-segment
// boundary and in the short last segment are separate descriptors, scan in
// ascending order, and snapshot and restore like any other.
func TestTableSpanningSegments(t *testing.T) {
	n := segFrames + chunkFrames + 7
	ft := NewFrameTable(n)
	if err := ft.AssignRange(segFrames-3, 6, 2, FrameGuest); err != nil {
		t.Fatal(err)
	}
	base := ft.Snapshot()
	want := ft.flat()
	if ft.CountType(FrameGuest) != 6 || ft.CountType(FrameFree) != n-6 {
		t.Fatalf("CountType: %d guest, %d free", ft.CountType(FrameGuest), ft.CountType(FrameFree))
	}

	touched := []int{0, segFrames - 1, segFrames, n - 1}
	for _, i := range touched {
		f := ft.Frame(i)
		f.Type, f.UseCount = FramePageTable, 1 // reference taken, not yet validated
	}
	if got := ft.InconsistentFrames(); !slices.Equal(got, touched) {
		t.Fatalf("InconsistentFrames = %v, want %v", got, touched)
	}
	if got := ft.At(segFrames - 2); got != want[segFrames-2] {
		t.Fatalf("frame %d changed to %+v by writes to its neighbours", segFrames-2, got)
	}
	changed := ft.Snapshot()
	if changed == base {
		t.Fatal("snapshot of a changed table returned the stale base")
	}
	if repaired := ft.ScanAndRepair(); repaired != len(touched) {
		t.Fatalf("ScanAndRepair = %d, want %d", repaired, len(touched))
	}

	ft.Restore(base)
	if d := ft.firstDifference(want); d >= 0 {
		t.Fatalf("after restore: frame %d = %+v, want %+v", d, ft.At(d), want[d])
	}
	ft.Restore(changed)
	if got := ft.InconsistentFrames(); !slices.Equal(got, touched) {
		t.Fatalf("after restoring the other snapshot: InconsistentFrames = %v, want %v", got, touched)
	}
}

// TestInconsistentSnapshotKeepsReporting: a snapshot captured with a
// half-updated descriptor restores to a table whose chunks all equal the
// base, yet the scans must still find that descriptor.
func TestInconsistentSnapshotKeepsReporting(t *testing.T) {
	ft := NewFrameTable(5 * chunkFrames)
	bad := 2*chunkFrames + 9
	f := ft.Frame(bad)
	f.Type = FramePageTable
	f.UseCount = 1
	s := ft.Snapshot()
	for round := 0; round < 3; round++ {
		if got := ft.InconsistentFrames(); !slices.Equal(got, []int{bad}) {
			t.Fatalf("round %d: InconsistentFrames = %v, want [%d]", round, got, bad)
		}
		if n := ft.ScanAndRepair(); n != 1 {
			t.Fatalf("round %d: repaired %d, want 1", round, n)
		}
		ft.Restore(s)
	}
}

func TestDirtyWorkIsAllocationFree(t *testing.T) {
	ft := NewFrameTable(1 << 16)
	s := ft.Snapshot()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < ft.Len(); i += 997 {
			ft.Frame(i).PinAsPageTable()
		}
		ft.InconsistentFrames()
		ft.ScanAndRepair()
		ft.Restore(s)
	})
	if allocs != 0 {
		t.Fatalf("dirty, scan and restore allocate %.1f objects, want 0", allocs)
	}
}

// dirtyModel drives a FrameTable and a plain []PageFrame through the same
// operations. The model knows nothing of chunks or bases: a snapshot is a
// clone of the slice, a restore is a copy, a scan visits everything. Of
// storage it knows only which segments an operation has fetched a
// descriptor of for writing: exactly those must be stored.
type dirtyModel struct {
	t       *testing.T
	ft      *FrameTable
	heap    *Heap
	frames  []PageFrame
	written []bool // per storage segment

	live []*Object

	// held are pointers handed out by Frame and written later, as undo
	// records do. They are dropped at Snapshot and Restore, the documented
	// end of a pointer's life.
	held []heldFrame

	snaps     [2]*FrameTableSnapshot
	snapModel [2][]PageFrame

	// rng feeds the table's CorruptRandomDescriptor, twin the model's
	// replay of it; both start from the same seed.
	rng, twin *rand.Rand
}

type heldFrame struct {
	i int
	f *PageFrame
}

func newDirtyModel(t *testing.T, n, heapFrames int) *dirtyModel {
	ft := NewFrameTable(n)
	return &dirtyModel{
		t:       t,
		ft:      ft,
		heap:    NewHeap(ft, locking.NewRegistry(), 0, heapFrames),
		frames:  ft.flat(),
		written: make([]bool, len(ft.frames)),
		rng:     rand.New(rand.NewPCG(7, uint64(n))),
		twin:    rand.New(rand.NewPCG(7, uint64(n))),
	}
}

// wrote records that the table handed out frame i for writing.
func (m *dirtyModel) wrote(i int) { m.written[i>>segShift] = true }

// check compares table and model in full after one operation.
func (m *dirtyModel) check(op string) {
	m.t.Helper()
	if d := m.ft.firstDifference(m.frames); d >= 0 {
		m.t.Fatalf("after %s: frame %d = %+v, model has %+v", op, d, m.ft.At(d), m.frames[d])
	}
	if got, want := m.ft.InconsistentFrames(), naiveInconsistent(m.frames); !slices.Equal(got, want) {
		m.t.Fatalf("after %s: InconsistentFrames = %v, full walk finds %v", op, got, want)
	}
	for k, seg := range m.ft.frames {
		if stored := seg != nil; stored != m.written[k] {
			m.t.Fatalf("after %s: segment %d stored = %v, but written = %v", op, k, stored, m.written[k])
		}
		for _, s := range append(m.snaps[:], m.ft.base) {
			if s != nil && s.frames[k] != nil && seg == nil {
				m.t.Fatalf("after %s: segment %d is stored in a snapshot but not in the table", op, k)
			}
		}
	}
	if m.ft.base != nil {
		m.ft.eachDirtyChunk(func(lo, _ int) {
			if m.ft.frames[lo>>segShift] == nil {
				m.t.Fatalf("after %s: dirty chunk at frame %d lies in an unstored segment", op, lo)
			}
		})
	}
}

// both applies one descriptor mutation to the table's frame i, fetched
// through Frame, and to the model's.
func (m *dirtyModel) both(i int, mutate func(*PageFrame) error) {
	errT, errM := mutate(m.ft.Frame(i)), mutate(&m.frames[i])
	m.wrote(i)
	if errT != errM {
		m.t.Fatalf("frame %d: table returned %v, model %v", i, errT, errM)
	}
}

// frame decodes a frame index from the two-byte word w. A table longer
// than one storage segment spends the top bit on the segment: clear picks
// a frame of the first, set one past it.
func (m *dirtyModel) frame(w int) int {
	n := len(m.frames)
	switch {
	case n <= segFrames:
		return w % n
	case w&0x8000 == 0:
		return w
	default:
		return segFrames + (w&0x7fff)%(n-segFrames)
	}
}

// step decodes and applies one operation from in, returning its name and
// the unread rest.
func (m *dirtyModel) step(in []byte) (string, []byte) {
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	n := len(m.frames)
	op := next()
	frame := m.frame(next()<<8 | next())
	switch op % 14 {
	case 0:
		m.both(frame, func(f *PageFrame) error { f.PinAsPageTable(); return nil })
		return "pin", in
	case 1:
		m.both(frame, (*PageFrame).UnpinPageTable)
		return "unpin", in
	case 2:
		m.both(frame, func(f *PageFrame) error { f.IncUse(); return nil })
		return "inc_use", in
	case 3:
		m.both(frame, (*PageFrame).DecUse)
		return "dec_use", in
	case 4:
		m.held = append(m.held, heldFrame{frame, m.ft.Frame(frame)})
		m.wrote(frame)
		return "hold", in
	case 5:
		if len(m.held) == 0 {
			return "write_held(none)", in
		}
		h := m.held[next()%len(m.held)]
		bits := next()
		v := PageFrame{
			Type:      FrameType(1 + bits&3),
			Validated: bits&4 != 0,
			Owner:     int16(bits>>3&3) - 1,
			UseCount:  int32(bits >> 5 & 3),
		}
		*h.f, m.frames[h.i] = v, v
		return "write_held", in
	case 6:
		count := next() % (2*chunkFrames + 2)
		count = min(count, n-frame)
		dom, typ := next()%4-1, FrameType(1+next()%4)
		if err := m.ft.AssignRange(frame, count, dom, typ); err != nil {
			m.t.Fatalf("AssignRange(%d, %d): %v", frame, count, err)
		}
		for i := frame; i < frame+count; i++ {
			m.frames[i] = PageFrame{Type: typ, Owner: int16(dom)}
			m.wrote(i)
		}
		return "assign_range", in
	case 7:
		got := m.ft.CorruptRandomDescriptor(m.rng)
		i := m.twin.IntN(n)
		m.wrote(i)
		f := &m.frames[i]
		f.Type = FramePageTable
		if m.twin.IntN(2) == 0 {
			f.UseCount, f.Validated = int32(1+m.twin.IntN(3)), false
		} else {
			f.UseCount, f.Validated = 0, true
		}
		if got != i {
			m.t.Fatalf("CorruptRandomDescriptor hit frame %d, model %d", got, i)
		}
		return "corrupt", in
	case 8:
		want := 0
		for _, i := range naiveInconsistent(m.frames) {
			m.frames[i].Validated = m.frames[i].UseCount > 0
			want++
		}
		if got := m.ft.ScanAndRepair(); got != want {
			m.t.Fatalf("ScanAndRepair repaired %d, full walk %d", got, want)
		}
		return "scan_repair", in
	case 9:
		// The heap is one more writer: it sees the table only through
		// At/Frame, and the model replays what it reports having done.
		if o := m.heap.Alloc(1+next()%3, "fuzz"); o != nil {
			m.live = append(m.live, o)
			for _, fi := range o.Pages {
				m.frames[fi].Type = FrameHeap
				m.wrote(fi)
			}
		}
		return "heap_alloc", in
	case 10:
		if len(m.live) == 0 {
			return "heap_free(none)", in
		}
		k := next() % len(m.live)
		o := m.live[k]
		m.live = slices.Delete(m.live, k, k+1)
		m.heap.Free(o)
		for _, fi := range o.Pages {
			m.frames[fi].Type = FrameFree
			m.wrote(fi)
		}
		return "heap_free", in
	case 11:
		m.heap.Rebuild()
		owned := map[int]bool{}
		for _, o := range m.live {
			for _, fi := range o.Pages {
				owned[fi] = true
			}
		}
		for i := 0; i < m.heap.count; i++ {
			if m.frames[i].Type == FrameHeap && !owned[i] {
				m.frames[i].Type = FrameFree
				m.wrote(i)
			}
		}
		return "heap_rebuild", in
	case 12:
		k := next() % 2
		m.snaps[k], m.snapModel[k] = m.ft.Snapshot(), slices.Clone(m.frames)
		m.held = m.held[:0]
		return fmt.Sprintf("snapshot[%d]", k), in
	default:
		k := next() % 2
		if m.snaps[k] == nil {
			return "restore(none)", in
		}
		m.ft.Restore(m.snaps[k])
		copy(m.frames, m.snapModel[k])
		m.held = m.held[:0]
		return fmt.Sprintf("restore[%d]", k), in
	}
}

// Operation codes of the dirty-tracking fuzz input (see dirtyModel.step).
const (
	opPin, opUnpin, opInc, opDec, opHold, opWriteHeld, opAssign = 0, 1, 2, 3, 4, 5, 6
	opCorrupt, opScan, opAlloc, opFree, opRebuild, opSnap       = 7, 8, 9, 10, 11, 12
	opRestore                                                   = 13
)

// spanning sets the size bit that makes a fuzz table one storage segment
// plus up to 8 chunks, so a stored segment sits beside an unstored one.
const spanning = 0x8000

// dirtySeeds is FuzzFrameTableDirtyTracking's seed corpus.
var dirtySeeds = []struct {
	size uint16
	ops  []byte
}{
	// One dirtied chunk, restored from the base; the table size is not a
	// multiple of the chunk size and the write lands in the short tail.
	{3*chunkFrames + 5, []byte{
		opSnap, 0, 0, 0,
		opPin, 0, 3*chunkFrames + 4, opInc, 0, 3, opAssign, 0, 60, 10, 2, 2,
		opRestore, 0, 0, 0,
	}},
	// Held pointers written after other traffic, as undo records are.
	{100, []byte{
		opSnap, 0, 0, 0, opHold, 0, 70, opHold, 0, 3, opPin, 0, 9,
		opWriteHeld, 0, 0, 0, 0b0100_0111, opWriteHeld, 0, 0, 1, 0b0010_0011,
		opScan, 0, 0, opRestore, 0, 0, 0,
	}},
	// A snapshot captured with inconsistent descriptors, restored twice
	// with a repair in between.
	{2 * chunkFrames, []byte{
		opCorrupt, 0, 0, opCorrupt, 0, 0, opSnap, 0, 0, 1,
		opScan, 0, 0, opRestore, 0, 0, 1, opPin, 0, 1, opScan, 0, 0, opRestore, 0, 0, 1,
	}},
	// Two live snapshots restored alternately: only one can be the base.
	{4*chunkFrames + 1, []byte{
		opSnap, 0, 0, 0, opPin, 0, 5, opCorrupt, 0, 0, opSnap, 0, 0, 1, opInc, 1, 0,
		opRestore, 0, 0, 0, opDec, 0, 5, opRestore, 0, 0, 1, opRestore, 0, 0, 0,
	}},
	// The heap as a writer, and Rebuild reclaiming a leaked frame.
	{90, []byte{
		opAlloc, 0, 0, 2, opSnap, 0, 0, 0, opAlloc, 0, 0, 1, opAssign, 0, 10, 3, 0, 1,
		opRebuild, 0, 0, opFree, 0, 0, 0, opRestore, 0, 0, 0, opRebuild, 0, 0,
	}},
	{1, []byte{opSnap, 0, 0, 0, opPin, 0, 0, opRestore, 0, 0, 0}},
	// The second segment is first written after the base was captured
	// without it, then restored from that base (a stored segment over an
	// unstored one reads back pristine) and written again.
	{spanning | 5, []byte{
		opSnap, 0, 0, 0, opPin, 0x80, 3, opAssign, 0x80, 0, 4, 1, 2,
		opRestore, 0, 0, 0, opInc, 0x80, 1, opRestore, 0, 0, 0,
	}},
	// A full restore while neither side stores the second segment leaves
	// it unstored. Then snapshot 1 stores it and snapshot 0 does not; full
	// restores alternate between them, each resetting or refilling it in
	// place, with an inconsistent descriptor in the second segment.
	{spanning | 2*chunkFrames, []byte{
		opSnap, 0, 0, 0, opPin, 0, 9, opSnap, 0, 0, 1, opRestore, 0, 0, 0,
		opPin, 0x80, chunkFrames + 2, opHold, 0x80, 7,
		opWriteHeld, 0, 0, 0, 0b0010_0011, opSnap, 0, 0, 1,
		opRestore, 0, 0, 0, opInc, 0x80, 2, opRestore, 0, 0, 1, opScan, 0, 0,
		opRestore, 0, 0, 0, opRestore, 0, 0, 1, opDec, 0x80, chunkFrames + 2, opRestore, 0, 0, 0,
	}},
}

// runDirty replays ops on a fresh table and its model, checking after
// every step.
func runDirty(t *testing.T, size uint16, ops []byte) {
	n := 1 + int(size&^spanning)%(8*chunkFrames)
	if size&spanning != 0 {
		n += segFrames
	}
	m := newDirtyModel(t, n, min(n, 24))
	m.check("boot")
	for len(ops) > 0 {
		var op string
		op, ops = m.step(ops)
		m.check(op)
	}
}

// FuzzFrameTableDirtyTracking: after any sequence of writes through every
// marking site, scans, snapshots and restores from either of two live
// snapshots, the table equals a plain slice put through the same sequence,
// its dirty-chunk scan equals a full walk, and it stores exactly the
// segments that were written — checked after every step. Dropping the
// mark from Frame, or letting AssignRange or CorruptRandomDescriptor write
// around Frame, makes the seed corpus fail; so does dropping
// materialization from Frame, letting Restore store a segment nothing
// wrote, or skipping a stored segment in Snapshot or Restore.
func FuzzFrameTableDirtyTracking(f *testing.F) {
	for _, s := range dirtySeeds {
		f.Add(s.size, s.ops)
	}
	f.Fuzz(runDirty)
}

// benchFrames is the descriptor count of the paper's 8 GB latency testbed.
const benchFrames = 8 << 30 >> 12

var dirtyChunkCounts = []int{0, 100, 10000}

// dirtySpread fetches one descriptor in each of n chunks spread evenly
// over the table.
func dirtySpread(ft *FrameTable, n int) {
	if n == 0 {
		return
	}
	stride := ft.Len() / n
	for k := 0; k < n; k++ {
		ft.Frame(k*stride).UseCount++
	}
}

// BenchmarkFrameTableRestore times dirtying n chunks of a 2 M-descriptor
// table and restoring it: the cost follows n, not the table size.
func BenchmarkFrameTableRestore(b *testing.B) {
	for _, n := range dirtyChunkCounts {
		b.Run(fmt.Sprintf("dirty_chunks=%d", n), func(b *testing.B) {
			ft := NewFrameTable(benchFrames)
			s := ft.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dirtySpread(ft, n)
				ft.Restore(s)
			}
		})
	}
}

var scanSink int

// BenchmarkFrameScan times the two recovery-time scans over a 2 M-
// descriptor table with n dirty chunks.
func BenchmarkFrameScan(b *testing.B) {
	for _, n := range dirtyChunkCounts {
		b.Run(fmt.Sprintf("dirty_chunks=%d", n), func(b *testing.B) {
			ft := NewFrameTable(benchFrames)
			ft.Snapshot()
			dirtySpread(ft, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanSink += len(ft.InconsistentFrames()) + ft.ScanAndRepair()
			}
		})
	}
}
