package mm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"nilihype/internal/locking"
)

// validateFreeListRef is the map-based ValidateFreeList this package
// shipped before the bitset walk, kept verbatim as the reference: the
// violation strings reach audit Reports and campaign digests, so kinds,
// order and text must match it exactly.
func validateFreeListRef(h *Heap) []string {
	var out []string
	seen := make(map[int]bool, len(h.free))
	for i := len(h.free) - 1; i >= 0; i-- {
		fi := h.free[i]
		if fi < 0 || fi >= h.ft.Len() {
			out = append(out, fmt.Sprintf("entry %d out of range (%d)", i, fi))
			continue
		}
		if seen[fi] {
			out = append(out, fmt.Sprintf("frame %d on free list twice", fi))
			continue
		}
		seen[fi] = true
		if t := h.ft.At(fi).Type; t != FrameFree {
			out = append(out, fmt.Sprintf("frame %d on free list but not free (%v)", fi, t))
		}
	}
	for i := h.start; i < h.start+h.count; i++ {
		if h.ft.At(i).Type == FrameFree && !seen[i] {
			out = append(out, fmt.Sprintf("free frame %d leaked off the list", i))
		}
	}
	return out
}

// damagedHeap builds a heap whose range neither starts at 0 nor spans a
// multiple of 64 frames, inside a larger frame table, with a few live
// objects.
func damagedHeap(t *testing.T) *Heap {
	t.Helper()
	h, _, _ := newTestHeap(t, 400, 37, 203)
	for i := 0; i < 5; i++ {
		if h.Alloc(1+i, "obj") == nil {
			t.Fatal("Alloc failed")
		}
	}
	return h
}

// checkAgainstRef compares the walk with the reference string for string,
// twice: the second call runs on the scratch the first one left behind.
func checkAgainstRef(t *testing.T, h *Heap, wantKinds ...string) {
	t.Helper()
	want := validateFreeListRef(h)
	for call := 1; call <= 2; call++ {
		if got := h.ValidateFreeList(); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: ValidateFreeList =\n  %q\nreference =\n  %q", call, got, want)
		}
	}
	for _, kind := range wantKinds {
		found := false
		for _, v := range want {
			if strings.Contains(v, kind) {
				found = true
			}
		}
		if !found {
			t.Fatalf("scenario produced no %q violation: %q", kind, want)
		}
	}
}

func TestValidateFreeListMatchesMapReference(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		checkAgainstRef(t, damagedHeap(t))
	})
	t.Run("duplicates", func(t *testing.T) {
		h := damagedHeap(t)
		n := len(h.free)
		h.free[n-3] = h.free[n-1]   // near the hot end
		h.free[0] = h.free[n/2]     // at the cold end
		h.free[n/2+1] = h.free[n-1] // a third copy of one frame
		checkAgainstRef(t, h, "on free list twice", "leaked off the list")
	})
	t.Run("out of range", func(t *testing.T) {
		h := damagedHeap(t)
		h.free[len(h.free)-2] = -1
		h.free[4] = h.ft.Len()
		h.free[5] = h.ft.Len() + 1000
		checkAgainstRef(t, h, "out of range", "leaked off the list")
	})
	t.Run("outside the heap range", func(t *testing.T) {
		// In the frame table but not the heap's: a free frame below the
		// range, the same one again, a free one above, and a non-free one.
		h := damagedHeap(t)
		h.ft.Frame(300).Type = FrameGuest
		h.free[len(h.free)-1] = 3
		h.free[len(h.free)-4] = 3
		h.free[7] = 399
		h.free[8] = 300
		h.free[9] = h.start - 1
		h.free[10] = h.start + h.count
		checkAgainstRef(t, h, "frame 3 on free list twice", "frame 300 on free list but not free", "leaked off the list")
	})
	t.Run("not free", func(t *testing.T) {
		h := damagedHeap(t)
		pages := h.AllocatedPages()
		h.free[len(h.free)-1] = pages[0]
		h.free[3] = pages[len(pages)-1]
		checkAgainstRef(t, h, "on free list but not free (heap)", "leaked off the list")
	})
	t.Run("leaked", func(t *testing.T) {
		// Entries dropped from both ends and the middle, including the
		// last frame of the range (the partial bitset word).
		h := damagedHeap(t)
		last := h.start + h.count - 1
		kept := h.free[:0]
		for i, fi := range h.free {
			if i == 0 || i == len(h.free)-1 || i%17 == 0 || fi == last {
				continue
			}
			kept = append(kept, fi)
		}
		h.free = kept
		checkAgainstRef(t, h, fmt.Sprintf("free frame %d leaked off the list", last))
	})
	t.Run("random damage", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(18, 18))
		for round := 0; round < 200; round++ {
			h := damagedHeap(t)
			for k := 0; k < 1+rng.IntN(6); k++ {
				i := rng.IntN(len(h.free))
				switch rng.IntN(5) {
				case 0:
					h.free[i] = h.free[rng.IntN(len(h.free))]
				case 1:
					h.free[i] = rng.IntN(h.ft.Len()+64) - 32
				case 2:
					h.CorruptFreeList(rng)
				case 3:
					h.free = append(h.free[:i], h.free[i+1:]...)
				default:
					h.ft.Frame(rng.IntN(h.ft.Len())).Type = FrameType(1 + rng.IntN(3))
				}
			}
			checkAgainstRef(t, h)
		}
	})
}

func TestValidateFreeListCleanWalkDoesNotAllocate(t *testing.T) {
	h := damagedHeap(t)
	if probs := h.ValidateFreeList(); len(probs) != 0 {
		t.Fatalf("clean heap reported %q", probs)
	}
	if allocs := testing.AllocsPerRun(10, func() { h.ValidateFreeList() }); allocs != 0 {
		t.Fatalf("clean walk allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkValidateFreeList measures the audit's full free-list walk at
// the campaign's heap size (32,768 frames) on an intact list.
func BenchmarkValidateFreeList(b *testing.B) {
	const heapFrames = 32768
	ft := NewFrameTable(heapFrames + 4096)
	h := NewHeap(ft, locking.NewRegistry(), 0, heapFrames)
	for i := 0; i < 64; i++ {
		h.Alloc(4, "obj")
	}
	if probs := h.ValidateFreeList(); len(probs) != 0 {
		b.Fatalf("intact heap reported %q", probs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ValidateFreeList()
	}
}
