package snap

import (
	"slices"
	"testing"
)

func TestSliceReusesStorageAndZeroesTail(t *testing.T) {
	a, b := new(int), new(int)
	dst := []*int{a, b, a}
	backing := dst[:cap(dst)]
	got := Slice(dst, []*int{b})
	if !slices.Equal(got, []*int{b}) || &got[0] != &backing[0] {
		t.Fatalf("Slice = %v, want [b] in dst's backing array", got)
	}
	if backing[1] != nil || backing[2] != nil {
		t.Fatal("Slice left dropped pointers in the vacated tail")
	}
	if allocs := testing.AllocsPerRun(10, func() { dst = Slice(dst, []*int{a, b, a}) }); allocs != 0 {
		t.Fatalf("Slice allocates %.1f times into a large enough array", allocs)
	}
}

type obj struct {
	id int
	objState
}

type objState struct{ n int }

func objSt(o *obj) *objState { return &o.objState }

func TestReviveRestoresStateInPlace(t *testing.T) {
	x, y, z := &obj{id: 1}, &obj{id: 2}, &obj{id: 3}
	x.n, y.n = 10, 20
	saved := Save([]*obj{y, x}, objSt)
	x.n, y.n = 99, 99
	live := []*obj{x, y, z}
	got := Revive(live, saved, objSt)
	if !slices.Equal(got, []*obj{y, x}) || x.n != 10 || y.n != 20 || live[:3][2] != nil {
		t.Fatalf("Revive = %v (x.n %d, y.n %d), want [y x] with saved state and a zeroed tail", got, x.n, y.n)
	}
}

func TestMapAndTruncate(t *testing.T) {
	m := Map(map[string]int{"a": 1, "b": 2}, map[string]int{"c": 3})
	if len(m) != 1 || m["c"] != 3 {
		t.Fatalf("Map = %v, want exactly src", m)
	}
	strs := []string{"", "x", "y"}
	ids := map[string]int{"": 0, "x": 1, "y": 2}
	strs = Truncate(strs, ids, 2)
	if !slices.Equal(strs, []string{"", "x"}) || len(ids) != 2 || strs[:3][2] != "" {
		t.Fatalf("Truncate = %v with index %v, want [\"\" x] and y gone", strs, ids)
	}
}
