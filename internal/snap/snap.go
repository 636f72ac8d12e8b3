// Package snap holds the copy helpers every component's Snapshot and
// Restore share.
//
// Each component keeps its mutable fields in one embedded state value, so
// a snapshot is a copy of that value: the slices and maps it holds are
// cloned on capture, and a restore assigns the value back while copying
// their contents into the live storage, in one statement:
//
//	x.state, x.list = saved.state, snap.Slice(x.list, saved.list)
//
// Objects that other structures reference by pointer (events, locks,
// timers, vCPUs, domains) are saved as Obj pairs, so a restore writes
// their state back in place and every reference stays valid. The restore
// helpers reuse the live container's storage and zero what it held past
// the restored length, so a steady-state restore allocates nothing and
// pins no dropped object.
package snap

import "maps"

// Slice returns src's elements stored in dst's backing array, which grows
// only when too short, and zeroes the elements dst held past them.
func Slice[T any](dst, src []T) []T {
	n := len(dst)
	dst = append(dst[:0], src...)
	clear(dst[len(dst):max(n, len(dst))])
	return dst
}

// Map makes dst hold exactly src's entries, reusing dst's buckets, and
// returns it.
func Map[K comparable, V any](dst, src map[K]V) map[K]V {
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// Obj pairs a live object with a copy of its state value.
type Obj[T, S any] struct {
	P *T
	S S
}

// Save captures the state of each object, read through st.
func Save[T, S any](objs []*T, st func(*T) *S) []Obj[T, S] {
	out := make([]Obj[T, S], len(objs))
	for i, p := range objs {
		out[i] = Obj[T, S]{p, *st(p)}
	}
	return out
}

// Revive writes every saved state back through st and returns the
// objects in saved order, stored in dst as Slice stores them.
func Revive[T, S any](dst []*T, saved []Obj[T, S], st func(*T) *S) []*T {
	n := len(dst)
	dst = dst[:0]
	for i := range saved {
		*st(saved[i].P) = saved[i].S
		dst = append(dst, saved[i].P)
	}
	clear(dst[len(dst):max(n, len(dst))])
	return dst
}

// Truncate cuts an append-only intern table back to its first n strings
// and deletes the later ones from its index, so the next run assigns the
// same IDs from the same point.
func Truncate[ID any](strs []string, ids map[string]ID, n int) []string {
	for _, s := range strs[n:] {
		delete(ids, s)
	}
	clear(strs[n:])
	return strs[:n]
}
