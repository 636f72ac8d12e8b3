package telemetry

import "math/bits"

// NumBuckets is the fixed bucket count of every histogram. Buckets are
// power-of-two ("HDR-style"): bucket 0 holds the value 0, bucket i (i ≥ 1)
// holds values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1].
// The last bucket additionally absorbs everything wider (the overflow
// bucket), so no observation is ever lost.
const NumBuckets = 32

// OverflowBucket is the index of the final, open-ended bucket.
const OverflowBucket = NumBuckets - 1

// Hist is a fixed-size power-of-two histogram. It is a plain value type —
// no pointers, no allocation — so arrays of histograms snapshot by
// assignment and merge by integer adds. All fields are exact integers:
// Merge is associative and commutative bit-for-bit, which is what lets
// campaign shards combine in any order and still produce identical
// summaries.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
}

// BucketIndex returns the bucket an observation of v lands in.
func BucketIndex(v uint64) int {
	b := bits.Len64(v)
	if b > OverflowBucket {
		return OverflowBucket
	}
	return b
}

// BucketUpperBound returns the largest value bucket i can hold (MaxUint64
// for the overflow bucket).
func BucketUpperBound(i int) uint64 {
	if i >= OverflowBucket {
		return ^uint64(0)
	}
	return (uint64(1) << uint(i)) - 1
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[BucketIndex(v)]++
}

// ObserveN records n observations of the same value v in O(1) — the batch
// form the traffic engine's cohort accounting depends on: a million users
// arriving in one slot cost one bucket add, not a million. Exactly
// equivalent to calling Observe(v) n times (all fields are integer adds
// plus a max), so batched and per-request recording stay bit-identical.
func (h *Hist) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.Count += n
	h.Sum += v * n
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[BucketIndex(v)] += n
}

// Merge folds other into h. Integer adds plus a max: associative,
// commutative, and bit-exact regardless of merge order.
func (h *Hist) Merge(other *Hist) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper bound of the bucket containing the ceil(q·Count)-th smallest
// observation, capped at the exact observed Max. Power-of-two buckets make
// this a ≤2× overestimate at worst; Max is exact, so Quantile(1) == Max.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= rank {
			ub := BucketUpperBound(i)
			if ub > h.Max {
				return h.Max
			}
			return ub
		}
	}
	return h.Max
}

// Mean returns the exact arithmetic mean of observations (0 if empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
