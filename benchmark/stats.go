package main

import (
	"math"
	"slices"
	"time"
)

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// percentile returns the q-quantile (0..1) of the ascending slice asc by
// nearest rank. It is 0 for an empty slice.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// quantileOf is percentile on an unsorted slice, which it leaves as it is.
func quantileOf(vs []float64, q float64) float64 { return percentile(sorted(vs), q) }

// undisturbedQuantile is the low quantile that stands for a run's host
// time without neighbour interference. On the shared 2-core reference box
// a busy sibling hardware thread slows runs by about 1.5x in bursts of
// 50-500 ms whose duty cycle drifts between 0 and 75 % over minutes, so
// per-run times are bimodal and their median flips between the modes. The
// noise only ever adds time; a low quantile stays in the fast mode.
const undisturbedQuantile = 0.10

// undisturbedRate is runs per second of undisturbed host time. Runs are
// grouped by kind — runs of one kind do the same amount of work — and
// every run is charged its group's undisturbed quantile, so a workload
// that mixes cheap and costly runs is not judged by its cheap ones alone.
func undisturbedRate(gapsMs []float64, kinds []int) float64 {
	byKind := make(map[int][]float64)
	for i, g := range gapsMs {
		byKind[kinds[i]] = append(byKind[kinds[i]], g)
	}
	var totalMs float64
	for _, gs := range byKind {
		totalMs += float64(len(gs)) * quantileOf(gs, undisturbedQuantile)
	}
	if totalMs == 0 {
		return 0
	}
	return float64(len(gapsMs)) / (totalMs / 1000)
}

// median returns the middle value of vs (mean of the two middle values for
// an even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median — the spread the benchmark contract
// checks, with the same (exclusive) quartile method as Python's
// statistics.quantiles(vs, n=4). Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(vs)
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// chunks is the number of equal consecutive pieces the run timeline is
// cut into for the throughput median.
const chunks = 5

// chunkMedianRate is the wall-clock throughput a user waited for: the
// completion timeline (one stamp per run, start first) is cut into
// `chunks` equal consecutive pieces by run count and the median of the
// pieces' runs-per-second returned, so one long stall does not set the
// number. With fewer runs than chunks it is the plain rate.
func chunkMedianRate(start time.Time, stamps []time.Time) float64 {
	n := len(stamps)
	if n == 0 {
		return 0
	}
	if n < chunks {
		return float64(n) / stamps[n-1].Sub(start).Seconds()
	}
	rates := make([]float64, 0, chunks)
	prev, done := start, 0
	for c := 1; c <= chunks; c++ {
		end := n * c / chunks
		d := stamps[end-1].Sub(prev).Seconds()
		rates = append(rates, float64(end-done)/d)
		prev, done = stamps[end-1], end
	}
	return median(rates)
}

// interArrivalsMs returns each run's host time in ms: the gap between
// consecutive completions at Parallelism 1.
func interArrivalsMs(start time.Time, stamps []time.Time) []float64 {
	out := make([]float64, len(stamps))
	prev := start
	for i, t := range stamps {
		out[i] = float64(t.Sub(prev).Nanoseconds()) / 1e6
		prev = t
	}
	return out
}
