package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestTel(capacity int) (*Telemetry, *time.Duration) {
	now := new(time.Duration)
	return New(capacity, func() time.Duration { return *now }), now
}

// --- histogram bucketing -----------------------------------------------------

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 29, 30}, {1<<30 - 1, 30},
		{1 << 30, 31},                    // first overflow-bucket value
		{1 << 40, 31},                    // deep overflow
		{math.MaxUint64, OverflowBucket}, // widest possible value
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every boundary pair must straddle: upper bound of bucket i is one
	// less than the smallest value of bucket i+1.
	for i := 1; i < OverflowBucket-1; i++ {
		ub := BucketUpperBound(i)
		if BucketIndex(ub) != i {
			t.Errorf("upper bound %d of bucket %d lands in bucket %d", ub, i, BucketIndex(ub))
		}
		if BucketIndex(ub+1) != i+1 {
			t.Errorf("value %d should land in bucket %d, got %d", ub+1, i+1, BucketIndex(ub+1))
		}
	}
}

func TestHistObserveAndOverflow(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(1 << 35) // overflow bucket
	h.Observe(math.MaxUint64)
	if h.Count != 4 {
		t.Fatalf("Count = %d, want 4", h.Count)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[OverflowBucket] != 2 {
		t.Fatalf("bucket distribution wrong: %v", h.Buckets)
	}
	if h.Max != math.MaxUint64 {
		t.Fatalf("Max = %d", h.Max)
	}
	var total uint64
	for _, b := range h.Buckets {
		total += b
	}
	if total != h.Count {
		t.Fatalf("buckets sum to %d, Count is %d — an observation was lost", total, h.Count)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %d, want exact max 100", got)
	}
	// p50 of 1..100 is rank 50 → value 50, bucket upper bound 63.
	if got := h.Quantile(0.5); got != 63 {
		t.Errorf("p50 = %d, want bucket upper bound 63", got)
	}
	var empty Hist
	if empty.Quantile(0.99) != 0 {
		t.Errorf("quantile of empty hist should be 0")
	}
	var one Hist
	one.Observe(7)
	if got := one.Quantile(0.5); got != 7 {
		t.Errorf("single-observation p50 = %d, want 7 (capped at Max)", got)
	}
}

// TestHistMergeAssociativity is the satellite requirement: merging shards
// in any order (and any grouping) must produce bit-identical histograms.
func TestHistMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	shards := make([]Hist, 8)
	for i := range shards {
		for j := 0; j < 1000; j++ {
			shards[i].Observe(rng.Uint64() >> uint(rng.IntN(64)))
		}
	}

	mergeOrder := func(order []int) Hist {
		var out Hist
		for _, i := range order {
			out.Merge(&shards[i])
		}
		return out
	}
	forward := mergeOrder([]int{0, 1, 2, 3, 4, 5, 6, 7})
	backward := mergeOrder([]int{7, 6, 5, 4, 3, 2, 1, 0})
	shuffled := mergeOrder([]int{3, 0, 7, 1, 5, 2, 6, 4})

	// Grouped: ((0+1)+(2+3)) + ((4+5)+(6+7)) — tests associativity, not
	// just commutativity.
	var left, right Hist
	for i := 0; i < 4; i++ {
		left.Merge(&shards[i])
	}
	for i := 4; i < 8; i++ {
		right.Merge(&shards[i])
	}
	grouped := left
	grouped.Merge(&right)

	for name, got := range map[string]Hist{"backward": backward, "shuffled": shuffled, "grouped": grouped} {
		if got != forward {
			t.Errorf("%s merge order differs from forward: %+v vs %+v", name, got, forward)
		}
	}
}

// --- flight recorder ---------------------------------------------------------

func TestHistQuantileEmpty(t *testing.T) {
	var h Hist
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", h.Mean())
	}
}

func TestHistMergeEmptyOperand(t *testing.T) {
	var h Hist
	for _, v := range []uint64{3, 17, 1024} {
		h.Observe(v)
	}
	want := h

	var empty Hist
	h.Merge(&empty)
	if !reflect.DeepEqual(h, want) {
		t.Errorf("merging an empty operand changed the histogram:\n%+v\nvs\n%+v", h, want)
	}

	// Merging INTO an empty histogram must reproduce the operand exactly.
	var into Hist
	into.Merge(&want)
	if !reflect.DeepEqual(into, want) {
		t.Errorf("merge into empty diverged:\n%+v\nvs\n%+v", into, want)
	}
}

func TestHistSingleBucketDistribution(t *testing.T) {
	// All mass in one bucket: every quantile resolves to that bucket,
	// capped at the exact Max.
	var h Hist
	h.ObserveN(100, 7) // bucket for 100 spans [64, 127]
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("single-bucket Quantile(%v) = %d, want 100 (capped at Max)", q, got)
		}
	}
	if h.Mean() != 100 {
		t.Errorf("single-bucket Mean = %v, want 100", h.Mean())
	}

	// The zero bucket is its own single-bucket case: value 0 lands in
	// bucket 0 and every quantile is 0.
	var z Hist
	z.ObserveN(0, 5)
	if z.Count != 5 || z.Buckets[0] != 5 {
		t.Fatalf("zero observations landed wrong: %+v", z)
	}
	if got := z.Quantile(0.99); got != 0 {
		t.Errorf("all-zero Quantile(0.99) = %d, want 0", got)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	tel, now := newTestTel(16)
	for i := 0; i < 40; i++ {
		*now = time.Duration(i) * time.Millisecond
		tel.Record(0, EvDispatch, uint64(i))
	}
	if tel.Flight.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tel.Flight.Len())
	}
	if tel.Flight.next != 40 {
		t.Fatalf("recorded %d events, want 40", tel.Flight.next)
	}
	events := tel.Flight.Events()
	for i, e := range events {
		want := uint64(24 + i) // events 24..39 retained, oldest first
		if e.Arg != want {
			t.Fatalf("event %d has arg %d, want %d", i, e.Arg, want)
		}
	}
	tail := tel.Flight.Tail(nil, 3)
	if len(tail) != 3 || tail[0].Arg != 37 || tail[2].Arg != 39 {
		t.Fatalf("Tail(3) = %+v", tail)
	}
}

func TestRecordIsAllocationFree(t *testing.T) {
	tel, _ := newTestTel(64)
	tel.Intern("warm") // warm the intern path's map
	allocs := testing.AllocsPerRun(1000, func() {
		tel.Inc(CtrDispatches)
		tel.Record(3, EvDispatch, 5)
		tel.Observe(HistProgramSteps, 9)
		tel.Intern("warm")
	})
	if allocs != 0 {
		t.Fatalf("hot-path telemetry allocates %.1f per op, want 0", allocs)
	}
}

func TestNilTelemetryIsSafe(t *testing.T) {
	var tel *Telemetry
	tel.Inc(CtrPanics)
	tel.Add(CtrPanics, 3)
	tel.SetGauge(GaugeHeldLocks, 1)
	tel.Observe(HistProgramSteps, 1)
	tel.Record(0, EvPanic, 0)
	tel.RecordAt(time.Second, 0, EvPanic, 0)
	if tel.Intern("x") != 0 || tel.Str(0) != "" {
		t.Fatal("nil telemetry interning should be inert")
	}
	if tel.FlightTail(5) != nil {
		t.Fatal("nil telemetry tail should be nil")
	}
}

// --- snapshot / restore ------------------------------------------------------

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tel, now := newTestTel(16)
	bootID := tel.Intern("boot-reason")
	tel.Inc(CtrDispatches)
	tel.Observe(HistProgramSteps, 12)
	*now = time.Millisecond
	tel.Record(0, EvDispatch, 1)
	snap := tel.Snapshot()

	// Run-phase mutations: counters, new interned strings, ring churn.
	for i := 0; i < 50; i++ {
		tel.Inc(CtrPanics)
		*now += time.Millisecond
		tel.Record(1, EvPanic, tel.Intern("late-reason"))
	}
	tel.SetGauge(GaugeHeldLocks, 9)
	tel.Observe(HistAttemptLatencyUs, 22000)

	tel.Restore(snap)

	if tel.Counters[CtrPanics] != 0 || tel.Counters[CtrDispatches] != 1 {
		t.Fatalf("counters not restored: %v", tel.Counters[:4])
	}
	if tel.Gauges[GaugeHeldLocks] != 0 {
		t.Fatal("gauge not restored")
	}
	if tel.Hists[HistAttemptLatencyUs].Count != 0 {
		t.Fatal("histogram not restored")
	}
	if tel.Flight.next != 1 || tel.Flight.Len() != 1 {
		t.Fatalf("ring not restored: total=%d len=%d", tel.Flight.next, tel.Flight.Len())
	}
	if tel.Str(bootID) != "boot-reason" {
		t.Fatal("boot-time intern lost")
	}
	// The run-phase intern must be forgotten so the next run assigns the
	// same ID a cold boot would.
	if id := tel.Intern("late-reason"); id != bootID+1 {
		t.Fatalf("post-restore intern ID = %d, want %d (table not truncated)", id, bootID+1)
	}
}

func TestRestoreIsAllocationFree(t *testing.T) {
	tel, now := newTestTel(32)
	tel.Intern("boot")
	snap := tel.Snapshot()
	// Prime steady state: one run's worth of mutation + restore so the
	// intern slice regains capacity.
	tel.Intern("run-string")
	tel.Restore(snap)
	allocs := testing.AllocsPerRun(100, func() {
		tel.Inc(CtrDispatches)
		*now += time.Millisecond
		tel.Record(0, EvDispatch, 1)
		tel.Intern("run-string")
		tel.Restore(snap)
	})
	if allocs != 0 {
		t.Fatalf("Restore allocates %.1f per run, want 0", allocs)
	}
}

func TestForkedRunsAreBitIdentical(t *testing.T) {
	run := func(tel *Telemetry, now *time.Duration) {
		for i := 0; i < 100; i++ {
			*now += time.Millisecond
			tel.Inc(CtrDispatches)
			tel.Record(i%4, EvDispatch, uint64(i%13))
			tel.Observe(HistProgramSteps, uint64(i%7))
		}
		tel.Record(0, EvPanic, tel.Intern("panic: injected"))
	}
	tel, now := newTestTel(64)
	tel.Intern("boot")
	base := *now
	snap := tel.Snapshot()

	run(tel, now)
	first := tel.Snapshot()

	tel.Restore(snap)
	*now = base
	run(tel, now)
	second := tel.Snapshot()

	if !reflect.DeepEqual(first, second) {
		t.Fatal("two forked runs of the same workload diverged")
	}
}

// --- interning ---------------------------------------------------------------

func TestInternStability(t *testing.T) {
	tel, _ := newTestTel(16)
	a := tel.Intern("alpha")
	b := tel.Intern("beta")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad IDs: %d %d (0 is reserved)", a, b)
	}
	if tel.Intern("alpha") != a {
		t.Fatal("re-interning must return the same ID")
	}
	if tel.Str(a) != "alpha" || tel.Str(999) != "" {
		t.Fatal("Str lookup broken")
	}
}

// --- export ------------------------------------------------------------------

func TestChromeTraceIsValidJSON(t *testing.T) {
	tel, now := newTestTel(64)
	*now = 5 * time.Millisecond
	tel.Record(1, EvInject, tel.Intern("reg-flip rax"))
	*now = 6 * time.Millisecond
	tel.Record(1, EvDetect, tel.Intern("panic: bad pointer"))
	tel.RecordAt(6*time.Millisecond, 1, EvAttemptBegin, tel.Intern("microreset"))
	tel.RecordAt(6*time.Millisecond, 1, EvPhase, PhaseArg(tel.Intern("pf-scan"), 2*time.Millisecond))
	tel.RecordAt(8*time.Millisecond, 1, EvPhase, PhaseArg(tel.Intern("unlock"), time.Millisecond))
	*now = 9 * time.Millisecond
	tel.Record(1, EvRecovered, 1)

	var buf bytes.Buffer
	if err := tel.WriteChromeTraceLanes(&buf, 4); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var sawInject, sawDetect, sawPhaseSpan bool
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		switch {
		case strings.HasPrefix(name, "inject:"):
			sawInject = true
		case strings.HasPrefix(name, "detect:"):
			sawDetect = true
		case e["ph"] == "X" && name == "pf-scan":
			sawPhaseSpan = true
			if e["dur"].(float64) != 2000 {
				t.Errorf("pf-scan span dur = %v µs, want 2000", e["dur"])
			}
		}
	}
	if !sawInject || !sawDetect || !sawPhaseSpan {
		t.Fatalf("trace missing markers: inject=%v detect=%v span=%v", sawInject, sawDetect, sawPhaseSpan)
	}
}

func TestTextTimelineAndMetrics(t *testing.T) {
	tel, now := newTestTel(16)
	*now = time.Millisecond
	tel.Record(2, EvSpin, tel.Intern("page_alloc_lock"))
	tel.Inc(CtrSpins)
	tel.Observe(HistProgramSteps, 5)
	tel.SetGauge(GaugeHeldLocks, 2)

	var tl bytes.Buffer
	if err := tel.WriteTextTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "page_alloc_lock") || !strings.Contains(tl.String(), "spin") {
		t.Fatalf("timeline missing spin event: %q", tl.String())
	}

	var m bytes.Buffer
	if err := tel.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hv.spins 1", "lock.held 2", "hv.program_steps count=1"} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, m.String())
		}
	}
}

func TestPhaseArgRoundTrip(t *testing.T) {
	id := uint64(77)
	for _, d := range []time.Duration{0, time.Microsecond, 22 * time.Millisecond, 713 * time.Millisecond, time.Hour} {
		gotID, gotD := UnpackPhaseArg(PhaseArg(id, d))
		if gotID != id || gotD != d.Truncate(time.Microsecond) {
			t.Errorf("PhaseArg(%d, %v) round-trips to (%d, %v)", id, d, gotID, gotD)
		}
	}
}

func TestCounterAndGaugeNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < Counter(NumCounters); c++ {
		n := c.Name()
		if n == "" || seen[n] {
			t.Errorf("counter %d has empty or duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if CtrOp(3) == CtrOp(4) {
		t.Fatal("op counters must be distinct slots")
	}
}
