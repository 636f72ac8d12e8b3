package recdomain

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func unit(dom Domain, name string, cost time.Duration, fn func()) Unit {
	u := Unit{Dom: dom, Name: name, Cost: cost}
	if fn != nil {
		u.Do = func(int) { fn() }
	}
	return u
}

func TestScheduleSerialLevelKeepsUnitOrder(t *testing.T) {
	p := Plan{Levels: []Level{{Name: "g", Serial: true, Units: []Unit{
		unit(Domain{Kind: Global}, "a", 3*time.Millisecond, nil),
		unit(Domain{Kind: Global}, "b", 1*time.Millisecond, nil),
		unit(Domain{Kind: Global}, "c", 2*time.Millisecond, nil),
	}}}}
	tm := p.Execute(8, 4)
	if tm.Serial != 6*time.Millisecond || tm.Parallel != 6*time.Millisecond {
		t.Fatalf("serial level: Serial=%v Parallel=%v, want both 6ms", tm.Serial, tm.Parallel)
	}
	wantStarts := []time.Duration{0, 3 * time.Millisecond, 4 * time.Millisecond}
	for i, sp := range tm.Spans {
		if sp.Start != wantStarts[i] {
			t.Fatalf("span %d starts at %v, want %v", i, sp.Start, wantStarts[i])
		}
	}
}

func TestScheduleMakespanLPT(t *testing.T) {
	// Costs 5,4,3,3,3 on 2 lanes: LPT packs 5+3 and 4+3+3 → makespan 10.
	var units []Unit
	for i, c := range []int{5, 4, 3, 3, 3} {
		units = append(units, unit(Domain{Kind: PerCPU, ID: i}, "u", time.Duration(c)*time.Millisecond, nil))
	}
	tm := (&Plan{Levels: []Level{{Units: units}}}).Execute(2, 1)
	if tm.Parallel != 10*time.Millisecond {
		t.Fatalf("makespan = %v, want 10ms", tm.Parallel)
	}
	if tm.Serial != 18*time.Millisecond {
		t.Fatalf("serial = %v, want 18ms", tm.Serial)
	}
	if tm.Units != 5 || tm.Domains != 5 {
		t.Fatalf("units/domains = %d/%d, want 5/5", tm.Units, tm.Domains)
	}
}

func TestLevelsAreBarriers(t *testing.T) {
	// Level 2's units observe every level-1 effect regardless of worker
	// count: the executor joins each level before starting the next.
	for _, workers := range []int{1, 4} {
		var first atomic.Int64
		var sawAtSecond []int64
		lv1 := Level{Name: "first"}
		for i := 0; i < 16; i++ {
			lv1.Units = append(lv1.Units, unit(Domain{Kind: PerCPU, ID: i}, "inc", time.Microsecond,
				func() { first.Add(1) }))
		}
		lv2 := Level{Name: "second", Serial: true, Units: []Unit{
			unit(Domain{Kind: Global}, "read", time.Microsecond,
				func() { sawAtSecond = append(sawAtSecond, first.Load()) }),
		}}
		(&Plan{Levels: []Level{lv1, lv2}}).Execute(8, workers)
		if len(sawAtSecond) != 1 || sawAtSecond[0] != 16 {
			t.Fatalf("workers=%d: level 2 saw %v level-1 effects, want [16]", workers, sawAtSecond)
		}
	}
}

func TestTimingIndependentOfWorkers(t *testing.T) {
	build := func() *Plan {
		var lv Level
		for i := 0; i < 11; i++ {
			lv.Units = append(lv.Units, unit(Domain{Kind: PerCPU, ID: i}, "u",
				time.Duration(i+1)*100*time.Microsecond, func() {}))
		}
		return &Plan{Levels: []Level{
			{Name: "global", Serial: true, Units: []Unit{unit(Domain{Kind: Global}, "g", time.Millisecond, nil)}},
			lv,
		}}
	}
	a := build().Execute(4, 1)
	b := build().Execute(4, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("timing depends on worker count:\n 1 worker: %+v\n 8 workers: %+v", a, b)
	}
}

func TestExecuteRunsEveryUnitExactlyOnce(t *testing.T) {
	counts := make([]atomic.Int64, 32)
	count := func(i int) { counts[i].Add(1) }
	var lv Level
	for i := 0; i < 32; i++ {
		lv.Units = append(lv.Units, Unit{Dom: Domain{Kind: PerGuest, ID: i}, Name: "u",
			Cost: time.Microsecond, Do: count, Arg: i})
	}
	(&Plan{Levels: []Level{lv}}).Execute(8, 6)
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("unit %d ran %d times", i, n)
		}
	}
}

func TestSingleLaneParallelEqualsSerialSum(t *testing.T) {
	units := []Unit{
		unit(Domain{Kind: PerCPU, ID: 0}, "a", 2*time.Millisecond, nil),
		unit(Domain{Kind: PerCPU, ID: 1}, "b", 3*time.Millisecond, nil),
	}
	tm := (&Plan{Levels: []Level{{Units: units}}}).Execute(1, 1)
	if tm.Parallel != tm.Serial {
		t.Fatalf("1 simulated CPU must serialize: Parallel=%v Serial=%v", tm.Parallel, tm.Serial)
	}
}

func TestTimingMergeCountsDistinctDomains(t *testing.T) {
	a := (&Plan{Levels: []Level{{Units: []Unit{
		unit(Domain{Kind: PerCPU, ID: 0}, "a", time.Millisecond, nil),
		unit(Domain{Kind: Global}, "g", time.Millisecond, nil),
	}}}}).Execute(2, 1)
	b := (&Plan{Levels: []Level{{Units: []Unit{
		unit(Domain{Kind: PerCPU, ID: 0}, "b", time.Millisecond, nil),
		unit(Domain{Kind: PerGuest, ID: 1}, "d1", time.Millisecond, nil),
	}}}}).Execute(2, 1)
	a.Merge(b)
	if a.Domains != 3 {
		t.Fatalf("merged domains = %d, want 3 (cpu0 shared)", a.Domains)
	}
	if a.Units != 4 || len(a.Spans) != 4 {
		t.Fatalf("merged units/spans = %d/%d, want 4/4", a.Units, len(a.Spans))
	}
}

// TestKeptPlanAllocatesOnlySpans: a plan kept across executions schedules
// from its own scratch and counts domains without a set, so executing it
// allocates the returned spans and nothing else, and merging timings into
// storage with room allocates nothing.
func TestKeptPlanAllocatesOnlySpans(t *testing.T) {
	var lv Level
	for i := 0; i < 12; i++ {
		lv.Units = append(lv.Units, unit(Domain{Kind: PerCPU, ID: i % 5}, "u",
			time.Duration(i%4+1)*time.Microsecond, nil))
	}
	p := Plan{Levels: []Level{
		{Name: "global", Serial: true, Units: []Unit{unit(Domain{Kind: Global}, "g", time.Millisecond, nil)}},
		lv,
	}}
	tm := p.Execute(4, 1)
	if n := testing.AllocsPerRun(20, func() { tm = p.Execute(4, 1) }); n != 1 {
		t.Fatalf("executing a kept plan allocates %.0f objects, want 1 (the spans)", n)
	}
	acc := Timing{Spans: make([]Span, 0, 2*len(tm.Spans))}
	if n := testing.AllocsPerRun(20, func() {
		acc = Timing{Spans: acc.Spans[:0]}
		acc.Merge(tm)
		acc.Merge(tm)
	}); n != 0 {
		t.Fatalf("Merge allocates %.0f objects into storage with room, want 0", n)
	}
	if acc.Domains != 6 || acc.Units != 26 {
		t.Fatalf("merged domains/units = %d/%d, want 6/26", acc.Domains, acc.Units)
	}
}
