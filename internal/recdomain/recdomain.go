// Package recdomain partitions post-detection repair and audit work into
// recovery domains — per-CPU state (timer heaps, IRQ nesting, local
// APICs), per-guest-domain state (event-channel and grant linkage), and
// the global domain (heap, static locks, scheduler, IO-APIC) — and
// schedules the resulting units over simulated CPUs.
//
// A Plan is an ordered list of Levels; the level order is the dependency
// graph: every unit of level k completes before any unit of level k+1
// starts (global repairs such as the domain-list relink must land before
// the per-domain linkage fix-ups that traverse it). Units within a
// non-serial level own disjoint state by construction and may execute
// concurrently; serial levels express cross-domain writes that must not.
//
// Units are data: a body (a method value its owner binds once) applied to
// an integer argument, so a plan kept across executions is rewound and
// refilled without allocating.
//
// The executor keeps the simulation deterministic by separating the two
// notions of time: unit bodies run on real goroutines (bounded by
// workers), but the charged latency comes from a deterministic schedule —
// longest-processing-time-first over simCPUs lanes, ties broken by unit
// order — computed from the modeled costs alone. Running a plan with 1
// worker or 16 therefore yields bit-identical state, spans, and latency;
// only host wall-clock differs.
package recdomain

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a recovery domain by the state it owns.
type Kind int

// Kinds.
const (
	// Global: state shared by the whole hypervisor (heap, static locks,
	// scheduler metadata, IO-APIC, cross-guest linkage).
	Global Kind = iota + 1
	// PerCPU: one CPU's private state (timer heap, local_irq_count,
	// local APIC).
	PerCPU
	// PerGuest: one guest domain's state (event-channel table, grant
	// table, pending hypercalls).
	PerGuest
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Global:
		return "global"
	case PerCPU:
		return "per-cpu"
	case PerGuest:
		return "per-guest"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Domain identifies one recovery domain. ID is the CPU number (PerCPU) or
// the guest domain ID (PerGuest); Global domains ignore it.
type Domain struct {
	Kind Kind
	ID   int
}

// String returns a short label: "global", "cpu3", "d2".
func (d Domain) String() string {
	switch d.Kind {
	case PerCPU:
		return fmt.Sprintf("cpu%d", d.ID)
	case PerGuest:
		return fmt.Sprintf("d%d", d.ID)
	default:
		return "global"
	}
}

// Unit is one schedulable piece of audit or repair work, bound to the
// single recovery domain whose state it mutates.
type Unit struct {
	Dom  Domain
	Name string
	// Cost is the unit's modeled duration on one simulated CPU.
	Cost time.Duration
	// Do performs the state mutation, applied to Arg (a CPU, a domain
	// index, ...); nil for latency-model-only units. Owners bind bodies
	// once as method values, so building a unit allocates nothing.
	// Units sharing a non-serial level must touch disjoint state — and
	// must not touch shared infrastructure (the virtual clock, telemetry,
	// RNG streams): those belong in serial levels or to the caller.
	Do  func(arg int)
	Arg int
}

func (u *Unit) run() {
	if u.Do != nil {
		u.Do(u.Arg)
	}
}

// Level is one rung of the dependency graph. Units within a level may run
// concurrently unless Serial is set; levels always run in order.
type Level struct {
	Name   string
	Serial bool
	Units  []Unit
}

// Plan is an ordered sequence of levels. The scheduler's scratch lives in
// the plan, so a plan its owner keeps and refills executes without
// allocating anything but the returned spans.
type Plan struct {
	Levels []Level

	idx   []int
	loads []time.Duration
}

// Span is one unit's interval in the simulated parallel timeline, offset
// from the plan's start. Spans are reported in plan (unit) order.
type Span struct {
	Name  string
	Dom   Domain
	Start time.Duration
	Dur   time.Duration
	Lane  int
}

// Timing is the latency accounting of one executed plan.
type Timing struct {
	// Serial is the sum of every unit's cost — what the fully sequential
	// walk would charge for the same work.
	Serial time.Duration
	// Parallel charges each non-serial level as its makespan over the
	// simulated CPU lanes (serial levels as their plain sum) and sums the
	// levels — the max-over-parallel-phases-plus-global model.
	Parallel time.Duration
	// Units counts schedulable units; Domains counts distinct recovery
	// domains across the plan.
	Units   int
	Domains int
	// Spans is every unit's scheduled interval, in plan order.
	Spans []Span
}

// Merge folds another plan's timing into tm (an attempt runs one repair
// plan and one audit plan; the attempt's totals combine both). Domains
// counts distinct domains across both span sets.
func (tm *Timing) Merge(o Timing) {
	tm.Serial += o.Serial
	tm.Parallel += o.Parallel
	tm.Units += o.Units
	tm.Spans = append(tm.Spans, o.Spans...)
	tm.Domains = countDomains(tm.Spans)
}

// countDomains returns the number of distinct domains among spans. Plans
// hold tens of units, so a quadratic scan is cheaper than building a set.
func countDomains(spans []Span) int {
	n := 0
	for i := range spans {
		j := 0
		for j < i && spans[j].Dom != spans[i].Dom {
			j++
		}
		if j == i {
			n++
		}
	}
	return n
}

// Execute runs every level in order — units within a non-serial level
// concurrently on up to workers goroutines — and returns the plan's
// deterministic timing on simCPUs simulated lanes. State effects, spans,
// and charged latency are independent of workers. The returned spans are
// freshly allocated: the caller may keep them while the plan is reused.
func (p *Plan) Execute(simCPUs, workers int) Timing {
	simCPUs = max(simCPUs, 1)
	workers = max(workers, 1)
	n := 0
	for _, lv := range p.Levels {
		n += len(lv.Units)
	}
	tm := Timing{Units: n}
	if n > 0 {
		tm.Spans = make([]Span, n)
	}
	var offset time.Duration
	at := 0
	for _, lv := range p.Levels {
		units := lv.Units
		for i := range units {
			tm.Serial += units[i].Cost
		}
		if lv.Serial || workers == 1 || len(units) < 2 {
			for i := range units {
				units[i].run()
			}
		} else {
			runConcurrent(units, workers)
		}
		lanes := simCPUs
		if lv.Serial {
			lanes = 1
		}
		makespan := p.schedule(units, lanes, offset, tm.Spans[at:at+len(units)])
		at += len(units)
		tm.Parallel += makespan
		offset += makespan
	}
	tm.Domains = countDomains(tm.Spans)
	return tm
}

// runConcurrent drains the unit list with a worker pool. Order within the
// level is unconstrained — the level's disjointness contract makes any
// interleaving equivalent.
func runConcurrent(units []Unit, workers int) {
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				units[i].run()
			}
		}()
	}
	wg.Wait()
}

// schedule assigns units to lanes, writes each unit's span into spans
// (indexed in unit order) and returns the level makespan. One lane
// schedules in unit order (the serialized walk); multiple lanes use
// longest-processing-time-first onto the least-loaded lane, with all ties
// broken by unit order, so the schedule is a pure function of the costs.
func (p *Plan) schedule(units []Unit, lanes int, offset time.Duration, spans []Span) time.Duration {
	if lanes <= 1 {
		var at time.Duration
		for i := range units {
			spans[i] = Span{Name: units[i].Name, Dom: units[i].Dom, Start: offset + at, Dur: units[i].Cost}
			at += units[i].Cost
		}
		return at
	}
	idx := p.idx[:0]
	for i := range units {
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(units[b].Cost, units[a].Cost)
	})
	loads := slices.Grow(p.loads[:0], lanes)[:lanes]
	clear(loads)
	p.idx, p.loads = idx, loads
	for _, i := range idx {
		lane := 0
		for l := 1; l < lanes; l++ {
			if loads[l] < loads[lane] {
				lane = l
			}
		}
		spans[i] = Span{Name: units[i].Name, Dom: units[i].Dom,
			Start: offset + loads[lane], Dur: units[i].Cost, Lane: lane}
		loads[lane] += units[i].Cost
	}
	return slices.Max(loads)
}
