package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestChunkMedianRateIgnoresOneBurst(t *testing.T) {
	start := time.Unix(0, 0)
	var stamps []time.Time
	now := start
	for i := 0; i < 100; i++ {
		step := 10 * time.Millisecond
		if i >= 40 && i < 60 { // one chunk runs 5x slower
			step = 50 * time.Millisecond
		}
		now = now.Add(step)
		stamps = append(stamps, now)
	}
	if got := chunkMedianRate(start, stamps); math.Abs(got-100) > 1e-9 {
		t.Errorf("chunk median rate = %v, want 100 runs/s", got)
	}
	// The plain rate is pulled down by the burst; the chunk median is not.
	if plain := 100 / stamps[99].Sub(start).Seconds(); plain > 60 {
		t.Errorf("plain rate = %v, expected the burst to show", plain)
	}
	if got := chunkMedianRate(start, stamps[:3]); math.Abs(got-100) > 1e-9 {
		t.Errorf("rate of 3 runs = %v, want the plain 100 runs/s", got)
	}
	if got := chunkMedianRate(start, nil); got != 0 {
		t.Errorf("rate of no runs = %v, want 0", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.98, 10}, {1, 10}, {0, 1}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([10, 12, 11, 30, 13], n=4) == [10.5, 12.0, 21.5].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got, want := quartileSpread([]float64{10, 12, 11, 30, 13}), (21.5-10.5)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: [10,60) covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // reaches past the parent: clipped to [90,100)
		{ID: 5, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "higher", 0.1, verdictWithin},
		{"slower throughput", steady, []float64{80, 81, 79, 80, 80}, "higher", 0.1, verdictWorse},
		{"faster throughput", steady, []float64{120, 121, 119, 120, 120}, "higher", 0.1, verdictBetter},
		{"higher latency", steady, []float64{120, 121, 119, 120, 120}, "lower", 0.1, verdictWorse},
		{"noisy", []float64{100, 150, 60, 130, 80}, steady, "lower", 0.1, verdictUnresolved},
		{"noisy but disjoint", []float64{100, 150, 160, 130, 180}, []float64{50, 51, 52, 50, 49}, "lower", 0.1, verdictBetter},
		{"empty", nil, steady, "lower", 0.1, verdictUnresolved},
	} {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func loadRepoBenchFile(t *testing.T) benchFile {
	t.Helper()
	bf, err := loadBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkAgainstSpec requires got to hold exactly the spec's metrics, with
// the spec's units.
func checkAgainstSpec(t *testing.T, what string, got map[string]metric, spec []metricSpec) {
	t.Helper()
	want := make(map[string]string)
	for _, m := range spec {
		want[m.Name] = m.Unit
	}
	for name, m := range got {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: emitted %q is not in BENCHMARK.json", what, name)
		case unit != m.Unit:
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %q = %v", what, name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json's %q was not emitted", what, name)
		}
	}
}

func TestBenchmarkFileSchema(t *testing.T) {
	bf := loadRepoBenchFile(t)
	if len(bf.Command) == 0 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("command %v / paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds = %d, the run counts are sized for %d", bf.RunSeconds, referenceSeconds)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, bf.Workloads[i].Name, w.Name)
		}
		if why := bf.Workloads[i].Why; why != w.Why || why == "" || len(why) > 200 {
			t.Errorf("workload %q: why is %q in BENCHMARK.json (%d characters), %q in code", w.Name, why, len(why), w.Why)
		}
	}
	seen := make(map[string]bool)
	check := func(m metricSpec, endToEnd bool) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if endToEnd != (m.Bound != nil) {
			t.Errorf("metric %q: end-to-end metrics carry a bound, per-layer metrics none", m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q: outside the allowed characters", w.Name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		check(m, true)
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(bf.PerLayer) == 0 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		check(m, false)
	}

	// The file round-trips through the schema unchanged.
	data, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	var again benchFile
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if len(again.EndToEnd) != len(bf.EndToEnd) || len(again.PerLayer) != len(bf.PerLayer) || *again.EndToEnd[0].Bound != *bf.EndToEnd[0].Bound {
		t.Error("BENCHMARK.json does not round-trip")
	}
}

var quick = options{seed: 1, seconds: referenceSeconds, quick: true}

// TestQuickSmoke runs every workload at 20 runs and checks that each named
// end-to-end metric comes out with its unit, the gates hold, and the SLO
// figure appears only where traffic is armed.
func TestQuickSmoke(t *testing.T) {
	bf := loadRepoBenchFile(t)
	for _, w := range workloads() {
		rec := untracedRun(w, quick)
		if !rec.Correct || rec.OpsFailed != 0 || rec.OpsAttempted != quickRuns {
			t.Errorf("%s: correct=%v attempted=%d failed=%d breaches=%v", w.Name, rec.Correct, rec.OpsAttempted, rec.OpsFailed, rec.Breaches)
		}
		checkAgainstSpec(t, w.Name, rec.Metrics, bf.EndToEnd)
		for name, m := range rec.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %q is 0", w.Name, name)
			}
		}
		_, hasSLO := rec.Sim["slo_degraded_user_s_per_run"]
		if hasSLO != (w.Name == "rehype_1vm_users") {
			t.Errorf("%s: slo_degraded_user_s_per_run present = %v", w.Name, hasSLO)
		}
		if len(rec.SimDigest) != 64 {
			t.Errorf("%s: sim_digest %q", w.Name, rec.SimDigest)
		}
		if rec.Env.NProc == 0 || rec.Env.GOMAXPROCS == 0 || rec.Env.GoVersion == "" || rec.Env.Parallelism != 1 || rec.Env.Runs[w.Name] != quickRuns {
			t.Errorf("%s: environment block incomplete: %+v", w.Name, rec.Env)
		}
	}
}

// TestQuickTraced runs the per-layer pass on the primary workload and
// checks the emitted metrics against BENCHMARK.json and the span file.
func TestQuickTraced(t *testing.T) {
	bf := loadRepoBenchFile(t)
	w, _ := findWorkload("failstop_1vm")
	o := quick
	o.trace = true
	o.spans = filepath.Join(t.TempDir(), "spans.json")
	rec, err := tracedRun(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("breaches: %v", rec.Breaches)
	}
	checkAgainstSpec(t, "traced failstop_1vm", rec.Metrics, bf.PerLayer)

	data, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	names := make(map[string]int)
	byID := make(map[int]span)
	for _, s := range file.Spans {
		names[s.Name]++
		byID[s.ID] = s
		if s.Trace != file.Trace || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, s := range file.Spans {
		if s.Parent != 0 && byID[s.Parent].ID == 0 {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
	}
	if names["run"] != quickRuns/tracedShare || names["campaign.Execute"] != 1 || names["workload/failstop_1vm"] != 1 || names["layers/failstop_1vm"] != 1 {
		t.Errorf("span names: %v", names)
	}
	for _, part := range coverParts {
		if names[part] == 0 {
			t.Errorf("no span for sub-restore %q", part)
		}
	}
}

// A harness fault — a machine that cannot be built — must show in
// ops_failed and in the exit code, not pass as a simulated failure.
func TestHarnessFaultIsCounted(t *testing.T) {
	w, _ := findWorkload("failstop_1vm")
	w.Base.MemoryMB = -1
	var out bytes.Buffer
	code, err := runOne(&out, w, quick)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Error("exit code 0 for a workload whose machine cannot be built")
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed != quickRuns || last.Attempted != quickRuns {
		t.Errorf("result line = %+v, want all %d runs failed", last, quickRuns)
	}
}

func TestResultLineShape(t *testing.T) {
	var out bytes.Buffer
	rec := record{Correct: true, OpsAttempted: 3, Metrics: map[string]metric{"x": {1.5, "ms"}}}
	if err := printResultLine(&out, rec.resultLine()); err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range generic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := string(bytes.Join([][]byte{[]byte(keys[0]), []byte(keys[1]), []byte(keys[2]), []byte(keys[3])}, []byte(","))); len(keys) != 4 || got != "attempted,correct,failed,metrics" {
		t.Errorf("result line keys = %v", keys)
	}
}
