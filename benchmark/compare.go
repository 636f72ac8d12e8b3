package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// benchFile is BENCHMARK.json: the contract's keys and nothing else.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

func loadBenchFile(path string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, fmt.Errorf("read bounds: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("parse %s: %w", path, err)
	}
	return bf, nil
}

// loadRecords reads a -out file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open records: %w", err)
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("parse %s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}

// Verdicts of one workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set b against parent set a for one metric. A spread wider
// than the bound leaves the pair unresolved unless every run of b reads
// better than every run of a; otherwise b is worse when its median is
// worse by more than the bound, better when it improves by more than the
// parent's own spread, and within the bound in between.
func judge(a, b []float64, better string, bound float64) string {
	medA, medB := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || medA == 0 {
		return verdictUnresolved
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worsening := sign * (medB - medA) / math.Abs(medA)
	if math.Max(quartileSpread(a), quartileSpread(b)) > bound {
		worstB, bestA := math.Inf(-1), math.Inf(1)
		for _, v := range b {
			worstB = math.Max(worstB, sign*v)
		}
		for _, v := range a {
			bestA = math.Min(bestA, sign*v)
		}
		if worstB < bestA {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case worsening > bound:
		return verdictWorse
	case worsening < 0 && -worsening > quartileSpread(a):
		return verdictBetter
	}
	return verdictWithin
}

// runKey identifies runs whose simulated results must match exactly.
type runKey struct {
	workload string
	seed     uint64
	runs     int
}

// runCompare prints one row per workload × end-to-end metric for sets A
// (parent) and B, then checks that runs of the same seed simulated the
// same thing. The exit code is 1 when any row is worse or any simulated
// result differs.
func runCompare(w io.Writer, boundsPath, pathA, pathB string) (int, error) {
	bf, err := loadBenchFile(boundsPath)
	if err != nil {
		return 2, err
	}
	recsA, err := loadRecords(pathA)
	if err != nil {
		return 2, err
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		return 2, err
	}
	values := func(recs []record, workload, name string) []float64 {
		var vs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	bad := false
	fmt.Fprintf(w, "%-18s %-22s %8s %14s %8s %14s %8s %7s  %s\n",
		"workload", "metric", "n(A/B)", "median A", "iqr A", "median B", "iqr B", "bound", "verdict")
	for _, ws := range bf.Workloads {
		for _, ms := range bf.EndToEnd {
			a, b := values(recsA, ws.Name, ms.Name), values(recsB, ws.Name, ms.Name)
			bound := 0.0
			if ms.Bound != nil {
				bound = *ms.Bound
			}
			v := judge(a, b, ms.Better, bound)
			bad = bad || v == verdictWorse
			fmt.Fprintf(w, "%-18s %-22s %4d/%-3d %14.4f %7.2f%% %14.4f %7.2f%% %6.1f%%  %s\n",
				ws.Name, ms.Name, len(a), len(b), median(a), 100*quartileSpread(a), median(b), 100*quartileSpread(b), 100*bound, v)
		}
	}

	simA := make(map[runKey]record)
	for _, r := range recsA {
		if !r.Traced {
			simA[runKey{r.Workload, r.Env.Seed, r.OpsAttempted}] = r
		}
	}
	matched, differ := 0, 0
	for _, rb := range recsB {
		ra, ok := simA[runKey{rb.Workload, rb.Env.Seed, rb.OpsAttempted}]
		if !ok || rb.Traced {
			continue
		}
		matched++
		if ra.SimDigest != rb.SimDigest || !reflect.DeepEqual(ra.Sim, rb.Sim) {
			differ++
			fmt.Fprintf(w, "sim DIFFERS: %s seed %d: digest %.12s vs %.12s\n", rb.Workload, rb.Env.Seed, ra.SimDigest, rb.SimDigest)
		}
	}
	fmt.Fprintf(w, "simulated results: %d run(s) share workload, seed and run count; %d identical, %d differ\n", matched, matched-differ, differ)
	if bad || differ > 0 {
		return 1, nil
	}
	return 0, nil
}
