package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment makes every output self-describing, so numbers taken on
// different boxes or settings are never compared by accident.
type environment struct {
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Parallelism int            `json:"parallelism"`
	Seed        uint64         `json:"seed"`
	SeedBase    uint64         `json:"seed_base"`
	Seconds     int            `json:"seconds"`
	Runs        map[string]int `json:"runs"`
}

// describeEnvironment fills the block for one invocation. Runs lists the
// timed run count of every workload at these settings.
func describeEnvironment(o options) environment {
	env := environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		Parallelism: 1,
		Seed:        o.seed,
		SeedBase:    seedBase(o.seed),
		Seconds:     o.seconds,
		Runs:        make(map[string]int),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	for _, w := range workloads() {
		env.Runs[w.Name] = o.runs(w)
	}
	return env
}

// record is one workload's full result: what -out appends as a JSON line
// and -compare reads back.
type record struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Traced   bool        `json:"traced"`

	Correct      bool     `json:"correct"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Breaches     []string `json:"breaches,omitempty"`

	// Metrics are the end-to-end metrics of an untraced pass, or the
	// per-layer metrics of a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Sim are the simulated-clock results, exact for the seed.
	Sim       map[string]metric `json:"sim"`
	SimDigest string            `json:"sim_digest"`
	// Samples states the sample count behind each percentile.
	Samples int `json:"samples"`
}

// applyGates folds gate verdicts into the record.
func (r *record) applyGates(gs []gate) {
	for _, g := range gs {
		r.OpsFailed += g.failed
		r.Breaches = append(r.Breaches, g.why)
	}
	if r.OpsFailed > r.OpsAttempted {
		r.OpsFailed = r.OpsAttempted
	}
	r.Correct = len(r.Breaches) == 0
}

// print renders the record for a reader: the environment, every metric by
// name and unit, the simulated results beside the paper's, and the
// correctness verdict.
func (r *record) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "== %s (%s)\n", r.Workload, r.Why)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s commit=%s parallelism=%d seed=%d seed_base=%d seconds=%d runs=%d traced=%v\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Parallelism, e.Seed, e.SeedBase, e.Seconds, r.OpsAttempted, r.Traced)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-44s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  -- simulated clock (exact for the seed; percentiles over %d samples)\n", r.Samples)
	for _, name := range sortedKeys(r.Sim) {
		m := r.Sim[name]
		fmt.Fprintf(w, "  %-44s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  sim_digest   %s\n", r.SimDigest)
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", r.OpsAttempted, r.OpsFailed, r.Correct)
	for _, b := range r.Breaches {
		fmt.Fprintf(w, "  BREACH: %s\n", b)
	}
}

// appendTo appends the record to path as one JSON line.
func (r *record) appendTo(path string) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) resultLine() resultLine {
	return resultLine{r.Correct, r.OpsAttempted, r.OpsFailed, r.Metrics}
}

func printResultLine(w io.Writer, l resultLine) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
