// Command benchmark is the repository's performance ledger: four
// fixed-seed campaign workloads measured on two clocks — host time (what a
// campaign user waits for) and simulated time (what the paper claims) —
// with a correctness gate in the same command and a separate traced pass
// that attributes the cost to each package. README.md has the glossary.
//
//	go run ./benchmark                                   # all four workloads, one process each
//	go run ./benchmark -workload failstop_8g -seed 3     # one workload, end-to-end metrics
//	go run ./benchmark -workload failstop_8g -trace 1 -spans spans.json
//	go run ./benchmark -compare A.jsonl B.jsonl          # judge two sets by BENCHMARK.json's bounds
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	spans    string
	out      string
}

// runs is the timed run count of w under these options.
func (o options) runs(w workload) int {
	if o.quick {
		return quickRuns
	}
	return w.runsFor(o.seconds)
}

// warmup and setupReps shrink with -quick so the smoke stays a smoke.
func (o options) warmup() int {
	if o.quick {
		return 5
	}
	return warmupRuns
}

func (o options) setupReps() int {
	if o.quick {
		return 1
	}
	return 5
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run parses args and dispatches to a mode. The exit code is 0 only when
// every workload ran and every correctness gate held.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var trace int
	var compare bool
	var bounds string
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", 1, "benchmark seed; owns a disjoint block of campaign seeds")
	fs.IntVar(&o.seconds, "seconds", referenceSeconds, "measuring time the fixed run counts are scaled to")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass printing the per-layer metrics, 0 = end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke mode: 20 runs per workload")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1: write the span tree to this file as JSON")
	fs.StringVar(&o.out, "out", "", "append each workload's full record to this file as a JSON line")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: -compare A.jsonl B.jsonl")
	fs.StringVar(&bounds, "bounds", "BENCHMARK.json", "with -compare: the file holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two record files")
		}
		return runCompare(os.Stdout, bounds, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return 2, errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	o.trace = trace == 1
	if o.workload == "" {
		return runAll(o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	return runOne(os.Stdout, w, o)
}

// runOne measures one workload in this process and prints its record,
// ending with the machine-readable result line.
func runOne(out io.Writer, w workload, o options) (int, error) {
	var rec record
	var err error
	if o.trace {
		rec, err = tracedRun(w, o)
	} else {
		rec = untracedRun(w, o)
	}
	if err != nil {
		return 2, err
	}
	rec.print(out)
	if o.out != "" {
		if err := rec.appendTo(o.out); err != nil {
			return 2, err
		}
	}
	if err := printResultLine(out, rec.resultLine()); err != nil {
		return 2, err
	}
	if !rec.Correct {
		return 1, nil
	}
	return 0, nil
}

// untracedRun is the end-to-end measurement: set up, time the campaign
// with tracing off, derive the metrics, then run the correctness gates.
func untracedRun(w workload, o options) record {
	runs, base := o.runs(w), seedBase(o.seed)
	startup := time.Since(processStart).Seconds()
	setupS := startup + setUp(w.Base, o.warmup(), base, o.setupReps(), nil, 0)
	p := execute(w.Base, runs, base, nil, 0, false)
	rec := newRecord(w, o, p)
	rec.Metrics = endToEnd(p, setupS)
	rec.applyGates(append(checkPass(w, p), checkDeterminism(w.Base, min(determinismRuns, runs), base)...))
	return rec
}

// newRecord starts a record from a timed pass; the caller adds the metrics
// and gates.
func newRecord(w workload, o options, p pass) record {
	return record{
		Env: describeEnvironment(o), Workload: w.Name, Why: w.Why, Traced: o.trace,
		OpsAttempted: p.runs, Sim: simMetrics(w, p.summary), SimDigest: simDigest(p.summary), Samples: len(p.stamps),
	}
}

// runAll runs every workload in a process of its own (so peak RSS is per
// workload), relays their output, and ends with one combined result line
// whose metric names are prefixed with the workload.
func runAll(o options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 2, fmt.Errorf("locate own binary: %w", err)
	}
	all := resultLine{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads() {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		if o.spans != "" {
			args = append(args, "-spans", o.spans+"."+w.Name)
		}
		last, err := runChild(self, args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			all.Correct = false
		}
		var l resultLine
		if json.Unmarshal([]byte(last), &l) != nil {
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for name, m := range l.Metrics {
			all.Metrics[w.Name+"/"+name] = m
		}
	}
	if err := printResultLine(os.Stdout, all); err != nil {
		return 2, err
	}
	if !all.Correct {
		return 1, nil
	}
	return 0, nil
}

// runChild runs the binary with args, echoing its standard output, and
// returns the last line it printed. It returns only after the child has
// exited.
func runChild(self string, args []string) (string, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", fmt.Errorf("pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("start: %w", err)
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // the traced result line carries ~100 metrics
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	if err := cmd.Wait(); err != nil {
		return last, fmt.Errorf("child: %w", err)
	}
	return last, sc.Err()
}
