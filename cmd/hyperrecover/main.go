// Command hyperrecover is the one command-line front end to the
// simulator: every experiment of the evaluation is a subcommand over one
// run vocabulary and one shared flag group.
//
//	hyperrecover campaign -mechanism nilihype -fault register -runs 700
//	hyperrecover latency -memory 65536 -scan-cpus 8
//	hyperrecover trace -seed 3 -fault code -adversarial > trace.json
//	hyperrecover help <subcommand>
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// command is one subcommand: setup declares its flags on fs and returns
// the function that runs it once they are parsed.
type command struct {
	name, summary string
	help          string // what `hyperrecover help <name>` prints above the flag list
	setup         func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

var commands = []command{
	{"campaign", "fault-injection campaigns: recovery rates and outcome breakdowns (Figure 2, §VII-A)", campaignHelp, campaignCmd},
	{"ladder", "the NiLiHype enhancement ladder (Table I)", ladderHelp, ladderCmd},
	{"latency", "recovery-latency breakdowns and the memory-size sweep (Tables II/III)", latencyHelp, latencyCmd},
	{"overhead", "hypervisor processing overhead in normal operation (Figure 3)", overheadHelp, overheadCmd},
	{"hybrid", "escalating recovery: NiLiHype vs ReHype vs the hybrid ladder on mixed faults", hybridHelp, hybridCmd},
	{"audit", "the hybrid ladder with and without the post-recovery state audit", auditHelp, auditCmd},
	{"slo", "recovery mechanisms scored by user-visible damage", sloHelp, sloCmd},
	{"trace", "one run's flight-recorder timeline, as Chrome trace JSON or text", traceHelp, traceCmd},
	{"postmortem", "automatic failure forensics on every run that went wrong", postmortemHelp, postmortemCmd},
	{"report", "the fault-class × ladder recovery matrix as JSON", reportHelp, reportCmd},
	{"loc", "implementation complexity by the paper's CLOC methodology (Table IV)", locHelp, locCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args to a subcommand and returns the process exit code.
// Every failure is one line on stderr; nothing is printed to stdout
// before a subcommand's flags have been validated.
func run(args []string, stdout, stderr io.Writer) int {
	wantHelp := len(args) > 0 && args[0] == "help"
	if wantHelp {
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: hyperrecover <subcommand> [flags]   (hyperrecover help <subcommand> for details)")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-13s %s\n", c.name, c.summary)
		}
		if wantHelp {
			return 0
		}
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs, exec, err := c.parse(args[1:])
		if wantHelp || errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stdout, "%s\nFlags:\n", c.help)
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return 0
		}
		if err == nil {
			err = exec(stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hyperrecover %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "hyperrecover: unknown subcommand %q (run hyperrecover help)\n", args[0])
	return 2
}

// parse declares c's flags on a fresh flag set and parses args under
// them, rejecting stray arguments. Errors are left for the caller to
// report once.
func (c command) parse(args []string) (*flag.FlagSet, func(stdout, stderr io.Writer) error, error) {
	fs := flag.NewFlagSet("hyperrecover "+c.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	exec := c.setup(fs)
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return fs, exec, err
}

// bounded is a flag.Value that rejects out-of-range values while the
// command line is being parsed, so no subcommand can forget to.
type bounded[T int | uint64 | float64 | time.Duration] struct {
	p      *T
	lo, hi T
	parse  func(string) (T, error)
}

func (b bounded[T]) String() string {
	if b.p == nil {
		return ""
	}
	return fmt.Sprint(*b.p)
}

func (b bounded[T]) Set(s string) error {
	v, err := b.parse(s)
	if err != nil {
		return errors.New("not a valid number")
	}
	if v < b.lo || v > b.hi {
		return fmt.Errorf("out of range [%v, %v]", b.lo, b.hi)
	}
	*b.p = v
	return nil
}

func intVar(fs *flag.FlagSet, p *int, name string, lo, hi int, usage string) {
	fs.Var(bounded[int]{p, lo, hi, strconv.Atoi}, name, usage)
}

func uintVar(fs *flag.FlagSet, p *uint64, name string, hi uint64, usage string) {
	parse := func(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
	fs.Var(bounded[uint64]{p, 0, hi, parse}, name, usage)
}

func floatVar(fs *flag.FlagSet, p *float64, name string, lo, hi float64, usage string) {
	parse := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	fs.Var(bounded[float64]{p, lo, hi, parse}, name, usage)
}

func durVar(fs *flag.FlagSet, p *time.Duration, name string, lo, hi time.Duration, usage string) {
	fs.Var(bounded[time.Duration]{p, lo, hi, time.ParseDuration}, name, usage)
}

const (
	maxRuns     = 10_000_000
	maxParallel = 4096
	maxUsers    = 1_000_000_000
	anyUint     = ^uint64(0)
)

// runFlags is the one run vocabulary: the flags the experiment
// subcommands share, each declared exactly once in register. A subcommand
// fills in its experiment defaults, registers the subset its user may
// change, and asks campaign() for the campaign they describe.
type runFlags struct {
	runs, memory, parallel, repairCPUs        int
	duration                                  time.Duration
	seed, seedBase, users                     uint64
	format, fault, mechanism, setup, workload string
	logging, paper                            bool
}

// register declares the named shared flags on fs; the receiver's current
// values are the subcommand's defaults.
func (f *runFlags) register(fs *flag.FlagSet, names ...string) *runFlags {
	for _, name := range names {
		switch name {
		case "runs", "runs-per-fault":
			intVar(fs, &f.runs, name, 1, maxRuns, "injection runs per campaign (per fault type, mechanism or ladder rung where several are compared)")
		case "duration":
			durVar(fs, &f.duration, name, time.Millisecond, time.Hour, "benchmark duration (virtual time)")
		case "memory":
			intVar(fs, &f.memory, name, 512, 262144, "machine memory in MB (the paper's latency testbed is 8192)")
		case "parallel":
			intVar(fs, &f.parallel, name, 0, maxParallel, "concurrent runs per process (0 = GOMAXPROCS)")
		case "repair-cpus":
			intVar(fs, &f.repairCPUs, name, 0, campaign.MachineCPUs, "partition non-reboot repair+audit into recovery domains over this many CPUs (0/1 = serial; implies audit)")
		case "seed":
			uintVar(fs, &f.seed, name, anyUint, "run seed")
		case "seed-base":
			uintVar(fs, &f.seedBase, name, anyUint, "seed-space offset: the first seed is seed-base+1 (same base => same fault scenarios)")
		case "users":
			uintVar(fs, &f.users, name, maxUsers, "simulated open-loop end-user population per run (0 = traffic off)")
		case "format":
			fs.StringVar(&f.format, name, f.format, "output format: text | markdown | csv | json (trace: chrome | text)")
		case "fault":
			fs.StringVar(&f.fault, name, f.fault, "fault type: failstop | register | code | privvm-crash | privvm-hang | ioapic")
		case "mechanism":
			fs.StringVar(&f.mechanism, name, f.mechanism, "recovery mechanism: nilihype | rehype | checkpoint | privvm-restart | hybrid | full-ladder")
		case "setup":
			fs.StringVar(&f.setup, name, f.setup, "target system: 1appvm | 3appvm")
		case "workload":
			fs.StringVar(&f.workload, name, f.workload, "1AppVM benchmark: blkbench | unixbench | netbench")
		case "logging":
			fs.BoolVar(&f.logging, name, f.logging, "enable §IV retry-mitigation logging (off = NiLiHype*)")
		case "paper":
			fs.BoolVar(&f.paper, name, false, "paper-scale run counts and benchmark durations")
		default:
			panic("hyperrecover: no shared flag -" + name)
		}
	}
	return f
}

// campaign resolves the vocabulary's names and yields the campaign the
// flags describe. Names left empty by the subcommand's defaults keep
// RunConfig's own defaults.
func (f *runFlags) campaign() (c campaign.Campaign, err error) {
	c.Runs, c.Parallelism, c.SeedBase = f.runs, f.parallel, f.seedBase
	b := &c.Base
	b.Seed, b.Logging, b.BenchDuration, b.MemoryMB = f.seed, f.logging, f.duration, f.memory
	b.Traffic.Users = f.users
	if f.fault != "" {
		if b.Fault, err = inject.ParseFaultType(f.fault); err != nil {
			return c, err
		}
	}
	if f.setup != "" {
		if b.Setup, err = campaign.ParseSetup(f.setup); err != nil {
			return c, err
		}
	}
	if f.workload != "" {
		if b.Workload, err = guest.ParseKind(f.workload); err != nil {
			return c, err
		}
	}
	if f.mechanism != "" {
		if b.Recovery, err = core.ParseConfig(f.mechanism); err != nil {
			return c, err
		}
		b.Recovery = f.withRepairCPUs(b.Recovery)
	}
	return c, nil
}

// withRepairCPUs folds -repair-cpus into a recovery config: partitioned
// repair needs the audit gate, since the domain walk is the audit.
func (f *runFlags) withRepairCPUs(rc core.Config) core.Config {
	if f.repairCPUs > 1 {
		rc.RepairCPUs = f.repairCPUs
		rc.Escalation.Audit = true
	}
	return rc
}

// oneShot is the single-rung configuration a mechanism name stands for:
// that mechanism with every enhancement on.
func oneShot(m core.Mechanism) core.Config {
	return core.Config{Mechanism: m, Enhancements: core.AllEnhancements}
}

// Fault sets the experiments iterate: the paper's three (§VI-C) and the
// broadened surface with the PrivVM and IO-APIC classes.
var (
	allFaults   = []inject.FaultType{inject.Failstop, inject.Register, inject.Code, inject.PrivVMCrash, inject.PrivVMHang, inject.DeviceIOAPIC}
	paperFaults = allFaults[:3]
)
