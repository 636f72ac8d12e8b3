package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nilihype/internal/campaign"
	"nilihype/internal/cloc"
	"nilihype/internal/core"
	"nilihype/internal/guest"
	"nilihype/internal/inject"
)

// hyperrecover runs one command line in-process.
func hyperrecover(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestGoldenStdout pins every subcommand's stdout at the CI smoke sizes.
// The golden files were captured from the eleven single-purpose binaries
// this command replaced, at the commit before they were deleted, so a
// pass means the fold changed no output byte. campaign-lanes8 pins the
// 8-lane repair output and was captured before the in-place repair steps
// became one table. loc is absent (it counts this repository). To
// regenerate one after a deliberate change:
// hyperrecover <args> > testdata/<name>.golden.
func TestGoldenStdout(t *testing.T) {
	for _, tt := range []struct{ golden, args string }{
		{"campaign", "campaign -runs 24 -duration 2s"},
		{"campaign-matrix", "campaign -fault-matrix -runs 6 -duration 2s"},
		{"campaign-lanes8", "campaign -repair-cpus 8 -mechanism full-ladder -fault code -setup 3appvm -runs 60 -duration 2s"},
		{"ladder", "ladder -runs 6 -duration 2s"},
		{"latency", "latency"},
		{"latency-checkpoint", "latency -mechanism checkpoint"},
		{"overhead", "overhead"},
		{"hybrid", "hybrid -runs-per-fault 5 -memory 1024 -duration 2s"},
		{"audit", "audit -runs-per-fault 5 -memory 1024 -duration 2s"},
		{"slo", "slo -users 1000000 -runs 5 -duration 2s"},
		{"trace-text", "trace -fault failstop -format text -flight 64"},
		{"trace-chrome", "trace -format chrome -flight 64"},
		{"postmortem-ioapic", "postmortem -fault ioapic -runs 10 -bundles 1"},
		{"postmortem-privvm", "postmortem -fault privvm-crash -mechanism hybrid -runs 5 -bundles 0"},
		{"postmortem-json", "postmortem -fault ioapic -runs 5 -bundles 1 -format json"},
		{"report-json", "report -runs 2 -users 1000"},
	} {
		t.Run(tt.args, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tt.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, code := hyperrecover(strings.Fields(tt.args)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if got != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", tt.golden, got, want)
			}
		})
	}
}

// TestHostileFlagValues: every out-of-range or unparsable value, on every
// subcommand that takes the flag, ends in a one-line error and a non-zero
// exit — never a Summary, never a panic.
func TestHostileFlagValues(t *testing.T) {
	for _, args := range []string{
		"campaign -runs -5", "campaign -runs 0", "campaign -duration -2s", "campaign -duration 0",
		"campaign -parallel -1", "campaign -repair-cpus -3", "campaign -repair-cpus 99",
		"campaign -runs 99999999999999999999", "campaign -runs 1e3",
		"campaign -fault alpha", "campaign -mechanism bogus", "campaign -setup 5appvm", "campaign -workload webbench",
		"campaign stray", "campaign -trace-run 3",
		"campaign -all -mechanism hybrid -runs 6 -duration 1s", "campaign -all -mechanism full-ladder -runs 6 -duration 1s",
		"ladder -runs -1", "ladder -duration -1s", "ladder -parallel -4",
		"latency -memory -8192", "latency -memory 1", "latency -scan-cpus 0", "latency -scan-cpus -2",
		"latency -mechanism hybrid", "latency -format svg", "latency -seed -1",
		"overhead -duration -2s", "overhead -hyp-share 7", "overhead -seed -1",
		"hybrid -runs-per-fault 0", "hybrid -memory -1", "hybrid -duration -1s", "hybrid -parallel -1",
		"hybrid -grace -1s", "hybrid -seed-base -1", "hybrid -format svg",
		"audit -runs-per-fault -3", "audit -memory 99999999", "audit -duration -1s", "audit -parallel -1", "audit -burst -1ms",
		"slo -users -1", "slo -users 99999999999", "slo -runs -1", "slo -duration -3s", "slo -parallel -1",
		"slo -timeout -1s", "slo -period -1s", "slo -mechanisms ,", "slo -mechanisms nilihype,bogus", "slo -fault alpha",
		"trace -flight 0", "trace -flight -1", "trace -find-failed -1", "trace -repair-cpus -1", "trace -duration -1s",
		"trace -seed -1", "trace -format svg", "trace -fault cosmic", "trace -mechanism bogus",
		"postmortem -runs -5", "postmortem -bundles -1", "postmortem -users -1", "postmortem -parallel -1",
		"postmortem -seed-base -1", "postmortem -mechanism bogus", "postmortem -format csv", "postmortem -ladder hybrid",
		"report -runs -1", "report -users -1", "report -format json",
		"loc -root /nonexistent/tree", "bogus", "",
	} {
		stdout, stderr, code := hyperrecover(strings.Fields(args)...)
		if code == 0 {
			t.Errorf("%q: exit 0, want failure", args)
		}
		if stdout != "" {
			t.Errorf("%q: wrote to stdout before failing:\n%s", args, stdout)
		}
		if args != "" && strings.Count(stderr, "\n") != 1 {
			t.Errorf("%q: want a one-line error, got:\n%s", args, stderr)
		}
	}
}

// TestForensicLoop closes the loop postmortem opens: take the lowest-seed
// bundle of an IO-APIC campaign and replay that seed with trace under the
// same fault, ladder, setup and duration. The replay must tell the same
// story — outcome, root cause, and every journal entry.
func TestForensicLoop(t *testing.T) {
	pm, stderr, code := hyperrecover("postmortem", "-fault", "ioapic", "-runs", "10", "-bundles", "1", "-format", "json")
	if code != 0 {
		t.Fatalf("postmortem: exit %d: %s", code, stderr)
	}
	var doc struct {
		Bundles []campaign.Bundle `json:"bundles"`
	}
	if err := json.Unmarshal([]byte(pm), &doc); err != nil || len(doc.Bundles) != 1 {
		t.Fatalf("postmortem json: %v, %d bundle(s)", err, len(doc.Bundles))
	}
	b := doc.Bundles[0]
	if b.RootCause != campaign.RootCauseDeviceRouteLoss {
		t.Fatalf("bundle root cause = %q, want %q", b.RootCause, campaign.RootCauseDeviceRouteLoss)
	}

	// postmortem's fixed experiment shape, spelled out in the shared
	// vocabulary; "microreset" is its default -mechanism.
	timeline, verdict, code := hyperrecover("trace", "-seed", jsonNumber(b.Seed), "-fault", "ioapic",
		"-mechanism", "microreset", "-setup", "3appvm", "-duration", "2s", "-logging", "-format", "text")
	if code != 0 {
		t.Fatalf("trace: exit %d: %s", code, verdict)
	}
	for _, want := range []string{"outcome=" + b.Outcome, `root-cause="` + b.RootCause + `"`, "fail=" + jsonString(b.FailReason)} {
		if !strings.Contains(verdict, want) {
			t.Errorf("trace verdict %q lacks %s", verdict, want)
		}
	}
	_, journal, ok := strings.Cut(timeline, "\nrecovery journal:\n")
	if !ok {
		t.Fatalf("trace text has no recovery journal:\n%s", timeline)
	}
	var want strings.Builder
	for _, e := range b.Journal {
		want.WriteString("  " + e.String() + "\n")
	}
	if !strings.HasPrefix(journal, want.String()+"\n") {
		t.Errorf("trace journal differs from the bundle's:\n--- trace ---\n%s--- bundle ---\n%s", journal, want.String())
	}
}

func jsonNumber(v uint64) string { b, _ := json.Marshal(v); return string(b) }
func jsonString(s string) string { b, _ := json.Marshal(s); return string(b) }

// TestParseMechanismAndFault: trace resolves -mechanism and -fault through
// the shared vocabulary, so names the old binaries disagreed on (trace
// rejected ioapic, hybrid and full-ladder; postmortem rejected rehype-cp)
// now resolve identically wherever the flag exists.
func TestParseMechanismAndFault(t *testing.T) {
	rc, err := traceRunConfig(&runFlags{mechanism: "rehype", fault: "Register"}, false, 0)
	if err != nil || rc.Recovery.Mechanism != core.Microreboot || rc.Fault != inject.Register {
		t.Fatalf("rehype/Register = %v/%v, %v", rc.Recovery.Mechanism, rc.Fault, err)
	}
	rc, err = traceRunConfig(&runFlags{mechanism: "full-ladder", fault: "ioapic"}, false, 0)
	if err != nil || rc.Recovery.MaxAttempts() != 3 || rc.Fault != inject.DeviceIOAPIC {
		t.Fatalf("full-ladder/ioapic = %+v/%v, %v", rc.Recovery, rc.Fault, err)
	}
	if _, err := traceRunConfig(&runFlags{mechanism: "bogus", fault: "code"}, false, 0); err == nil {
		t.Fatal("accepted a bogus mechanism")
	}
	if _, err := traceRunConfig(&runFlags{mechanism: "nilihype", fault: "cosmic"}, false, 0); err == nil {
		t.Fatal("accepted a cosmic fault")
	}
	for _, args := range []string{
		"trace -fault device -mechanism hybrid -format text -flight 16",
		"postmortem -mechanism rehype-cp -runs 2 -bundles 0",
		"postmortem -mechanism full -fault IO-APIC -runs 2 -bundles 0",
	} {
		if _, stderr, code := hyperrecover(strings.Fields(args)...); code != 0 {
			t.Errorf("%q: exit %d: %s", args, code, stderr)
		}
	}
}

func TestBuildRunConfigAdversarial(t *testing.T) {
	rc, err := traceRunConfig(&runFlags{seed: 5, fault: "code", mechanism: "nilihype", repairCPUs: 4}, true, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Seed != 5 || rc.Recovery.MaxAttempts() <= 1 || !rc.Recovery.Escalation.Audit || rc.Recovery.RepairCPUs != 4 {
		t.Fatalf("adversarial config lacks seed/ladder/audit/lanes: %+v", rc)
	}
	if rc.BurstWindow == 0 || !rc.FaultDuringRecovery {
		t.Fatalf("adversarial config lacks burst/during-recovery: %+v", rc)
	}
	if rc.FlightRecorderCapacity != 1024 {
		t.Fatalf("flight capacity not threaded: %d", rc.FlightRecorderCapacity)
	}
}

func TestParseMechanism(t *testing.T) {
	for in, want := range map[string]core.Mechanism{
		"nilihype": core.Microreset, "MICRORESET": core.Microreset, "rehype": core.Microreboot,
		"microreboot": core.Microreboot, "checkpoint": core.CheckpointRestore, "rehype-cp": core.CheckpointRestore,
	} {
		c, err := (&runFlags{mechanism: in, repairCPUs: 4}).campaign()
		if r := c.Base.Recovery; err != nil || r.Mechanism != want || r.Enhancements != core.AllEnhancements ||
			r.RepairCPUs != 4 || !r.Escalation.Audit {
			t.Errorf("mechanism %q: %+v, %v", in, r, err)
		}
	}
	if _, err := (&runFlags{mechanism: "bogus"}).campaign(); err == nil {
		t.Error("campaign() accepted a bogus mechanism")
	}
}

func TestParseFault(t *testing.T) {
	for in, want := range map[string]inject.FaultType{
		"failstop": inject.Failstop, "Register": inject.Register, "code": inject.Code, "device": inject.DeviceIOAPIC,
	} {
		if c, err := (&runFlags{fault: in}).campaign(); err != nil || c.Base.Fault != want {
			t.Errorf("fault %q: %v, %v", in, c.Base.Fault, err)
		}
	}
	if _, err := (&runFlags{fault: "alpha"}).campaign(); err == nil {
		t.Error("campaign() accepted a junk fault")
	}
}

func TestParseSetupAndWorkload(t *testing.T) {
	c, err := (&runFlags{setup: "3APPVM", workload: "netbench", runs: 7, parallel: 2, seedBase: 5,
		duration: time.Second, memory: 2048, users: 9, logging: true}).campaign()
	if err != nil || c.Base.Setup != campaign.ThreeAppVM || c.Base.Workload != guest.NetBench {
		t.Fatalf("setup/workload: %+v, %v", c.Base, err)
	}
	if c.Runs != 7 || c.Parallelism != 2 || c.SeedBase != 5 || c.Base.BenchDuration != time.Second ||
		c.Base.MemoryMB != 2048 || c.Base.Traffic.Users != 9 || !c.Base.Logging {
		t.Fatalf("scalar flags not carried into the campaign: %+v", c)
	}
	if _, err := (&runFlags{setup: "5appvm"}).campaign(); err == nil {
		t.Error("campaign() accepted a junk setup")
	}
	if _, err := (&runFlags{workload: "webbench"}).campaign(); err == nil {
		t.Error("campaign() accepted a junk workload")
	}
}

// chromeDoc mirrors the trace_event JSON shape for the assertions below.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		Dur   float64 `json:"dur"`
	} `json:"traceEvents"`
}

// TestFailedAdversarialRunRendersChromeTrace is trace's acceptance bar:
// scan for an adversarial run that goes wrong and verify its rendering is
// valid Chrome trace JSON carrying the injection marker, the detection
// event, and recovery-phase spans.
func TestFailedAdversarialRunRendersChromeTrace(t *testing.T) {
	out, diag, code := hyperrecover("trace", "-adversarial", "-find-failed", "64")
	if code != 0 {
		t.Fatalf("trace: exit %d: %s", code, diag)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var injects, detects, spans int
	for _, e := range doc.TraceEvents {
		switch {
		case strings.HasPrefix(e.Name, "inject:"):
			injects++
		case strings.HasPrefix(e.Name, "detect:"):
			detects++
		case e.Phase == "X":
			spans++
			if e.Dur < 0 {
				t.Fatalf("span %q has negative duration", e.Name)
			}
		}
	}
	if injects == 0 || detects == 0 || spans == 0 {
		t.Fatalf("trace missing markers: injects=%d detects=%d phase spans=%d\n%s", injects, detects, spans, diag)
	}
	if !strings.HasPrefix(diag, "seed ") {
		t.Fatalf("diagnostic line missing: %q", diag)
	}
}

func TestTextFormatIncludesTimelineAndMetrics(t *testing.T) {
	out, diag, code := hyperrecover("trace", "-fault", "failstop", "-format", "text", "-flight", "1024")
	if code != 0 {
		t.Fatalf("trace: exit %d: %s", code, diag)
	}
	for _, want := range []string{"inject", "detect", "hv.dispatches", "recovery.attempt_latency_us"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderRejectsUnknownFormat(t *testing.T) {
	out, diag, code := hyperrecover("trace", "-fault", "failstop", "-format", "svg")
	if code == 0 || out != "" || !strings.Contains(diag, "unknown format") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, diag)
	}
}

func TestHelpPrintsDocAndFlags(t *testing.T) {
	for _, c := range commands {
		out, _, code := hyperrecover("help", c.name)
		if code != 0 || !strings.Contains(out, "Flags:") {
			t.Errorf("help %s: exit %d:\n%s", c.name, code, out)
		}
		if !strings.HasPrefix(out, "hyperrecover "+c.name+" ") {
			t.Errorf("help %s does not open with the subcommand's description:\n%s", c.name, out)
		}
	}
}

// TestDocCommandsParse: every `hyperrecover <subcommand> …` that README.md,
// EXPERIMENTS.md and DESIGN.md show — in a code block or an inline code
// span — names a subcommand and parses under its flag set, so no document
// cites a flag or subcommand that no longer exists. Commands are parsed,
// never executed. Comments and redirects are stripped; a command with a
// placeholder token (N, […], <…>) is skipped and logged. Every Test and
// Benchmark function the documents cite must exist too: a name wrapped
// inside an inline span is joined, and a trailing * reads as a prefix.
func TestDocCommandsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	var defined []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range regexp.MustCompile(`(?m)^func ((?:Benchmark|Test)\w+)\(`).FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cmdRe := regexp.MustCompile(`(?:^|[\s/])hyperrecover\s+(\S.*)`)
	spanRe := regexp.MustCompile("`([^`]+)`")
	wrapRe := regexp.MustCompile(`\n\s*`)
	citeRe := regexp.MustCompile(`\b(?:Benchmark|Test)[A-Z]\w*\*?`)
	var parsed, skipped []string
	cited := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		// A test name wrapped inside an inline span is one identifier.
		joined := spanRe.ReplaceAllStringFunc(string(src), func(s string) string {
			return wrapRe.ReplaceAllString(s, "")
		})
		for _, name := range citeRe.FindAllString(joined, -1) {
			cited++
			if !definesCited(defined, name) {
				t.Errorf("%s cites %s, which no _test.go defines", doc, name)
			}
		}
		// Inline spans may wrap; fenced blocks are taken line by line.
		var cmds []string
		for i, block := range strings.Split(string(src), "```") {
			if i%2 == 1 {
				cmds = append(cmds, strings.Split(block, "\n")...)
				continue
			}
			for _, s := range spanRe.FindAllStringSubmatch(block, -1) {
				cmds = append(cmds, strings.ReplaceAll(s[1], "\n", " "))
			}
		}
		for _, line := range cmds {
			m := cmdRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := docArgs(m[1])
			cmdline := doc + ": hyperrecover " + strings.Join(args, " ")
			if args[0] == "help" || hasPlaceholder(args) {
				skipped = append(skipped, cmdline)
				continue
			}
			if err := parseOnly(args); err != nil {
				t.Errorf("%s: %v", cmdline, err)
			}
			parsed = append(parsed, cmdline)
		}
	}
	if len(parsed) < 40 || cited < 40 {
		t.Errorf("found only %d commands and %d test citations in the documents; is the extraction broken?", len(parsed), cited)
	}
	t.Logf("checked %d test citations; parsed %d commands; skipped %d with placeholders:\n  %s",
		cited, len(parsed), len(skipped), strings.Join(skipped, "\n  "))
}

// definesCited reports whether a cited test or benchmark name is defined;
// a trailing * cites every name with that prefix, and at least one must
// exist.
func definesCited(defined []string, name string) bool {
	prefix, isPrefix := strings.CutSuffix(name, "*")
	for _, d := range defined {
		if d == name || isPrefix && strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// docArgs cuts a documented command line at its comment, redirect or pipe.
func docArgs(line string) []string {
	var args []string
	for _, tok := range strings.Fields(line) {
		if strings.HasPrefix(tok, "#") || strings.ContainsAny(tok[:1], ">|&") || strings.HasPrefix(tok, "2>") {
			break
		}
		args = append(args, tok)
	}
	return args
}

func hasPlaceholder(args []string) bool {
	for _, a := range args {
		if a == "N" || strings.HasPrefix(a, "[") || strings.HasPrefix(a, "<") {
			return true
		}
	}
	return false
}

// parseOnly resolves args[0] to a subcommand and parses the rest under its
// flag set, without running it.
func parseOnly(args []string) error {
	for _, c := range commands {
		if c.name == args[0] {
			_, _, err := c.parse(args[1:])
			return err
		}
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// TestExperimentsE7MatchesTree: EXPERIMENTS.md's E7 table prints the
// `hyperrecover loc` code-line counts of this tree, so it must equal a
// count over the tree as it stands. A change that moves the counts fails
// here until E7 is reprinted.
func TestExperimentsE7MatchesTree(t *testing.T) {
	root := filepath.Join("..", "..")
	src, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, e7, ok := strings.Cut(string(src), "\n## E7 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no E7 section")
	}
	e7, _, _ = strings.Cut(e7, "\n## ")
	rep, err := cloc.ScanTree(os.DirFS(root), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		prefix string
		cat    cloc.Category
	}{
		{"| Normal-operation", cloc.NormalOperation},
		{"| Recovery-only", cloc.RecoveryOnly},
		{"| Substrate", cloc.Substrate},
	} {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row.prefix) + `.*\|\s*([\d,]+)\s*\|\s*$`).FindStringSubmatch(e7)
		if m == nil {
			t.Errorf("E7 has no %q row", row.prefix)
			continue
		}
		if got, want := strings.ReplaceAll(m[1], ",", ""), fmt.Sprint(rep.PerCategory[row.cat].Code); got != want {
			t.Errorf("E7 prints %s code lines for %s; the tree has %s", m[1], row.cat, want)
		}
	}
}
