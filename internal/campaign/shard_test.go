package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nilihype/internal/core"
	"nilihype/internal/inject"
)

// jsonSpawn is the in-process analogue of the CLI's subprocess spawn: the
// spec and the summary both cross a real JSON boundary through the real
// worker body, so the equivalence tests cover the whole wire protocol —
// only the fork/exec plumbing is elided (the CI smoke test covers that).
func jsonSpawn(_ context.Context, spec ShardSpec) (Summary, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return Summary{}, err
	}
	var out bytes.Buffer
	if err := RunShardWorker(bytes.NewReader(specJSON), &out); err != nil {
		return Summary{}, err
	}
	return DecodeShardSummary(&out, spec.Index)
}

func TestPlanShardsPartitionsSeedSpace(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 10, SeedBase: 50}
	for _, n := range []int{1, 2, 3, 4, 10, 25} {
		specs := PlanShards(c, n)
		wantShards := n
		if wantShards > c.Runs {
			wantShards = c.Runs
		}
		if len(specs) != wantShards {
			t.Fatalf("n=%d: got %d specs, want %d", n, len(specs), wantShards)
		}
		// The shards' seed ranges must tile SeedBase+1..SeedBase+Runs
		// contiguously and in order.
		next := c.SeedBase
		total := 0
		for i, sp := range specs {
			if sp.Index != i || sp.Shards != wantShards {
				t.Fatalf("n=%d shard %d: identity = (%d of %d)", n, i, sp.Index, sp.Shards)
			}
			if sp.Runs <= 0 {
				t.Fatalf("n=%d shard %d: empty shard", n, i)
			}
			if sp.SeedBase != next {
				t.Fatalf("n=%d shard %d: SeedBase = %d, want %d", n, i, sp.SeedBase, next)
			}
			next += uint64(sp.Runs)
			total += sp.Runs
		}
		if total != c.Runs {
			t.Fatalf("n=%d: shards cover %d runs, want %d", n, total, c.Runs)
		}
	}
	if specs := PlanShards(Campaign{Runs: 0}, 4); specs != nil {
		t.Fatalf("zero-run campaign planned %d shards", len(specs))
	}
}

// TestShardedEquivalence is the tentpole guarantee: -shards 1, -shards 4
// and the in-process executor produce bit-identical Summaries — including
// the phase-latency histograms' quantiles — for the same campaign.
func TestShardedEquivalence(t *testing.T) {
	c := Campaign{
		Base:        fastCfg(inject.Register, core.Microreset),
		Runs:        8,
		Parallelism: 2,
		SeedBase:    7,
	}
	inProc := c.Execute()

	for _, n := range []int{1, 4} {
		sharded, statuses, err := ExecuteSharded(c, n, ShardOptions{Spawn: jsonSpawn})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(statuses) != n {
			t.Fatalf("shards=%d: %d statuses", n, len(statuses))
		}
		if !reflect.DeepEqual(inProc, sharded) {
			t.Fatalf("shards=%d summary differs from in-process:\n in-proc: %+v\n sharded: %+v",
				n, inProc, sharded)
		}
		// DeepEqual already covers these; assert the report-facing
		// quantiles explicitly so a histogram regression reads as what
		// it is.
		for name, h := range inProc.PhaseHists {
			g := sharded.PhaseHists[name]
			if g == nil {
				t.Fatalf("shards=%d: phase %q missing", n, name)
			}
			if h.Quantile(0.50) != g.Quantile(0.50) || h.Quantile(0.99) != g.Quantile(0.99) || h.Max != g.Max {
				t.Fatalf("shards=%d: phase %q quantiles differ", n, name)
			}
		}
	}
}

// TestShardWorkerRoundTrip pins the wire protocol: a spec in, an
// index-tagged summary out, exact through JSON.
func TestShardWorkerRoundTrip(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 2, SeedBase: 3}
	spec := PlanShards(c, 1)[0]
	sc := spec.Campaign()
	want := sc.Execute()

	got, err := jsonSpawn(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("summary changed across the wire:\n want: %+v\n got:  %+v", want, got)
	}
}

func TestShardWorkerRejectsBadSpec(t *testing.T) {
	if err := RunShardWorker(strings.NewReader(`{"Runs": `), &bytes.Buffer{}); err == nil {
		t.Fatal("truncated spec accepted")
	}
}

func TestDecodeShardSummaryFaults(t *testing.T) {
	// Truncated output: worker died mid-write.
	var out bytes.Buffer
	spec := ShardSpec{Index: 0, Shards: 1, Base: fastCfg(inject.Failstop, core.Microreset), Runs: 1}
	specJSON, _ := json.Marshal(spec)
	if err := RunShardWorker(bytes.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	trunc := out.Bytes()[:out.Len()/2]
	if _, err := DecodeShardSummary(bytes.NewReader(trunc), 0); err == nil {
		t.Fatal("truncated summary accepted")
	}
	// Crossed wires: an envelope answering a different shard.
	if _, err := DecodeShardSummary(bytes.NewReader(out.Bytes()), 3); err == nil {
		t.Fatal("mislabeled summary accepted")
	}
}

// TestShardTransientFailureRetried checks the one-respawn policy: a worker
// that crashes once is retried and the campaign completes clean.
func TestShardTransientFailureRetried(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 4, SeedBase: 11}
	want := c.Execute()

	var calls atomic.Int32
	flaky := func(ctx context.Context, spec ShardSpec) (Summary, error) {
		if spec.Index == 1 && calls.Add(1) == 1 {
			return Summary{}, errors.New("exit status 2")
		}
		return jsonSpawn(ctx, spec)
	}
	var done []ShardStatus
	got, _, err := ExecuteSharded(c, 2, ShardOptions{
		Spawn:       flaky,
		OnShardDone: func(st ShardStatus) { done = append(done, st) },
	})
	if err != nil {
		t.Fatalf("retry did not save the campaign: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("summary differs after respawn:\n want: %+v\n got:  %+v", want, got)
	}
	retried := false
	for _, st := range done {
		if st.Index == 1 && st.Attempts == 2 && st.Err == "" {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("shard 1 not respawned cleanly: %+v", done)
	}
}

// TestShardPermanentFailureIsLoud checks a shard that keeps dying: the
// error names it, the statuses record it, and the summary still merges the
// survivors deterministically.
func TestShardPermanentFailureIsLoud(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 4, SeedBase: 11}
	specs := PlanShards(c, 2)
	sc := specs[0].Campaign()
	survivor := sc.Execute()

	broken := func(ctx context.Context, spec ShardSpec) (Summary, error) {
		if spec.Index == 1 {
			return Summary{}, errors.New("exit status 2")
		}
		return jsonSpawn(ctx, spec)
	}
	got, statuses, err := ExecuteSharded(c, 2, ShardOptions{Spawn: broken})
	if err == nil {
		t.Fatal("permanent shard failure reported no error")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not name the failed shard: %v", err)
	}
	if statuses[1].Err == "" || statuses[1].Attempts != 1+DefaultShardRetries {
		t.Fatalf("shard 1 status = %+v", statuses[1])
	}
	if got.Runs != survivor.Runs {
		t.Fatalf("merged %d runs, want the surviving shard's %d", got.Runs, survivor.Runs)
	}
	// The survivor's contribution must be exactly its standalone summary.
	survivor.Config = c.Base
	if !reflect.DeepEqual(survivor, got) {
		t.Fatalf("survivor merge not deterministic:\n want: %+v\n got:  %+v", survivor, got)
	}
}

// TestShardHangKilledAtDeadline checks the per-shard deadline: a worker
// that never answers is killed via its context, reported, and NOT
// respawned — the shard's work does not shrink on retry, so an identical
// fresh worker would only burn another full Timeout reaching the same
// kill. Retries stay at the default to prove deadline expiry is terminal
// on its own.
func TestShardHangKilledAtDeadline(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 2, SeedBase: 11}
	hang := func(ctx context.Context, spec ShardSpec) (Summary, error) {
		<-ctx.Done()
		return Summary{}, fmt.Errorf("worker killed: %w", ctx.Err())
	}
	start := time.Now()
	_, statuses, err := ExecuteSharded(c, 2, ShardOptions{
		Spawn:   hang,
		Timeout: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("hung shards reported no error")
	}
	for _, st := range statuses {
		if !strings.Contains(st.Err, "deadline") {
			t.Fatalf("shard %d error %q does not mention the deadline", st.Index, st.Err)
		}
		if st.Attempts != 1 {
			t.Fatalf("shard %d killed at its deadline was respawned (%d attempts); deadline expiry must be terminal", st.Index, st.Attempts)
		}
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("deadline did not bound the hang (%v)", wall)
	}
}

// TestShardDeadlineTerminalCrashRetried pins the retry policy's split in
// one campaign: a shard that hangs to its deadline consumes exactly one
// attempt, while a shard that crashes is respawned and completes — the
// deadline fix must not take crash retries down with it.
func TestShardDeadlineTerminalCrashRetried(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 4, SeedBase: 11}
	var calls atomic.Int32
	spawn := func(ctx context.Context, spec ShardSpec) (Summary, error) {
		if spec.Index == 0 {
			<-ctx.Done()
			return Summary{}, fmt.Errorf("worker killed: %w", ctx.Err())
		}
		if calls.Add(1) == 1 {
			return Summary{}, errors.New("exit status 2")
		}
		return jsonSpawn(ctx, spec)
	}
	_, statuses, err := ExecuteSharded(c, 2, ShardOptions{
		Spawn:   spawn,
		Timeout: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("hung shard reported no error")
	}
	if statuses[0].Attempts != 1 || !strings.Contains(statuses[0].Err, "deadline") {
		t.Fatalf("deadline shard status = %+v, want 1 terminal attempt", statuses[0])
	}
	if statuses[1].Attempts != 2 || statuses[1].Err != "" {
		t.Fatalf("crashed shard status = %+v, want clean completion on attempt 2", statuses[1])
	}
}

// TestPlanShardsProperty sweeps arbitrary (Runs, n) pairs — n greater
// than Runs, Runs of zero, wildly uneven splits — and checks the
// partition invariants: every plan tiles seeds SeedBase+1..SeedBase+Runs
// contiguously with no overlap and no empty shard, and carries the
// campaign fields through unchanged.
func TestPlanShardsProperty(t *testing.T) {
	base := fastCfg(inject.Failstop, core.Microreset)
	for _, runs := range []int{0, 1, 2, 3, 7, 10, 16, 97} {
		for _, n := range []int{-3, 0, 1, 2, 3, 5, 8, 31, 100} {
			c := Campaign{Base: base, Runs: runs, Parallelism: 3, SeedBase: uint64(1000 * (runs + 1))}
			specs := PlanShards(c, n)
			if runs <= 0 {
				if specs != nil {
					t.Fatalf("runs=%d n=%d: planned %d shards for empty campaign", runs, n, len(specs))
				}
				continue
			}
			want := n
			if want < 1 {
				want = 1
			}
			if want > runs {
				want = runs
			}
			if len(specs) != want {
				t.Fatalf("runs=%d n=%d: %d shards, want %d", runs, n, len(specs), want)
			}
			next := c.SeedBase
			total := 0
			for i, sp := range specs {
				if sp.Index != i || sp.Shards != want {
					t.Fatalf("runs=%d n=%d shard %d: identity (%d of %d)", runs, n, i, sp.Index, sp.Shards)
				}
				if sp.Runs <= 0 {
					t.Fatalf("runs=%d n=%d shard %d: empty", runs, n, i)
				}
				// Uneven remainders go to earlier shards; sizes may differ
				// by at most one and never increase.
				if i > 0 && sp.Runs > specs[i-1].Runs {
					t.Fatalf("runs=%d n=%d shard %d: %d runs after %d", runs, n, i, sp.Runs, specs[i-1].Runs)
				}
				if sp.SeedBase != next {
					t.Fatalf("runs=%d n=%d shard %d: SeedBase %d, want %d (gap or overlap)", runs, n, i, sp.SeedBase, next)
				}
				if sp.Parallelism != c.Parallelism || !reflect.DeepEqual(sp.Base, c.Base) {
					t.Fatalf("runs=%d n=%d shard %d: campaign fields mutated", runs, n, i)
				}
				next += uint64(sp.Runs)
				total += sp.Runs
			}
			if total != runs {
				t.Fatalf("runs=%d n=%d: shards cover %d runs", runs, n, total)
			}
		}
	}
}

// TestUnevenShardMergeMatchesExecute executes an uneven split (7 runs
// over 3 shards: 3+2+2) through the real wire protocol and checks the
// merged Summary is bit-identical to the unsharded Execute.
func TestUnevenShardMergeMatchesExecute(t *testing.T) {
	c := Campaign{Base: fastCfg(inject.Failstop, core.Microreset), Runs: 7, Parallelism: 2, SeedBase: 23}
	want := c.Execute()
	got, statuses, err := ExecuteSharded(c, 3, ShardOptions{Spawn: jsonSpawn})
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 3 {
		t.Fatalf("%d statuses, want 3", len(statuses))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("uneven shard merge differs from Execute:\n want: %+v\n got:  %+v", want, got)
	}
}
