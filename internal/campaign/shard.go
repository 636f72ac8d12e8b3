package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Multi-process sharding: a campaign is split into contiguous seed-range
// shards, each executed by a worker process (the campaign CLI re-execs
// itself in a hidden worker mode), and the per-shard Summaries are merged
// in shard-index order. Because every Summary field is an exact-integer
// counter with a commutative, associative merge — and the worker protocol
// round-trips those integers through JSON losslessly — the merged Summary
// is bit-identical to a single-process Execute over the same seed range,
// whatever the shard count.
//
// The parent/worker split exists for throughput, not semantics: a single
// Go process tops out on GC and scheduler coordination long before a
// multi-core box does, so campaigns shard across processes the same way
// they already shard across worker goroutines within one.

// ShardSpec is the work order for one campaign shard: the campaign fields
// that survive process boundaries (OnResult, being a function, does not)
// plus the shard's identity. It is the JSON message the parent writes to a
// worker's stdin.
type ShardSpec struct {
	// Index is this shard's position (0-based); Shards is the total.
	Index  int
	Shards int

	Base        RunConfig
	Runs        int
	Parallelism int
	SeedBase    uint64
}

// Campaign returns the executable campaign this spec describes.
func (sp ShardSpec) Campaign() Campaign {
	return Campaign{
		Base:        sp.Base,
		Runs:        sp.Runs,
		Parallelism: sp.Parallelism,
		SeedBase:    sp.SeedBase,
	}
}

// PlanShards partitions c into n contiguous shards. Global run i (0-based)
// uses seed c.SeedBase+i+1; shard k receives a contiguous block of that
// sequence via its own SeedBase offset, so the shards jointly cover
// exactly the single-process seed set with no overlap. Earlier shards take
// the remainder when the split is uneven. Shards beyond the run count are
// dropped (never emitted empty).
func PlanShards(c Campaign, n int) []ShardSpec {
	if n < 1 {
		n = 1
	}
	if n > c.Runs {
		n = c.Runs
	}
	if c.Runs <= 0 {
		return nil
	}
	specs := make([]ShardSpec, 0, n)
	per, rem := c.Runs/n, c.Runs%n
	start := 0
	for k := 0; k < n; k++ {
		runs := per
		if k < rem {
			runs++
		}
		specs = append(specs, ShardSpec{
			Index:       k,
			Shards:      n,
			Base:        c.Base,
			Runs:        runs,
			Parallelism: c.Parallelism,
			SeedBase:    c.SeedBase + uint64(start),
		})
		start += runs
	}
	return specs
}

// shardEnvelope is the worker→parent result message: the shard's Summary
// tagged with its index so the parent can reject a crossed wire.
type shardEnvelope struct {
	Index   int     `json:"index"`
	Summary Summary `json:"summary"`
}

// RunShardWorker is the worker-process body: decode a ShardSpec from in,
// execute it, and write the result envelope to out. The campaign CLI's
// hidden -shard-worker mode is exactly this over stdin/stdout.
func RunShardWorker(in io.Reader, out io.Writer) error {
	var spec ShardSpec
	if err := json.NewDecoder(in).Decode(&spec); err != nil {
		return fmt.Errorf("shard worker: decode spec: %w", err)
	}
	c := spec.Campaign()
	sum := c.Execute()
	if err := json.NewEncoder(out).Encode(shardEnvelope{Index: spec.Index, Summary: sum}); err != nil {
		return fmt.Errorf("shard worker: encode summary: %w", err)
	}
	return nil
}

// DecodeShardSummary parses a worker's output stream and returns the
// Summary, verifying the envelope answers the expected shard. A truncated
// or malformed stream (worker crashed mid-write) is an error, never a
// silent partial merge.
func DecodeShardSummary(r io.Reader, wantIndex int) (Summary, error) {
	var env shardEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return Summary{}, fmt.Errorf("shard %d: decode summary: %w", wantIndex, err)
	}
	if env.Index != wantIndex {
		return Summary{}, fmt.Errorf("shard %d: summary labeled for shard %d", wantIndex, env.Index)
	}
	return env.Summary, nil
}

// SpawnFunc launches one shard worker and returns its Summary. The
// subprocess implementation lives in the CLI (it needs os.Executable); the
// indirection keeps the driver testable with in-process and misbehaving
// fakes. Implementations must honor ctx cancellation — that is how the
// driver enforces the per-shard deadline on a hung worker.
type SpawnFunc func(ctx context.Context, spec ShardSpec) (Summary, error)

// ShardStatus reports one shard's fate.
type ShardStatus struct {
	Index    int
	Runs     int
	Attempts int    // spawn attempts consumed (1 = clean first try)
	Err      string // terminal error; empty on success
}

// ShardOptions configures ExecuteSharded.
type ShardOptions struct {
	// Spawn launches a worker (required).
	Spawn SpawnFunc
	// Timeout bounds each spawn attempt (0 = unbounded).
	Timeout time.Duration
	// Retries is how many times a failed shard is respawned (a fresh
	// worker over the same spec; the default 1 tolerates one transient
	// crash without doubling a healthy campaign's cost). Negative
	// disables retry.
	Retries int
	// OnShardDone, if non-nil, observes each shard's terminal status in
	// completion order; calls are serialized.
	OnShardDone func(ShardStatus)
}

// DefaultShardRetries is ShardOptions.Retries' zero-value meaning.
const DefaultShardRetries = 1

// ExecuteSharded plans c into n shards, spawns a worker per shard
// concurrently, and merges the per-shard Summaries in shard-index order —
// deterministic, and bit-identical to c.Execute() when every shard
// survives. A shard whose spawn fails (crash, malformed output, deadline)
// is retried per the options; shards that still fail are reported in the
// statuses and in the returned error, and the Summary merges the
// survivors only — callers get a loud signal plus the best available data,
// never a silently short count.
func ExecuteSharded(c Campaign, n int, opt ShardOptions) (Summary, []ShardStatus, error) {
	specs := PlanShards(c, n)
	merged := Summary{Config: c.Base,
		FailReasons: make(map[string]int), SuccessByAttempt: make(map[int]int)}
	if len(specs) == 0 {
		return merged, nil, nil
	}
	retries := opt.Retries
	if retries == 0 {
		retries = DefaultShardRetries
	} else if retries < 0 {
		retries = 0
	}

	sums := make([]Summary, len(specs))
	ok := make([]bool, len(specs))
	statuses := make([]ShardStatus, len(specs))
	var mu sync.Mutex // serializes OnShardDone
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int, spec ShardSpec) {
			defer wg.Done()
			var lastErr error
			attempts := 0
			for attempts <= retries {
				attempts++
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if opt.Timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
				}
				sum, err := opt.Spawn(ctx, spec)
				expired := ctx.Err() == context.DeadlineExceeded
				cancel()
				if err == nil {
					sums[i], ok[i], lastErr = sum, true, nil
					break
				}
				lastErr = err
				if expired {
					// Deadline expiry is terminal, not transient: the shard's
					// work does not shrink on a respawn, so an identical fresh
					// worker would burn another full Timeout reaching the same
					// kill. Retries exist for crashes and protocol faults.
					break
				}
			}
			st := ShardStatus{Index: spec.Index, Runs: spec.Runs, Attempts: attempts}
			if lastErr != nil {
				st.Err = lastErr.Error()
			}
			statuses[i] = st
			if opt.OnShardDone != nil {
				mu.Lock()
				opt.OnShardDone(st)
				mu.Unlock()
			}
		}(i, specs[i])
	}
	wg.Wait()

	var failed []int
	for i := range specs {
		if !ok[i] {
			failed = append(failed, specs[i].Index)
			continue
		}
		merged.Runs += sums[i].Runs
		merged.merge(&sums[i])
	}
	if len(failed) > 0 {
		return merged, statuses, fmt.Errorf(
			"campaign: %d of %d shard(s) failed (first: shard %d: %s); summary covers %d of %d runs",
			len(failed), len(specs), failed[0], statuses[failed[0]].Err, merged.Runs, c.Runs)
	}
	return merged, statuses, nil
}
