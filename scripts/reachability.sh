#!/usr/bin/env bash
# Reachability gate: run every command the experiments and CI run, with
# coverage on, and fail unless the internal/ functions none of them
# executes are exactly the ones listed in scripts/reachability.allow.
#
#   scripts/reachability.sh            # from the repository root
#
# The CLI and the benchmark are built with -cover -coverpkg=./..., every
# command below runs with GOCOVERDIR set, and `go tool covdata func` gives
# the per-function reading. A function at 0 % that is not allowlisted
# fails the gate (delete it, move it into a _test.go file, or allowlist it
# with a reason); so does an allowlisted function that is now reached or
# no longer exists, so the list cannot go stale. The commands double as
# the CLI smoke tests: each must exit 0, and the grep assertions must hold.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export GOCOVERDIR=$work/cov
mkdir -p "$GOCOVERDIR"

go build -cover -coverpkg=./... -o "$work/hyperrecover" ./cmd/hyperrecover
go build -cover -coverpkg=./... -o "$work/benchmark" ./benchmark
hr() { "$work/hyperrecover" "$@"; }
step() { echo "reachability: $*" >&2; }

# The CLI smokes, with their assertions.
step "CLI smokes"
hr campaign -runs 24 -duration 2s > /dev/null
hr campaign -fault-matrix -runs 6 -duration 2s > /dev/null
hr hybrid -runs-per-fault 5 -memory 1024 -duration 2s > /dev/null
hr audit -runs-per-fault 5 -memory 1024 -duration 2s > /dev/null
hr slo -users 1000000 -runs 5 -duration 2s > /dev/null
# IO-APIC route corruption under plain microreset leaves routes lost:
# seed 3 in the first 10 must classify as device-route-loss.
# Outputs go to files before grep, so an early grep exit cannot SIGPIPE
# the writer.
hr postmortem -fault ioapic -runs 10 -bundles 1 > "$work/out"
grep -q 'device-route-loss' "$work/out"
grep -q 'root cause: device-route-loss' "$work/out"
hr postmortem -fault privvm-crash -mechanism hybrid -runs 5 -bundles 0 > "$work/out"
grep -q 'privvm-lost' "$work/out"
# Every code-fault failure names a cause: a post-recovery walk into a
# corrupted heap free list (seed 164) is static-state reuse, not residue.
# At 400 runs this campaign also reaches rare latent-corruption classes;
# the reading includes its coverage directory.
mkdir -p "$work/cov-pm"
GOCOVERDIR=$work/cov-pm hr postmortem -fault code -mechanism nilihype -runs 400 -bundles 0 > "$work/out"
# set -e ignores a negated command's status, hence the explicit exit.
! grep -q 'other-hypervisor-failure' "$work/out" || exit 1
hr postmortem -fault ioapic -runs 5 -bundles 1 -format json > "$work/out"
python3 -m json.tool "$work/out" > /dev/null
# The forensic loop: the bundle's seed replays under trace.
hr trace -seed 3 -fault ioapic -setup 3appvm -duration 2s -logging -format text 2> "$work/out" > /dev/null
grep -q 'root-cause="device-route-loss"' "$work/out"

# Every command EXPERIMENTS.md names, at CI size.
step "EXPERIMENTS.md commands"
hr ladder -runs 6 -duration 2s > /dev/null
hr campaign -all -runs 6 -duration 2s > /dev/null
for ft in register code; do
	hr campaign -fault "$ft" -runs 12 -duration 2s > /dev/null
done
hr campaign -hvm -runs 6 -duration 2s > /dev/null
hr campaign -mechanism checkpoint -runs 6 -duration 2s > /dev/null
hr campaign -repair-cpus 4 -runs 6 -duration 2s > /dev/null
hr latency > /dev/null
hr latency -mechanism rehype > /dev/null
# The simulated page-frame scan follows memory size, however little of
# the frame table the host stores: pin Table III's 8 GB figure, the 64 GB
# one with 8 scan CPUs, and the §VII-B sweep's end points.
hr latency -mechanism nilihype -sweep > "$work/out"
grep -Eq '^8192 +22\.0 ' "$work/out"
grep -Eq '^65536 +169\.0 ' "$work/out"
hr latency -memory 65536 -scan-cpus 8 > "$work/out"
grep -Eq 'Total: +22\.4ms' "$work/out"
hr overhead > /dev/null
hr hybrid -runs-per-fault 5 -duration 2s > /dev/null
hr audit -runs-per-fault 5 -duration 2s > /dev/null
hr slo -users 1000000 -runs 5 -duration 2s -timeout 300ms > /dev/null
hr loc > /dev/null
hr report -runs 2 -users 1000 > "$work/out"
python3 -m json.tool "$work/out" > /dev/null

# The output formats the subcommands offer.
step "output formats"
for f in markdown csv json; do
	hr latency -format "$f" > /dev/null
	hr overhead -format "$f" > /dev/null
	hr hybrid -runs-per-fault 2 -memory 1024 -duration 1s -format "$f" > /dev/null
	hr audit -runs-per-fault 2 -memory 1024 -duration 1s -format "$f" > /dev/null
done
hr trace -format chrome > /dev/null 2>&1
hr trace -adversarial -find-failed 64 > /dev/null 2>&1

step "benchmark -quick, untraced and traced"
"$work/benchmark" -quick > /dev/null
"$work/benchmark" -quick -trace 1 > /dev/null

step "reading"
# covdata prints "nilihype/internal/hv/hv.go:42:<tabs>Type.Method<tabs>0.0%";
# the gate keys each function as "internal/hv.Type.Method".
go tool covdata func -i "$GOCOVERDIR,$work/cov-pm" |
	awk -F'\t+' '$1 ~ /^nilihype\/internal\// && $NF == "0.0%" {
		sub(/^nilihype\//, "", $1); sub(/\/[^\/]*$/, "", $1); print $1 "." $2 }' |
	sort > "$work/zero.txt"
# Allowlist lines are "<function> <reason>"; blank lines and # comments skip.
awk '!/^[[:space:]]*(#|$)/ { print $1 }' scripts/reachability.allow | sort > "$work/allow.txt"
echo "reachability: $(wc -l < "$work/zero.txt") internal/ functions at 0 %," \
	"$(wc -l < "$work/allow.txt") allowlisted" >&2
if ! diff -u --label allowlisted --label unreached "$work/allow.txt" "$work/zero.txt" >&2; then
	cat >&2 <<-'EOF'
	reachability: the zero-reach set differs from scripts/reachability.allow.
	  '+' lines: no experiment executes this function. Delete it, move it
	             into a _test.go file, or allowlist it with a reason.
	  '-' lines: allowlisted but now reached or gone. Drop the entry.
	EOF
	exit 1
fi
