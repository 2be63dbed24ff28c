#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/check.sh
#
# Runs the release build, the full test suite, clippy with warnings
# denied, and the formatting check, stopping at the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
# Static analysis v3 (DESIGN.md §6, §13): workspace call graph +
# inter-procedural summaries — determinism (LS1xx), panic paths
# (LS2xx) through helpers, wire-input taint (LS301) across calls,
# transitive hot-path allocation (LS401), and the concurrency family
# (LS501 shared state, LS502 lock order, LS503 unordered reduction);
# zero unannotated findings allowed. The JSON finding stream is
# archived for diffing across PRs, the full-workspace pass must stay
# under its 5 s wall-time budget, and a second run must reproduce
# LINT.json byte-for-byte (the analysis is deterministic by design).
echo "==> cargo run -q -p livesec-lint --release -- --json"
# Warm the per-package build first: `cargo run -p` resolves features
# per package and can recompile even after a workspace build, and the
# 5 s budget is for the *analysis*, not the compiler.
cargo build -q -p livesec-lint --release
lint_start=$(date +%s%N)
cargo run -q -p livesec-lint --release -- --json | tee LINT.json
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "    livesec-lint wall time: ${lint_elapsed_ms} ms"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
    echo "livesec-lint exceeded its 5 s budget (${lint_elapsed_ms} ms)" >&2
    exit 1
fi
test -s LINT.json
cargo run -q -p livesec-lint --release -- --json > LINT2.json
cmp LINT.json LINT2.json || {
    echo "livesec-lint output is not deterministic across runs" >&2
    exit 1
}
rm -f LINT2.json
# The last LINT.json line is the graph summary
# ({"findings":..,"files":..,"fns":..,"edges":..,"hot_fns":..});
# prepend the measured wall time and archive as the lint bench.
lint_summary=$(tail -n 1 LINT.json)
printf '{"wall_ms":%s,%s\n' "$lint_elapsed_ms" "${lint_summary#\{}" > BENCH_lint.json
test -s BENCH_lint.json
# Header-space invariant verifier (DESIGN.md §8): snapshot the
# emitted flow tables of the baseline scenario and prove the eight
# dataplane invariants (blocked-unreachable, no loops, no blackholes,
# waypoint enforcement, fast-pass freshness, no silent shadowing,
# exactly-one-shard coverage, quarantine isolation).
run cargo run -q -p livesec-verify --release -- --scenario baseline
run cargo test -q
# Every crate's own suites and proptests, the lint fixtures and the
# per-crate integration tests — the whole workspace, not just the
# root package.
run cargo test --workspace -q
# Seeded chaos soak: the campus under scheduled partitions, crashes,
# and frame corruption over fixed seeds — zero panics, clean
# health-stat invariants, byte-identical same-seed histories.
run cargo test -q --test chaos --test reconciliation
# Sharded control plane (DESIGN.md §9): the golden-trace gate — the
# default 1-shard plane reproduces the pinned single-controller history
# digests, shards 1/2/4 identical modulo shard tags — plus ring
# properties, cross-shard handoff, and mid-attack shard failover with
# a clean merged audit.
run cargo test -q --test determinism --test shard_ring --test shard_handoff --test shard_failover
# Scale-out smoke bench: 100k packet-ins partitioned over 1/2/4/8
# shards; must clear >=3x throughput at 4 shards and (re)write
# BENCH_shards.json.
run cargo bench -q -p livesec-bench --bench shard_scaling -- --smoke
test -s BENCH_shards.json
# Forwarding accountability (DESIGN.md §11): each dataplane fault kind
# (rule tamper, silent misforward, packet injection) is detected,
# localized to exactly the compromised switch, quarantined, and traffic
# re-steered — at 1 and 4 shards, honest switches never blamed.
run cargo test -q --test accountability
# Post-quarantine dataplane must audit clean, quarantine isolation
# (invariant 8) included.
run cargo run -q -p livesec-verify --release -- --scenario tamper-quarantine
# Accountability hot paths: attestation tagging + detector replay;
# (re)writes BENCH_accountability.json, every forged attestation caught.
run cargo bench -q -p livesec-bench --bench accountability -- --smoke
test -s BENCH_accountability.json
# Declarative policy (DESIGN.md §14): the .lsp compiler's own suites
# (parser recovery, shadow analysis, delta-convergence proptests) plus
# the incremental-verification agreement tests.
run cargo test -q -p livesec-policy
run cargo test -q -p livesec-verify
# Delta-path equivalence gate: applying compiled deltas mid-traffic
# must equal the wholesale recompile byte-for-byte (tables and
# filtered histories), spare untouched warm cache classes, and pass
# the scoped incremental audit on the returned cubes.
run cargo test -q --test policy_delta
# Policy end-to-end: load .lsp, run traffic, live-edit the policy,
# apply the delta script, audit incrementally.
run cargo run -q --release --example policy
# Delta-compile + incremental-audit smoke bench: the single-rule delta
# on a 1000-switch campus must clear the >=10x work-ratio floor and
# (re)write BENCH_policy.json.
run cargo bench -q -p livesec-bench --bench policy -- --smoke
test -s BENCH_policy.json
# Stateful-enforcement end-to-end: SYN flood detected by conntrack,
# source-wide drop installed at the ingress, flood stops counting —
# while a legitimate fast-passed transfer completes alongside.
run cargo run -q --release --example stateful_firewall
# Accountability end-to-end: mid-attack rule tamper -> detect,
# localize, quarantine, re-steer, then release and rejoin.
run cargo run -q --release --example accountability
# Benches, tests and examples too: their wall-clock timing goes
# through livesec_bench::clock, the one exempted module.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check

echo "==> all checks passed"
