#!/usr/bin/env bash
# Offline verification gate: formatting, lints, policy lint, build, tests.
#
# Everything runs with --offline — the workspace has no external
# dependencies by policy (see DESIGN.md §5), so a bare toolchain with no
# registry access must be able to pass this script end to end.
#
# Usage:
#   scripts/verify.sh               full gate
#   scripts/verify.sh --fix-allow   run only the policy lint, printing
#                                   ready-to-paste lint:allow comments
#                                   for each finding (triage mode)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix-allow" ]]; then
    exec cargo run --offline -q -p lockgran-lint -- --fix-allow
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (warnings denied)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== lockgran-lint (static analysis: lock protocol, determinism flow, policy)"
if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    # Under Actions, emit workflow commands so findings show up as
    # inline annotations on the PR diff (same exit status either way).
    cargo run --offline -q -p lockgran-lint -- --github
else
    cargo run --offline -q -p lockgran-lint
fi

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== differential property test (lock table vs ordered-map oracle, quick profile)"
# QUICK_PROP trims the seed sweep (24 → 4 seeds per shape) so the
# cross-check runs early and fast; the full sweep still runs as part of
# the workspace test pass below.
QUICK_PROP=1 cargo test --offline -q -p lockgran-lockmgr --test prop_difftable

echo "== cargo test"
cargo test --offline --workspace -q

echo "== perfbench tests (the host-time benchmark still builds against the library)"
# perfbench is a package of its own, outside the workspace, so the steps
# above never compile it: a public-API change it depends on would pass
# them and break the benchmark.
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "== determinism under parallelism (jobs = 1/2/8 byte-identical)"
cargo test --offline -q --test parallel_determinism

echo "== twophase smoke (incremental 2PL end to end: deadlocks detected, victims replayed)"
# Contended single run in the new conflict mode, then a quick extI
# figure pass (explicit vs twophase under an 80/20 hot spot). Both are
# cheap; the figure's own unit tests carry the shape assertions.
# Capture, then grep: `grep -q` exits on first match and closes the
# pipe mid-print, which the binary reports as a broken-pipe panic.
twophase_out=$(cargo run --offline -q --release --bin lockgran -- run --conflict twophase \
    --ltot 10 --ntrans 50 --maxtransize 50 --placement random --tmax 1000 --seed 7)
grep -q "deadlocks" <<<"$twophase_out" || { echo "twophase run smoke failed"; exit 1; }
cargo run --offline -q --release --bin lockgran -- extI --quick --jobs 2 > /dev/null

echo "== capacity smoke (scaled-down bench_capacity, single pass per point)"
# One iteration of each capacity point at the quick scale: proves the
# 10⁷-entity code paths (arena reuse, ln-gamma Yao routing, batch-means
# collection) still complete, independent of the timing smoke below.
LOCKGRAN_BENCH_QUICK=1 cargo bench --offline -p lockgran-bench --bench bench_capacity -- --test

echo "== bench smoke (quick scale, diff vs committed baseline)"
LOCKGRAN_BENCH_QUICK=1 LOCKGRAN_BENCH_THRESHOLD=10000 scripts/bench.sh

echo "verify: OK"
