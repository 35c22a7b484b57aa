#!/usr/bin/env bash
# Local / CI quality gate for the CO-MAP reproduction.
#
# Runs formatting, lints, and the tier-1 verification suite
# (`cargo build --release && cargo test -q`). The workspace vendors all
# dependencies under vendor/, so the whole script must work with no
# network access — CARGO_NET_OFFLINE keeps cargo from ever trying the
# registry, which in sandboxed CI would otherwise hang or fail.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (simlint runs as its workspace_is_clean test)"
cargo test -q

echo "==> perfbench: own tests + --trace 1 mirror guard (cells_observed, 2 s)"
# perfbench/ is a workspace of its own that replays the event loop
# through the public layer APIs; nothing else builds it, so an API change
# that breaks the replay would otherwise go unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
perfbench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload cells_observed --seed 1 --seconds 2 --trace 1 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$perfbench_out"; then
    echo "perfbench mirror guard failed: $perfbench_out" >&2
    exit 1
fi

echo "==> perfbench: campus digest guard (campus_mobile, 2 s)"
# The only workload whose censuses skip out-of-range neighbors (the
# hidden-terminal range cull) and whose nodes move: its jobs must still
# reproduce the pinned digests.
perfbench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload campus_mobile --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$perfbench_out"; then
    echo "perfbench campus digest guard failed: $perfbench_out" >&2
    exit 1
fi

echo "==> profiling smoke run (fig02 --quick --profile-json)"
cargo run --release -p comap-experiments --bin fig02 -- --quick \
    --profile-json target/profile_smoke.json
cargo run --release -p comap-experiments --bin profile_check -- \
    target/profile_smoke.json

echo "==> perf-regression gate (fig_scale --quick vs pinned envelope)"
cargo run --release -p comap-experiments --bin fig_scale -- --quick \
    --profile-json target/profile_fig_scale.json > /dev/null
cargo run --release -p comap-experiments --bin bench_diff -- \
    target/profile_fig_scale.json results/BENCH_envelope.json

echo "all checks passed"
