#!/usr/bin/env sh
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. CI and pre-merge checks run exactly this.
set -eu
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# The pinned benchmark package builds against the engine's crates by
# path: its own tests (every workload at a tiny scale) catch an engine
# API change that would break the benchmark.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

# The parallel executor must stay bit-identical to the sequential
# pipeline under optimized codegen, where data races and merge-order
# bugs actually surface.
cargo test --release -q --test parallel_equivalence

# MVCC snapshot isolation under real concurrency: writers toggling
# multi-quad edge shapes in all three encodings while readers run the
# paper's query families against pinned snapshots. Release mode only —
# torn reads and publish races need optimized codegen to surface.
cargo test --release -q --test concurrent_snapshots

# The vectorized columnar pipeline must stay bit-identical to the
# row-at-a-time reference pipeline (EQ1-EQ5 x threads x encodings x
# batch sizes, plus aggregates/traversal/triangles and EXPLAIN ANALYZE
# tally parity) under optimized codegen.
cargo test --release -q --test vectorized_equivalence

# Bench harness smoke run: every section (including the PR2
# parallel/plan-cache artifact, the PR3 snapshot-isolated read scaling
# artifact, the PR4 operator-profile artifact, the PR8 vectorized vs
# row artifact, the PR9 flight-recorder/system-view artifact, and the
# PR10 cost-based vs greedy planning artifact with its ride-along
# result-equivalence sweep) must complete on a small fixture.
cargo run --release -q --bin repro -- --scale 0.01

# Telemetry overhead guard: the EQ1-EQ5 batch with engine counters
# enabled must cost at most 5% more wall time than with them disabled
# (best-of-5 alternating rounds; exits non-zero past the budget).
cargo run --release -q --bin repro -- --scale 0.01 overhead

# Resource-governor stress: bounded-time cancellation across thread
# counts, memory-budget aborts, 16-client admission shedding, and the
# fsync-storm read-only degradation + recovery path. Release mode so the
# 50ms cancellation-latency bound holds on slow machines.
cargo test --release -q --test resource_governor

# Resource-governor overhead guard: the EQ1-EQ5 batch under full
# governance (admission permit, cancel token, memory budget, deadline)
# must cost at most 5% more wall time than ungoverned execution.
cargo run --release -q --bin repro -- --scale 0.01 governor

# Vectorized-pipeline guard: the default vectorized executor must never
# be more than 5% slower than the row pipeline on any EQ1-EQ5 query
# (per-query best-of-5 alternating rounds; exits non-zero past the
# budget).
cargo run --release -q --bin repro -- --scale 0.01 vecguard

# Flight-recorder overhead guard: the recorder is on by default, so the
# EQ1-EQ5 batch with it recording must cost at most 5% more wall time
# than with it off (best-of-5 paired rounds; exits non-zero past the
# budget).
cargo run --release -q --bin repro -- --scale 0.01 flightguard

# Cost-based-plan guard (opt-in: PLANGUARD=1 ./scripts/check.sh): the
# cost-based optimizer's plans must finish within 5% of the greedy
# heuristic's on every EQ1-EQ5 query (per-query best-of-9 paired
# rounds; exits non-zero past the budget). Opt-in because per-plan
# wall-time ratios on the tiny check fixture are noisier than the
# in-process overhead guards above; the equivalence sweep in
# `repro pr10` (part of `all`) still asserts result correctness.
if [ "${PLANGUARD:-0}" = "1" ]; then
    cargo run --release -q --bin repro -- --scale 0.01 planguard
fi
