#!/usr/bin/env bash
# Performance-artifact harness: writes the machine-readable BENCH_<n>.json
# artifacts tracking the performance trajectory across PRs into $OUT_DIR —
#   BENCH_1.json  compute-kernel throughput (two-build honest baseline),
#   BENCH_4.json  tape-free inference (value-only evaluator vs the tape path),
# and, from one serve_bench process over one trained model,
#   BENCH_2.json  serving throughput (engine vs naive per-request impute),
#   BENCH_3.json  growth scenario (appends streaming past the trained t_len),
#   BENCH_5.json  retention ring (bounded-memory long stream + warm restart),
#   BENCH_6.json  guard overhead (guarded vs unguarded serving),
#   BENCH_7.json  sharded read path (warm-query scaling + blocked-time probe),
#   BENCH_8.json  network front door (loopback framed TCP vs in-process),
#   BENCH_9.json  multi-model tenancy (registry routing, cold loads, isolation).
#
#   THREADS=4 OUT_DIR=. scripts/bench.sh
#
# The BENCH_<n>.json schemas and the host-comparability rules are documented
# in PERFORMANCE.md ("The BENCH_<n>.json artifacts").
#
# Two builds are measured so the kernel speedup is honest:
#   1. a baseline-codegen build (RUSTFLAGS="", i.e. plain x86-64 — exactly how
#      the seed's ikj kernel ran before this layer existed), kept in
#      target/baseline so it does not thrash the main build cache;
#   2. the repo's default native-codegen build, which runs the full harness
#      and records both the same-build speedup and the speedup against the
#      seed kernel under its own original codegen ("_shipped").
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${THREADS:-4}"
OUT_DIR="${OUT_DIR:-.}"
mkdir -p "$OUT_DIR"

echo "== phase 1: baseline-codegen build (seed's original configuration) =="
RUSTFLAGS="" CARGO_TARGET_DIR=target/baseline \
    cargo build --release --offline -p mvi-bench --bin kernel_bench
./target/baseline/release/kernel_bench \
    --quick --threads="$THREADS" --out=target/baseline_bench.json

echo "== phase 2: native-codegen build (full harness) =="
cargo build --release --offline -p mvi-bench --bin kernel_bench
./target/release/kernel_bench \
    --threads="$THREADS" --baseline=target/baseline_bench.json --out="$OUT_DIR/BENCH_1.json"

echo "== phase 3: tape-free inference harness =="
cargo build --release --offline -p mvi-bench --bin infer_bench
./target/release/infer_bench --threads="$THREADS" --out="$OUT_DIR/BENCH_4.json"

echo "== phase 4: serving harness (BENCH_2/3/5/6/7/8/9, one trained model) =="
# Asserts in-harness what makes each number mean something: flat ring
# storage, zero-recompute warm restart, real cold-load churn, no panics on
# throughput arms, zero core-lock wait for sharded warm reads, the guarded
# arm within 5% of unguarded, and a bounded victim p99 beside a hostile
# tenant. The typed-failure drills live in tests/serve_faults.rs,
# tests/net_faults.rs and tests/net_tenancy.rs.
cargo build --release --offline -p mvi-bench --bin serve_bench
./target/release/serve_bench --threads="$THREADS" --out-dir="$OUT_DIR"

echo "bench artifacts in $OUT_DIR: BENCH_{1..9}.json"
