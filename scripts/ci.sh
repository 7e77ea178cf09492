#!/usr/bin/env bash
# Offline CI gate: build, tests (including the release-only full-scale
# goldens), and lints. No network access required — the workspace has
# no registry dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test (fast lane: memory-path crates)"
# The SoA cache/TLB differential suites live here; running them first
# gives the quickest signal on the hottest per-access structures.
cargo test -q -p astriflash-mem -p astriflash-os

echo "==> cargo test (debug, whole workspace)"
cargo test -q --workspace

echo "==> cargo test --release (full-scale goldens included)"
cargo test -q --release --workspace

echo "==> fig9 at full scale, byte-identical at 1 and 4 sweep threads"
# Cells of one workload share a dataset build only while they overlap
# in time (DESIGN.md §18), and the worker count decides which overlap.
# Pin both extremes against the committed figure and CSV.
fig9_tmp=$(mktemp -d)
cp results/csv/fig9.csv "$fig9_tmp/committed.csv"
for threads in 1 4; do
  ASTRIFLASH_THREADS=$threads ./target/release/fig9 > "$fig9_tmp/fig9.txt"
  diff results/fig9.txt "$fig9_tmp/fig9.txt"
  diff "$fig9_tmp/committed.csv" results/csv/fig9.csv
done
rm -r "$fig9_tmp"

echo "==> benchmark package tests (unit tests + --smoke of all five workloads)"
# benchmark/ is a cargo workspace of its own, so --workspace never
# builds it; its smoke test drives the workloads crate's public API.
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> trace_run smoke (offline Perfetto/CSV export)"
cargo run --release -q -p astriflash-bench --bin trace_run -- --quick
# trace_run parses its JSON back (astriflash_trace::json, the workspace's
# one RFC 8259 parser) and exits non-zero on failure; here we only
# re-check the artifacts landed and are non-empty.
test -s results/trace_run.json
test -s results/trace_run_gauges.csv
test -s results/trace_run_phases.csv

echo "==> trace_analyze (offline reconstruction cross-validation)"
# Rebuilds the per-phase breakdown from the exported trace alone and
# compares it against the in-sim histograms; any disagreement (or a
# sheared trace with dropped events) exits non-zero.
cargo run --release -q -p astriflash-analyze --bin trace_analyze

echo "==> telemetry_report smoke (windowed tail-latency/SLO + flash-health timelines)"
# Runs the three-system open-loop comparison at reduced scale with the
# windowed-telemetry layer attached (DESIGN.md §13). The binary itself
# exits non-zero if any window cap was exceeded (dropped observations
# mean a truncated timeline) or the exported counter-track JSON does not
# parse; here we re-check the artifacts landed and are non-empty.
cargo run --release -q -p astriflash-bench --bin telemetry_report -- --quick
test -s results/telemetry.csv
test -s results/telemetry_p99_timeline.csv
test -s results/telemetry_p99_timeline.txt
test -s results/telemetry_flash_health.csv
test -s results/telemetry_flash_health.txt
test -s results/telemetry_trace.json

echo "==> latency_breakdown at full scale (per-phase miss anatomy)"
# The committed artifacts are full scale, and the run takes well under a
# second, so regenerate them and diff against the committed bytes.
lb_tmp=$(mktemp -d)
cp results/latency_breakdown.txt results/latency_breakdown.csv "$lb_tmp/"
cargo run --release -q -p astriflash-bench --bin latency_breakdown > /dev/null
diff "$lb_tmp/latency_breakdown.txt" results/latency_breakdown.txt
diff "$lb_tmp/latency_breakdown.csv" results/latency_breakdown.csv
rm -r "$lb_tmp"

echo "==> profile_report smoke (host-side scope profiles + merged trace)"
# Per-system measured scope trees, folded stacks, and Perfetto flames
# (DESIGN.md §16). The binary parses every JSON artifact back in-process
# (the same parser as the trace lane) and exits non-zero on any failure;
# here we re-check the artifacts landed and are non-empty.
cargo run --release -q -p astriflash-bench --bin profile_report -- --quick
for sys in astriflash os_swap flash_sync; do
  test -s "results/profile_${sys}.txt"
  test -s "results/profile_${sys}.folded"
  test -s "results/profile_${sys}.perfetto.json"
done
test -s results/profile_trace.json

echo "==> perf lane: benchmark runs + perf_gate"
# DESIGN.md §12. Five runs of the benchmark package at seed 1, ~17 s
# each at its default --seconds: the four steady workloads, then
# hashtable_flash with the host profiler on (--trace 1). A run that
# fails one of its own checks exits non-zero here. perf_gate then checks
# every result against the floors and the ceiling pinned in
# results/perf_baseline.json and exits non-zero on any violation,
# printing the offenders. The results stay in target/perf-results.
perf_dir=target/perf-results
rm -rf "$perf_dir"
mkdir -p "$perf_dir"
bench() {
  cargo run --release -q --manifest-path benchmark/Cargo.toml -- --seed 1 "$@"
}
for workload in tatp_steady hashtable_flash hashtable_dram tatp_open_telemetry; do
  bench --workload "$workload" > "$perf_dir/$workload.seed1.json"
done
bench --workload hashtable_flash --trace 1 > "$perf_dir/hashtable_flash.trace1.json"
cargo run --release -q -p astriflash-bench --bin perf_gate -- "$perf_dir"

echo "==> committed artifacts unchanged"
# Every lane above that writes under results/ regenerates committed
# files byte for byte; one that silently rewrote an artifact fails here.
git diff --exit-code -- results/

echo "CI green."
