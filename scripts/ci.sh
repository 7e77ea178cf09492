#!/usr/bin/env bash
# Offline CI gate: build, tests (including the release-only goldens), a
# byte-for-byte check of every committed artifact, lints and the perf
# gate. No network access required — the workspace has no registry
# dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> examples: run each once"
# The build above only compiles them; a non-zero exit fails here. Each
# takes well under a second.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "    $name"
  "./target/release/examples/$name" > /dev/null
done

echo "==> cargo test (fast lane: kernel and memory-path crates)"
# The event-queue and FTL reference models and the SoA cache/TLB
# differential suites live here; running them first gives the quickest
# signal on the kernel and the hottest per-access structures.
cargo test -q -p astriflash-sim -p astriflash-flash -p astriflash-mem -p astriflash-os

echo "==> cargo test (debug, whole workspace)"
cargo test -q --workspace

echo "==> cargo test --release (release-only goldens included)"
cargo test -q --release --workspace

# Measurements land in target/perf-results (uploaded by the workflow);
# clear it before the first lane writes there.
perf_dir=target/perf-results
rm -rf "$perf_dir"
mkdir -p "$perf_dir"

echo "==> regen --check: every committed artifact, at 1 and 4 sweep threads"
# Rebuilds every file under results/ in memory and compares it byte for
# byte; it writes nothing and exits non-zero naming each file that
# differs or is missing. A sweep builds each dataset once at any worker
# count (DESIGN.md §18), but the worker count decides which cells run
# side by side, so pin both extremes. What it prints, each artifact's
# wall time, dataset builds and their host seconds, and the process's
# peak RSS, is kept as regen_times.threads<N>.txt (pipefail keeps its
# exit status), and the next step compares the two runs' build counts.
for threads in 1 4; do
  ASTRIFLASH_THREADS=$threads ./target/release/regen --check 2>&1 |
    tee "$perf_dir/regen_times.threads$threads.txt"
done

echo "==> regen --check: dataset builds agree at 1 and 4 threads"
# Each artifact's build count (the number before "builds") and the
# total must not depend on the worker count.
builds() {
  awk '{ for (i = 2; i <= NF; i++) if ($i == "builds") print $1, $(i - 1) }' \
    "$perf_dir/regen_times.threads$1.txt"
}
if [ -z "$(builds 1)" ] || [ "$(builds 1)" != "$(builds 4)" ]; then
  echo "dataset builds (artifact, count) differ between 1 and 4 threads:"
  diff <(builds 1) <(builds 4) || true
  exit 1
fi

echo "==> benchmark package tests (unit tests + --smoke of all five workloads)"
# benchmark/ is a cargo workspace of its own, so --workspace never
# builds it; its smoke test drives the workloads crate's public API.
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings denied)"
# A doc link to a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> trace_analyze (offline reconstruction cross-validation)"
# Rebuilds the per-phase breakdown from the committed trace alone and
# compares it against the committed in-sim histograms; any disagreement
# (or a sheared trace with dropped events) exits non-zero.
cargo run --release -q -p astriflash-analyze --bin trace_analyze

echo "==> profile_report smoke (host-side scope profiles + merged trace)"
# Per-system measured scope trees, folded stacks, and Perfetto flames
# (DESIGN.md §16). The binary parses every JSON artifact back in-process
# (the same parser as the trace lane) and exits non-zero on any failure;
# here we re-check the artifacts landed in target/harness-out and are
# non-empty.
cargo run --release -q -p astriflash-bench --bin profile_report -- --quick
out_dir=target/harness-out
for sys in astriflash os_swap flash_sync; do
  test -s "$out_dir/profile_${sys}.txt"
  test -s "$out_dir/profile_${sys}.folded"
  test -s "$out_dir/profile_${sys}.perfetto.json"
done
test -s "$out_dir/profile_trace.json"

echo "==> perf lane: benchmark runs + perf_gate"
# DESIGN.md §12. Five runs of the benchmark package at seed 1, ~17 s
# each at its default --seconds: the four steady workloads, then
# hashtable_flash with the host profiler on (--trace 1). A run that
# fails one of its own checks exits non-zero here. perf_gate then checks
# every result against the floors and the ceiling pinned in
# results/perf_baseline.json and exits non-zero on any violation,
# printing the offenders. The results stay in target/perf-results.
bench() {
  cargo run --release -q --manifest-path benchmark/Cargo.toml -- --seed 1 "$@"
}
for workload in tatp_steady hashtable_flash hashtable_dram tatp_open_telemetry; do
  bench --workload "$workload" > "$perf_dir/$workload.seed1.json"
done
bench --workload hashtable_flash --trace 1 > "$perf_dir/hashtable_flash.trace1.json"
cargo run --release -q -p astriflash-bench --bin perf_gate -- "$perf_dir"

echo "==> committed artifacts unchanged, no stray files"
# No lane above may rewrite a committed file or leave a new one under
# results/; either fails here.
stray=$(git status --porcelain -- results/)
if [ -n "$stray" ]; then
  echo "results/ changed:"
  echo "$stray"
  exit 1
fi

echo "CI green."
