#!/usr/bin/env bash
# Full local verification matrix: default build, ThreadSanitizer build,
# AddressSanitizer build (each with the whole ctest suite, which includes the
# repo_lint test), in separate build trees so they don't clobber each other.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_mode() {
  local name="$1" dir="$2"
  shift 2
  echo "==> [$name] configure ($dir)"
  cmake -B "$dir" -S . "$@" > /dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j "$JOBS" > /dev/null
  echo "==> [$name] ctest"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  # One-iteration kernel smoke (64k rows, all modes): exercises the morsel
  # pool and vectorized kernels under each sanitizer without full bench time.
  echo "==> [$name] bench_kernels smoke"
  SKADI_BENCH_SMOKE=1 "$dir/bench/bench_kernels" > /dev/null
  # One-iteration serde smoke (10k rows): drives the aliasing IPC
  # serialize/deserialize paths under each sanitizer (zero-copy views,
  # lifetime via refcounted owners).
  echo "==> [$name] bench_a3_format smoke"
  SKADI_BENCH_SMOKE=1 "$dir/bench/bench_a3_format" > /dev/null
  # One-iteration reactor smoke (4096 futures): drives the ready-queue,
  # timer wheel, drain shims, and end-to-end GetAsync futures under each
  # sanitizer — the cross-thread continuation handoffs are exactly what
  # TSan needs to watch.
  echo "==> [$name] bench_reactor smoke"
  SKADI_BENCH_SMOKE=1 "$dir/bench/bench_reactor" > /dev/null
  # One-iteration trace smoke (4096 posts, tracing off + on): drives span
  # recording into the per-thread rings and the context carry across
  # reactor hops under each sanitizer (the rings' relaxed-atomic slots are
  # exactly what TSan needs to certify).
  echo "==> [$name] bench_trace smoke"
  SKADI_BENCH_SMOKE=1 "$dir/bench/bench_trace" > /dev/null
  # One-iteration control-plane smoke: hammers the sharded ownership table
  # from 8 threads, the per-raylet scheduler queues (with stealing) from 4
  # submitters, and the batched push path end-to-end — the shard locks and
  # queue handoffs are exactly what TSan needs to watch.
  echo "==> [$name] bench_control_plane smoke"
  SKADI_BENCH_SMOKE=1 "$dir/bench/bench_control_plane" > /dev/null
  # Autoscaler burst: the autoscaler tick runs on the fabric reactor and
  # grows/shrinks raylet worker reactors while tasks run, under each
  # sanitizer.
  echo "==> [$name] bench_a6_control_plane autoscaler smoke"
  "$dir/bench/bench_a6_control_plane" --benchmark_filter=BM_AutoscalerBurst > /dev/null
  # The trace-plane integration test (part of ctest above) wrote a Perfetto
  # capture of the cross-node Submit->run->Get flow; require it to be one
  # connected span tree with every stage present.
  echo "==> [$name] trace capture validation"
  python3 tools/trace.py "$dir/tests/trace_plane.trace.json" \
    --require-connected \
    --require-span runtime.submit \
    --require-span scheduler.dispatch \
    --require-span raylet.run_task \
    --require-span runtime.get
}

# Whole-program analyzer, standalone, before the build matrix: fastest
# feedback on contract violations, and it emits the SARIF + inventory
# artifacts CI consumes (ctest's repo_analyze runs the selftest variant).
echo "==> [analyze] skadi-analyzer (whole tree + SARIF + inventory)"
python3 tools/analyze/skadi_analyzer.py --sarif build/analyze/findings.sarif

run_mode default  build-check
# The end-to-end benchmark builds its own tree from this checkout
# (.bench_build/); its smoke run keeps src/ API changes from silently
# breaking it.
echo "==> [default] perfbench smoke"
python3 perfbench/run.py --smoke > /dev/null
run_mode thread   build-tsan  -DSKADI_SANITIZE=thread
# Watchers and GetAsync continuations run on the publishing thread: repeat
# the failover, watcher-contract and exactly-once tests 50 times under TSan.
echo "==> [thread] watcher-contract repeats (x50)"
tools/tsan_repeat.sh build-tsan 50 > /dev/null
run_mode address  build-asan  -DSKADI_SANITIZE=address

# Wall-clock fuzz smoke on the ASan tree: seed corpus + 30 s of mutations
# against the wire decoders (ctest already did a short deterministic run;
# this is the longer soak). Any crash/overread/latch-miss fails the script.
echo "==> [address] fuzz_serde 30s smoke"
"build-asan/bench/fuzz/fuzz_make_corpus" build-asan/bench/fuzz/corpus
"build-asan/bench/fuzz/fuzz_serde" -max_total_time=30 build-asan/bench/fuzz/corpus

echo "==> all modes passed"
