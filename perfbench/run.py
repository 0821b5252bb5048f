#!/usr/bin/env python3
"""Builds and runs the Skadi end-to-end benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds Skadi's libraries and the benchmark binary from the
sources of this checkout (CMake, Skadi's default RelWithDebInfo build) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload, and prints the binary's output. Its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer
list; the script checks the names and units against that file.

The second form is the benchmark's own test: every workload in both modes
on small inputs, with every output check on. It exits 0 when all pass.
sql_analytic and spill_pipeline run here and by hand but are not in
BENCHMARK.json (see README.md): host CPU steal moves sql_analytic's figures
more than the bounds allow, and a runtime defect makes some of
spill_pipeline's chains hang.

Exit status: 0 on success, 1 when an output did not match its reference,
2 when the build or set-up failed, 3 when the result line is malformed,
4 on timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sql_dashboard", "sql_analytic", "task_actor", "spill_pipeline"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(ROOT, target), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "skadi_perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args, timeout_s):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout_s:.0f} s")
        return 4, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, trace):
    """Parses and validates the result line; returns the object or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log(f"last line is not JSON: {line[:200]!r}")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"unexpected keys {sorted(result)}")
        return None
    want = expected_metrics(trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        log(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return None
    return result


def run_one(binary, workload, seed, seconds, trace, smoke, timeout_s):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    rc, lines = run_binary(binary, args, timeout_s)
    if rc not in (0, 1) or not lines:
        return rc if rc != 0 else 3, lines, None
    result = check_result(lines[-1], trace)
    if result is None:
        return 3, lines, None
    return rc, lines, result


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.time()
            rc, _, result = run_one(binary, workload, 1, 1, trace, True, RUN_TIMEOUT_S)
            ok = rc == 0 and result is not None and result["correct"]
            summary = "" if result is None else \
                f"attempted={result['attempted']} failed={result['failed']}"
            print(f"{'PASS' if ok else 'FAIL'} {workload} trace={trace} "
                  f"({time.time() - start:.1f} s) {summary}", flush=True)
            failures += 0 if ok else 1
    print(f"{8 - failures}/8 smoke runs passed")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)

    rc, lines, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                                False, RUN_TIMEOUT_S)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        return rc
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
