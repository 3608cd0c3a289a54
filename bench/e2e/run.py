#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end benchmark (python3 stdlib only).

One workload:

    python3 bench/e2e/run.py --workload vm-churn --seed 1 --seconds 20 --trace 0

prints `workload metric value unit` rows and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run is traced and
the metrics are the per-layer ones.

Every workload (omit --workload):

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--runs R] [--trace 1]

runs each workload R times, interleaved, one process per run; with
--trace 1 it adds one traced run per workload and prints the tracing
overhead (traced minus median untraced op_p50_us).

On first use the repository's own CMake build is configured into
.bench_build/e2e with bench_e2e.cmake injected, and the bench_e2e target is
built from source. Result JSONs (and span dumps of traced runs) land in
--out, by default .bench_build/e2e/results. The exit status is non-zero on
any correctness failure.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["vm-churn", "fleet-maintenance", "fault-recovery",
             "large-fabric-recovery"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and returns its exit status. On
    a timeout or an interrupt the whole group is killed and reaped, so no
    compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group already ended
        proc.wait()
        raise


def build():
    """Configures the repository's own build once, with bench_e2e.cmake
    injected, then builds the one target incrementally; output goes to
    stderr so the last line of stdout stays the result."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={HERE / 'bench_e2e.cmake'}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return BUILD / "bench_e2e"


def run_once(binary, workload, seed, seconds, traced, out_dir, tag):
    """Runs one workload in its own process; returns its result JSON."""
    name = f"{workload}-s{seed}{tag}{'-trace' if traced else ''}"
    json_out = out_dir / f"{name}.json"
    if json_out.exists():
        json_out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json-out", str(json_out)]
    if traced:
        cmd += ["--trace-out", str(out_dir / f"{workload}-trace.jsonl")]
    status = call(cmd, RUN_TIMEOUT_S)
    if not json_out.exists():
        raise RuntimeError(f"{workload}: no result (exit {status})")
    result = json.loads(json_out.read_text())
    result["correct"] = result["correct"] and status == 0
    return result


def result_line(result, traced):
    metrics = result["per_layer"] if traced else result["metrics"]
    return json.dumps({"correct": result["correct"],
                       "attempted": result["ops"],
                       "failed": result["failed_ops"],
                       "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", type=Path, default=BUILD / "results")
    args = parser.parse_args()
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")

    try:
        binary = build()
        args.out.mkdir(parents=True, exist_ok=True)
        if args.workload:
            result = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace == 1, args.out, "")
            print(result_line(result, args.trace == 1), flush=True)
            return 0 if result["correct"] else 1

        ok = True
        p50 = {w: [] for w in WORKLOADS}
        for r in range(args.runs):
            for w in WORKLOADS:
                result = run_once(binary, w, args.seed, args.seconds, False,
                                  args.out, f"-r{r}")
                ok = ok and result["correct"]
                p50[w].append(result["metrics"]["op_p50_us"]["value"])
        if args.trace == 1:
            for w in WORKLOADS:
                result = run_once(binary, w, args.seed, args.seconds, True,
                                  args.out, "")
                ok = ok and result["correct"]
                traced = result["per_layer"]["trace.op_p50_us"]["value"]
                print(f"{w} tracing_overhead_us "
                      f"{traced - statistics.median(p50[w]):.6g} us")
        print("all workloads correct" if ok else "CORRECTNESS FAILURE")
        return 0 if ok else 1
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
