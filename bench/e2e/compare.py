#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against the benchmark's bounds.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds result JSONs written by run.py; traced runs are
skipped. For every (workload, end-to-end metric) pair the script prints
each side's median and quartiles and one verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median), however
              wide either side's spread
  better      the change wins at least 9 in 10 run pairs, ties counting for
              neither, and the medians differ by more than the parent's
              interquartile range
  unresolved  not worse, but either side's spread (interquartile range /
              median) is wider than the bound, unless every change run beats
              every parent run: the runs cannot tell unchanged from worse
  unchanged   otherwise

It also flags a digest mismatch between runs of the same seed and any rise
in failed_op_frac. The exit status is 1 when a pair is worse or a flag is
raised, else 2 when a pair is unresolved, else 0.

    python3 bench/e2e/compare.py --summarize DIR [--commit SHA]

prints a baseline document instead: per workload, the median and quartiles
of every end-to-end metric over the untraced runs, the traced run's
per-layer table, and the threads, seeds and digests the runs recorded.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory):
    """Result JSONs in `directory`, sorted by (workload, seed, file name)."""
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            result = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(result, dict) and "workload" in result:
            runs.append(result)
    runs.sort(key=lambda r: (r["workload"], r["seed"]))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, bound, better):
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):  # a strictly better than b
        return sign * (b - a) > 0

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else float("inf"),
                 (c3 - c1) / cm if cm else float("inf"))
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    every = all(beats(c, p) for c in change for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    gain = (bool(pairs) and wins >= 0.9 * len(pairs)
            and sign * (pm - cm) > p3 - p1)
    if every and gain:
        label = "better"
    elif worse_by > bound:
        label = "worse"
    elif spread > bound and not every:
        label = "unresolved"
    elif gain:
        label = "better"
    else:
        label = "unchanged"
    return label, spread, worse_by


def by_workload(runs):
    out = {}
    for r in runs:
        if not r.get("traced"):
            out.setdefault(r["workload"], []).append(r)
    return out


def compare(args):
    spec = json.loads(Path(args.benchmark).read_text())
    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    flags = []
    worse = 0
    unresolved = []
    header = (f"{'workload':22} {'metric':17} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'worse_by':>9} "
              f"{'spread':>7} {'bound':>6}  verdict")
    print(header)
    for w in spec["workloads"]:
        name = w["name"]
        p_runs, c_runs = parent.get(name, []), change.get(name, [])
        if not p_runs or not c_runs:
            flags.append(f"{name}: no runs on one side")
            continue
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            label, spread, worse_by = verdict(p, c, m["bound"], m["better"])
            worse += label == "worse"
            if label == "unresolved":
                unresolved.append(f"{name} {m['name']}: spread "
                                  f"{spread * 100:.2f}% > bound "
                                  f"{m['bound'] * 100:.1f}%")
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"{name:22} {m['name']:17} "
                  f"{pm:12.6g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.6g} [{c1:9.4g}, {c3:9.4g}] "
                  f"{worse_by * 100:8.2f}% {spread * 100:6.2f}% "
                  f"{m['bound'] * 100:5.1f}%  {label}")
        digests = {}
        for r in p_runs + c_runs:
            digests.setdefault((r["seed"], r["exact_ops"]), set()).add(
                r["digest"])
        for (seed, ops), seen in sorted(digests.items()):
            if len(seen) > 1:
                flags.append(f"{name}: seed {seed} digests over the first "
                             f"{ops} ops differ: {sorted(seen)}")
        p_fail = max(r["failed_op_frac"] for r in p_runs)
        c_fail = max(r["failed_op_frac"] for r in c_runs)
        if c_fail > p_fail:
            flags.append(f"{name}: failed_op_frac rose {p_fail} -> {c_fail}")
    for f in flags:
        print(f"FLAG {f}")
    for u in unresolved:
        print(f"UNRESOLVED {u}")
    if worse or flags:
        return 1
    return 2 if unresolved else 0


def summarize(args):
    runs = load_runs(args.summarize)
    doc = {"commit": args.commit,
           "hardware_threads": sorted({r["hardware_threads"] for r in runs}),
           "pool_threads": sorted({r["pool_threads"] for r in runs}),
           "seeds": sorted({r["seed"] for r in runs}),
           "workloads": {}}
    for name, untraced in by_workload(runs).items():
        entry = {"untraced_runs": len(untraced),
                 "ops": statistics.median(r["ops"] for r in untraced),
                 "failed_op_frac": max(r["failed_op_frac"] for r in untraced),
                 "digests": sorted({f"seed {r['seed']}: {r['digest']} "
                                    f"(first {r['exact_ops']} ops)"
                                    for r in untraced}),
                 "metrics": {}}
        for metric in untraced[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in untraced]
            q1, median, q3 = quartiles(values)
            entry["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3,
                "unit": untraced[0]["metrics"][metric]["unit"]}
        traced = [r for r in runs if r["workload"] == name and r["traced"]]
        if traced:
            entry["per_layer"] = {k: v["value"] for k, v in
                                  traced[-1]["per_layer"].items()}
        doc["workloads"][name] = entry
    print(json.dumps(doc, indent=2))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--summarize", metavar="DIR")
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args()
    if args.summarize:
        return summarize(args)
    if not (args.parent and args.change):
        parser.error("give PARENT_DIR and CHANGE_DIR, or --summarize DIR")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
