"""Run every workload over several seeds and print the summary tables.

    python3 perfbench/report.py [--seeds 1-10] [--trace-seed 1]
                                [--out FILE] [--compare FILE]

Every workload runs at ``BENCHMARK.json``'s ``run_seconds``.  For each
workload and end-to-end metric: median, quartiles and sample count over the
seeds (one untraced run per seed), with the spread (q3 - q1) / median.  With
``--trace-seed`` one traced run per workload adds the per-layer metrics,
each with the end-to-end metric it is predicted to move, and the tracing
overhead.  ``--out`` writes everything as JSON with the machine and git
revision; ``--compare`` checks the medians against an earlier such file and
the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, spread  # noqa: E402
from run import WORKLOADS  # noqa: E402

EXCLUSIONS = {
    "non-real sl-c grids": (
        "verify --model sl-c with a non-real grid ends in a TypeError today "
        "(ROADMAP item 5); once fixed it does far more Gaussian work, so it "
        "enters as a workload of its own instead of reading as a "
        "verify-grid regression"),
    "in-program stats channel": (
        "chevalley.stats / --stats is a later change; this benchmark "
        "instruments the package from its own files"),
    "verify-grid n=4 cells": (
        "one n=4 cell (sl-c: ~17 s) is longer than a benchmark run may take; "
        "the n=3 cells run the same suites"),
}


def run_one(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py failed for %s seed %s" % (workload, seed))
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("# detail "):])
    return json.loads(lines[-1]), detail


def summarize(values):
    med, q1, q3 = spread(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {"git_rev": git_rev(), "seconds": seconds,
              "machine": {"platform": platform.platform(),
                          "python": platform.python_version(),
                          "cpus": os.cpu_count()},
              "exclusions": EXCLUSIONS,
              "predictions": {name: moves for name, _u, moves in PER_LAYER},
              "workloads": {}}

    for workload in WORKLOADS:
        runs = [run_one(workload, s, seconds, 0) for s in seeds]
        entry = {"why": why.get(workload), "seeds": seeds, "end_to_end": {}}
        print("\n== %s: %s" % (workload, why.get(workload)))
        print("%-14s %-6s %12s %12s %12s %3s %7s" % (
            "metric", "unit", "median", "q1", "q3", "n", "spread"))
        for name, unit, _better in END_TO_END:
            s = summarize([r["metrics"][name]["value"] for r, _d in runs])
            s["unit"] = unit
            entry["end_to_end"][name] = s
            flag = "  > bound/3" if s["spread"] > bounds[name] / 3 else ""
            print("%-14s %-6s %12.6g %12.6g %12.6g %3d %6.1f%%%s" % (
                name, unit, s["median"], s["q1"], s["q3"], s["n"],
                100 * s["spread"], flag))
        details = [d for _r, d in runs]
        entry["tail_percentile"] = details[0]["tail_percentile"]
        entry["fail_ratio"] = summarize([d["fail_ratio"] for d in details])
        entry["attempted"] = sum(r["attempted"] for r, _d in runs)
        entry["failed"] = sum(r["failed"] for r, _d in runs)
        entry["correct"] = all(r["correct"] for r, _d in runs)
        entry["not_done"] = sorted({u for d in details for u in d["not_done"]})
        print("unit_tail_s is p%d; fail_ratio median %.4f; correct %s; "
              "failed %d of %d" % (entry["tail_percentile"],
                                   entry["fail_ratio"]["median"],
                                   entry["correct"], entry["failed"],
                                   entry["attempted"]))
        if args.trace_seed is not None:
            traced, detail = run_one(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["self_s"] = detail["self_s"]
            entry["trace_overhead"] = detail["trace_overhead"]
            print("per-layer (seed %d; tracing overhead %s):" % (
                args.trace_seed, detail["trace_overhead"]))
            for name, _unit, moves in PER_LAYER:
                if name in traced["metrics"]:
                    m = traced["metrics"][name]
                    print("  %-44s %14.6g %-5s %s" % (
                        name, m["value"], m["unit"],
                        ", ".join("%s@%s" % mv for mv in moves)))
        result["workloads"][workload] = entry

    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            before = json.load(fh)
        print("\n== medians against %s" % args.compare)
        for workload, entry in result["workloads"].items():
            old = before["workloads"].get(workload)
            if old is None:
                continue
            for name, _unit, better in END_TO_END:
                a = old["end_to_end"][name]["median"]
                b = entry["end_to_end"][name]["median"]
                change = (b - a) / a if better == "lower" else (a - b) / a
                print("%-16s %-14s %12.6g -> %12.6g  worse by %6.2f%%%s" % (
                    workload, name, a, b, 100 * change,
                    "  OVER BOUND" if change > bounds[name] else ""))
    if args.out:
        with open(args.out + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(args.out + ".tmp", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
