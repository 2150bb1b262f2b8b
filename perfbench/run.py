"""Benchmark entry point: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs in a fresh
interpreter (``worker.py``), one at a time, over the same seeded inputs;
passes repeat until their timed phases add up to ``--seconds``; without
tracing, set-up-only passes then bring the set-up samples to at least five.
With ``--trace 1`` untraced and traced passes alternate, at least two of each:
the per-layer metrics come from the traced ones, and the tracing overhead is
traced minus untraced time summed over the units timed in every pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
starting with ``# detail``, carries what the summary needs beyond that: the
tail percentile, quartiles per pass and the units that did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from metrics import END_TO_END, LAYER_UNITS, tail  # noqa: E402

WORKLOADS = ("verify-grid", "verify-symbolic", "chambers", "symbol", "reduce")
RUN_DEADLINE_S = 150.0   # no pass that would end after this starts; a run
                         # ends within 180 s
PASS_TIMEOUT_S = 170.0
SETUP_SAMPLES = 5
TRACE_PASSES = 2         # of each kind, so the overhead has a noise figure
# untraced passes a run makes at least: verify-symbolic's median unit is one
# cell (sp n=4), whose time swings by some 10 % from one pass to the next
MIN_PASSES = {"verify-symbolic": 2}


def run_worker(workload, seed, pass_no, mode, remaining):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), str(pass_no), mode, repr(time.time())]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        print("pass %d timed out" % pass_no, file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("pass %d exited with %d" % (pass_no, proc.returncode),
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Passes until the timed phases cover ``seconds`` and there are
    MIN_PASSES untraced passes, or TRACE_PASSES of each kind if tracing; a
    pass that crashed or produced a wrong output ends the run."""
    start = time.monotonic()
    plain, traced = [], []
    pass_no = 0
    longest = 0.0
    ok = True
    need_plain, need_traced = (TRACE_PASSES, TRACE_PASSES) if trace else \
        (MIN_PASSES.get(workload, 1), 0)
    while True:
        want_traced = trace and pass_no % 2 == 1
        began = time.monotonic()
        out = run_worker(workload, seed, pass_no,
                         "traced" if want_traced else "plain",
                         PASS_TIMEOUT_S - (began - start))
        longest = max(longest, time.monotonic() - began)
        pass_no += 1
        if out is None:
            ok = False
            break
        (traced if want_traced else plain).append(out)
        complete = len(plain) >= need_plain and len(traced) >= need_traced
        wrong = any(u[2] == "wrong" for u in out["units"])
        measured = sum(p["phase_s"] for p in plain + traced)
        if complete and (wrong or measured >= seconds):
            break
        if time.monotonic() - start + longest > RUN_DEADLINE_S:
            break
    setups = [p["setup_s"] for p in plain]
    while ok and not trace and len(setups) < SETUP_SAMPLES and \
            time.monotonic() - start < RUN_DEADLINE_S:
        out = run_worker(workload, seed, pass_no, "setup",
                         PASS_TIMEOUT_S - (time.monotonic() - start))
        pass_no += 1
        if out is None:
            ok = False
            break
        setups.append(out["setup_s"])
    return plain, traced, setups, ok


def timed_latencies(p):
    """Latencies of a pass's timed units; all of them if none is timed."""
    return [u[1] for u in p["units"] if u[3]] or [u[1] for u in p["units"]]


def end_to_end(plain, setups):
    """Medians over passes; unit latencies are summarized per pass first, so
    the tail percentile depends on the units per pass, not on the number of
    passes."""
    tails = [tail(timed_latencies(p)) for p in plain]
    units = [u for p in plain for u in p["units"]]
    done = sum(1 for u in units if u[2] == "done")
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "unit_p50_s": statistics.median(
            statistics.median(timed_latencies(p)) for p in plain),
        "unit_tail_s": statistics.median(value for _pct, value in tails),
        "done_ratio": done / len(units),
        "peak_rss_mib": max(p["rss_mib"] for p in plain),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in END_TO_END}
    return metrics, tails[0][0]


def per_layer(plain, traced):
    merged = {}
    for p in traced:
        for key, value in p["layer"].items():
            merged.setdefault(key, []).append(value)
    out = {key: statistics.median(vals) for key, vals in merged.items()}
    out.update(overhead(plain, traced))
    return {name: {"value": out[name], "unit": LAYER_UNITS[name]}
            for name in LAYER_UNITS if name in out}


def overhead(plain, traced):
    """Tracing overhead over the units timed in every pass: per unit, the
    median traced minus the median untraced latency, summed.  The noise is
    the range of those units' summed latency over the untraced passes; an
    overhead no larger than it, a negative one included, is unresolved."""
    passes = plain + traced
    names = set.intersection(*({u[0] for u in p["units"] if u[3]}
                               for p in passes))

    def latencies(kind):
        per_unit = {}
        for p in kind:
            for u in p["units"]:
                if u[0] in names:
                    per_unit.setdefault(u[0], []).append(u[1])
        return per_unit

    base, with_trace = latencies(plain), latencies(traced)
    base_s = sum(statistics.median(v) for v in base.values())
    over = sum(statistics.median(with_trace[k]) - statistics.median(base[k])
               for k in names)
    totals = [sum(u[1] for u in p["units"] if u[0] in names) for p in plain]
    return {"trace.overhead_s": over,
            "trace.overhead_share": over / base_s if base_s else 0.0,
            "trace.noise_s": max(totals) - min(totals)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chevalley", "__init__.py")):
        print("error: no chevalley sources at %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2

    plain, traced, setups, ok = run_passes(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    if not plain or (args.trace and not traced):
        print("error: no complete pass", file=sys.stderr)
        return 1
    passes = plain + traced
    units = [u for p in passes for u in p["units"]]
    wrong = [u[0] for u in units if u[2] == "wrong"]
    not_done = sorted({u[0] for u in units if u[2] == "not-done"})
    metrics, pct = end_to_end(plain, setups)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(plain), "traced_passes": len(traced),
        "units_per_pass": len(plain[0]["units"]),
        "tail_percentile": pct,
        "fail_ratio": 1.0 - metrics["done_ratio"]["value"],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in plain],
        "setup_samples_s": setups,
        "not_done": not_done, "wrong": sorted(set(wrong)),
        "stats": plain[0]["stats"],
    }
    if args.trace:
        metrics = per_layer(plain, traced)
        detail["trace_overhead"] = "resolved" if \
            metrics["trace.overhead_s"]["value"] > \
            metrics["trace.noise_s"]["value"] else "unresolved"
        detail["self_s"] = traced[0]["self_s"]
        detail["spans_files"] = [p["spans_file"] for p in traced]
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": ok and not wrong, "attempted": len(units),
                      "failed": len(wrong) + (0 if ok else 1),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
