"""One pass of a workload in a fresh interpreter; prints its result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED PASS MODE SPAWN_TIME

MODE is ``plain``, ``traced`` or ``setup`` (set-up only, for more set-up
samples).  SPAWN_TIME is the parent's ``time.time()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, input
generation and construction.  All times are reference seconds from
``clock.SpeedClock``; the raw wall time of the timed phase is reported too.
The package's functools caches are emptied after set-up and, for
command-line workloads, before every unit, so each unit starts as cold as a
command-line user's process.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import LAYER_UNITS  # noqa: E402

WORK_DIR = ".perfbench"
CAP_POLL_S = 0.1


class UnitTimeout(BaseException):
    """Raised by the alarm inside a unit that outlives its cap."""


class _Cap:
    """Stops a unit once it has run ``cap_s`` reference seconds; the alarm
    polls every CAP_POLL_S of wall time."""

    def __init__(self, ref):
        self.ref = ref
        self.deadline = None
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, _signum, _frame):
        if self.deadline is not None and self.ref.now() >= self.deadline:
            raise UnitTimeout()

    def run(self, fn, unit, cap_s):
        self.deadline = self.ref.now() + cap_s
        signal.setitimer(signal.ITIMER_REAL, CAP_POLL_S, CAP_POLL_S)
        try:
            return fn(unit)
        except UnitTimeout:
            return workloads.CAPPED
        finally:
            self.deadline = None
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(name, seed, pass_no, mode, spawned, ref):
    """One pass; ``ref`` is the running SpeedClock, started at wall time
    ``ref.started`` after interpreter start and imports."""
    wl = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer(ref.now) if mode == "traced" else None
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        if tracer:
            tracer.install()
        units = [u for u in wl.setup(seed, workdir)
                 if pass_no == 0 or not u.get("first_pass_only")]
        setup_s = (ref.started - spawned) * ref.first_factor + ref.now()
        if mode == "setup":
            return {"setup_s": setup_s}
        tracing.clear_caches()
        if tracer:
            tracer.start_timed_phase()
        cap = _Cap(ref)
        results, latencies = [], []
        now = ref.now
        raw_start = time.perf_counter()
        clear = tracer.clear_caches if tracer else tracing.clear_caches
        for k, unit in enumerate(units):
            if wl.cold_units and k:
                clear()
            if tracer:
                tracer.unit = "%s#%d" % (unit["name"], k)
                result = tracer.span_wrapper("unit")(cap.run)(
                    wl.run, unit, wl.cap_s)
            else:
                t0 = now()
                result = cap.run(wl.run, unit, wl.cap_s)
                latencies.append(now() - t0)
            results.append(result)
        raw_wall_s = time.perf_counter() - raw_start
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer, spans = None, None
        if tracer:
            tracer.uninstall()
            layer = tracer.metrics()
            spans = tracer.spans
            latencies = [sp[2] - sp[1] for sp in spans
                         if sp is not None and sp[0] == "unit"]
        # a unit stopped at the cap measures the cap, not the program, and a
        # unit marked untimed only says whether it finishes: done_ratio
        # counts both, the latency metrics neither
        timed = [result is not workloads.CAPPED and unit.get("timed", True)
                 for unit, result in zip(units, results)]
        wall_s = sum(t for t, ok in zip(latencies, timed) if ok)

        stats = defaultdict(int)
        statuses = []
        for unit, result in zip(units, results):
            try:
                status = wl.check(unit, result, stats)
            except Exception as exc:  # a crash in a check is a wrong output
                print("check of %s raised %r" % (unit["name"], exc),
                      file=sys.stderr)
                status = workloads.WRONG
            statuses.append(status)

    out = {"setup_s": setup_s, "wall_s": wall_s,
           "phase_s": sum(latencies), "raw_wall_s": raw_wall_s,
           "rss_mib": rss_mib, "probes": ref.probes,
           "units": [[u["name"], t, s, ok] for u, t, s, ok in
                     zip(units, latencies, statuses, timed)],
           "stats": dict(stats)}
    if tracer:
        layer.update(derived_layer_metrics(stats, layer))
        out["layer"] = {k: v for k, v in layer.items() if k in LAYER_UNITS}
        out["self_s"] = {k: v[2] for k, v in tracer.span_summary().items()}
        out["spans_file"] = write_spans(name, seed, pass_no, spans)
    return out


def derived_layer_metrics(stats, layer):
    """Per-layer numbers read off the checked outputs."""
    out = {k: stats.get(k, 0) for k in (
        "relations.reports", "relations.instances",
        "relations.instances.trivial-commutator", "arrangements.chambers",
        "symbols.cert_terms_max", "symbols.cert_bits_max",
        "cycles.trace_moves", "cycles.moves_per_word_max",
        "cycles.budget_exhausted")}
    solves = layer.get("arrangements.fm_solves_enumeration")
    if solves is not None:
        out["arrangements.chambers_per_solve"] = \
            stats.get("arrangements.chambers", 0) / solves if solves else 0.0
    queries = stats.get("symbols.queries", 0)
    out["symbols.consequence_share"] = \
        stats.get("symbols.consequences", 0) / queries if queries else 0.0
    certs = stats.get("symbols.certificates", 0)
    out["symbols.cert_terms_mean"] = \
        stats.get("symbols.cert_terms", 0) / certs if certs else 0.0
    out["symbols.instances"] = stats.get("symbols.instances", 0)
    return out


def write_spans(name, seed, pass_no, spans):
    os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
    path = os.path.join(WORK_DIR, "spans",
                        "%s-seed%s-pass%d.json" % (name, seed, pass_no))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                   "spans": [sp for sp in spans if sp is not None]}, fh)
    return path


def main(argv):
    name, seed, pass_no, mode, spawned = argv
    ref = clock.SpeedClock()
    ref.start()
    try:
        out = run_pass(name, int(seed), int(pass_no), mode, float(spawned),
                       ref)
    finally:
        ref.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
