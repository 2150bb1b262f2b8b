"""Opt-in instrumentation of the chevalley modules from outside the package.

``Tracer.install`` wraps functions of each module in place: spans at unit,
suite-function and solver boundaries, counts (and where named, time) at the
hot ones.  Every wrapper is removed again by ``uninstall``.  A name that the
package no longer defines is skipped, so its metric is absent, not zero.

Spans are tuples ``(name, start, end, parent_index, unit_id)`` kept in
memory; ``span_summary`` derives per-name inclusive and self time, where self
time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("scalars", "matrices", "roots", "generators", "relations",
           "symbols", "arrangements", "cycles", "cli")

SUITES = ("additivity_suite", "commutator_suites", "h_relation_suite",
          "weyl_conjugation_suite", "monomial_form_suite")

# (module, name, metric prefix) of process-lifetime caches read via cache_info
CACHES = (("relations", "fit_structure_functions",
           "relations.fit_structure_functions"),
          ("relations", "_w_delta_cached", "relations.w_delta_cache"),
          ("relations", "_h_delta_cached", "relations.h_delta_cache"),
          ("generators", "root_entry_positions",
           "generators.root_entry_positions"),
          ("generators", "_letter_matrix", "generators.letter_matrix"))

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__")
SETUP_SPANS = ("symbols.build_axiom_lattice",)


def _module(name):
    return importlib.import_module("chevalley." + name)


def clear_caches():
    """Empty every module-level functools cache of the package."""
    for name in MODULES:
        for value in list(vars(_module(name)).values()):
            fn = value
            while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
                fn = fn.__wrapped__
            if hasattr(fn, "cache_clear") and callable(fn.cache_clear):
                fn.cache_clear()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.depth = defaultdict(int)
        self.spans = []
        self.stack = []
        self.unit = "setup"
        self.in_enumeration = 0
        self._undo = []
        self._caches = {}
        self._cache_totals = defaultdict(int)
        self.span_names = set()

    # -- patching -------------------------------------------------------

    def _replace(self, mod_name, attr, make):
        """Replace mod.attr, and every module's alias of it, by make(orig)."""
        mod = _module(mod_name)
        orig = getattr(mod, attr, None)
        if orig is None:
            return None
        wrapper = make(orig)
        wrapper.__wrapped__ = orig
        for name in MODULES:
            other = _module(name)
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapper)
                    self._undo.append((other, key, orig))
        return orig

    def _replace_method(self, cls, attrs, make):
        done = {}
        for attr in attrs:
            orig = cls.__dict__.get(attr)
            if orig is None:
                continue
            if orig not in done:
                done[orig] = make(orig)
            setattr(cls, attr, done[orig])
            self._undo.append((cls, attr, orig))
        return bool(done)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # -- wrapper factories ----------------------------------------------

    def span_wrapper(self, name, on_exit=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def make(fn):
            def wrapper(*args, **kwargs):
                label = name(*args) if callable(name) else name
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (label, t0, t1, parent, self.unit)
                    if on_exit is not None:
                        on_exit(t1 - t0)
            return wrapper
        return make

    def count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def timed_wrapper(self, count_name, time_name, depth_key=None):
        """Count and time calls; with depth_key only the outermost call of
        the group is timed, so nested calls are not counted twice."""
        counts, times, clock = self.counts, self.times, self.clock
        depth = self.depth if depth_key else None

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[count_name] += 1
                if depth is not None and depth[depth_key]:
                    return fn(*args, **kwargs)
                if depth is not None:
                    depth[depth_key] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[time_name] += clock() - t0
                    if depth is not None:
                        depth[depth_key] -= 1
            return wrapper
        return make

    # -- installation ---------------------------------------------------

    def _span(self, mod_name, attr, name):
        if self._replace(mod_name, attr, self.span_wrapper(name)) is not None:
            self.span_names.add(name)

    def _counted(self, mod_name, attr, name):
        if self._replace(mod_name, attr, self.count_wrapper(name)) is not None:
            self.counts[name] = 0

    def _timed(self, mod_name, attr, count_name, time_name, depth_key=None):
        make = self.timed_wrapper(count_name, time_name, depth_key)
        if self._replace(mod_name, attr, make) is not None:
            self.counts[count_name] += 0
            self.times[time_name] += 0.0

    def install(self):
        counts, times, clock = self.counts, self.times, self.clock

        # scalars: counts at the hot operators, time at the normalizer
        scalars = _module("scalars")

        def gaussian_op(fn):
            def wrapper(x, *args):
                counts["scalars.gaussian_ops"] += 1
                if not x.im and all(not getattr(o, "im", 0) for o in args):
                    counts["scalars.gaussian_real_ops"] += 1
                return fn(x, *args)
            return wrapper

        if self._replace_method(scalars.GaussianRational, SCALAR_OPS,
                                gaussian_op):
            counts["scalars.gaussian_ops"] += 0
            counts["scalars.gaussian_real_ops"] += 0
        if self._replace_method(scalars.LaurentFrac, SCALAR_OPS,
                                self.count_wrapper("scalars.laurent_ops")):
            counts["scalars.laurent_ops"] += 0

        def normalize(fn):
            def wrapper(num, den):
                counts["scalars.normalize_calls"] += 1
                if len(den.terms) > 1:
                    counts["scalars.normalize_nonmonomial_den"] += 1
                t0 = clock()
                try:
                    return fn(num, den)
                finally:
                    times["scalars.normalize_s"] += clock() - t0
            return wrapper

        if self._replace("scalars", "_normalize", normalize) is not None:
            counts["scalars.normalize_calls"] += 0
            counts["scalars.normalize_nonmonomial_den"] += 0
            times["scalars.normalize_s"] += 0.0

        # relations: suite spans, per-family spans, hot-path counts
        for suite in SUITES:
            self._span("relations", suite, "relations." + suite)
        if self._replace("relations", "run_suite", self.span_wrapper(
                lambda model, *a: "relations.family." + model.family)):
            self.span_names.update("relations.family." + fam
                                   for fam in ("sp", "sl-r", "sl-c"))
        for fn_name in ("delta_mul", "x_delta", "commutator_delta"):
            self._counted("relations", fn_name,
                          "relations.%s_calls" % fn_name)

        def fit_structure(orig):
            before = {}

            def on_exit(dt):
                if orig.cache_info().misses > before["misses"]:
                    times["relations.fit_structure_functions.miss_s"] += dt
            inner = self.span_wrapper("relations.fit_structure_functions",
                                      on_exit)(orig)

            def wrapper(*args, **kwargs):
                before["misses"] = orig.cache_info().misses
                return inner(*args, **kwargs)
            return wrapper

        if self._replace("relations", "fit_structure_functions",
                         fit_structure) is not None:
            times["relations.fit_structure_functions.miss_s"] += 0.0
        for mod_name, attr, prefix in CACHES:
            fn = getattr(_module(mod_name), attr, None)
            while fn is not None and not hasattr(fn, "cache_info"):
                fn = getattr(fn, "__wrapped__", None)
            if fn is not None:
                self._caches[prefix] = fn

        # generators, matrices and roots: counted, and timed where named
        self._timed("generators", "gen_h", "generators.gen_h_calls",
                    "generators.gen_h_s")
        self._timed("generators", "gen_h_literal",
                    "generators.gen_h_literal_calls",
                    "generators.gen_h_literal_s")
        self._timed("matrices", "mat_mul", "matrices.mat_mul_calls",
                    "matrices.mat_s", "matrices.depth")
        self._timed("matrices", "mat_inv", "matrices.mat_inv_calls",
                    "matrices.mat_s", "matrices.depth")
        self._counted("roots", "positive_combinations",
                      "roots.positive_combinations_calls")

        # arrangements: solver spans; FM solves split by caller
        def chambers_span(fn):
            inner = self.span_wrapper("arrangements.weyl_chambers")(fn)

            def wrapper(*args, **kwargs):
                self.in_enumeration += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.in_enumeration -= 1
            return wrapper

        def fm_span(fn):
            inner = self.span_wrapper("arrangements._strict_feasible")(fn)

            def wrapper(*args, **kwargs):
                counts["arrangements.fm_solves"] += 1
                if self.in_enumeration:
                    counts["arrangements.fm_solves_enumeration"] += 1
                return inner(*args, **kwargs)
            return wrapper

        if self._replace("arrangements", "weyl_chambers",
                         chambers_span) is not None:
            self.span_names.add("arrangements.weyl_chambers")
        if self._replace("arrangements", "_strict_feasible",
                         fm_span) is not None:
            counts["arrangements.fm_solves"] += 0
            counts["arrangements.fm_solves_enumeration"] += 0

        def stable_span(fn):
            return self.count_wrapper("arrangements.find_stable_element_calls")(
                self.span_wrapper("arrangements.find_stable_element")(fn))

        if self._replace("arrangements", "find_stable_element",
                         stable_span) is not None:
            counts["arrangements.find_stable_element_calls"] += 0
            self.span_names.add("arrangements.find_stable_element")
        self._span("arrangements", "is_generic", "arrangements.is_generic")

        # symbols, cycles, cli
        self._span("symbols", "build_axiom_lattice",
                   "symbols.build_axiom_lattice")
        self._span("symbols", "is_consequence", "symbols.is_consequence")
        echelon = getattr(_module("symbols"), "_Echelon", None)
        if echelon is not None and self._replace_method(
                echelon, ("insert",),
                self.count_wrapper("symbols.echelon_inserts")):
            counts["symbols.echelon_inserts"] += 0
        self._span("cycles", "reduce_cycle", "cycles.reduce_cycle")
        self._span("cli", "_emit", "cli.emit")

    def start_timed_phase(self):
        """Forget counts made during set-up; spans stay, tagged 'setup'.
        Call it after the caches were emptied at the end of set-up."""
        for key in list(self.counts):
            self.counts[key] = 0
        for key in list(self.times):
            self.times[key] = 0.0
        self._cache_totals.clear()

    def clear_caches(self):
        """``clear_caches`` that first banks the hits and misses, which
        ``cache_clear`` resets along with the entries."""
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            self._cache_totals[prefix + ".hits"] += info.hits
            self._cache_totals[prefix + ".misses"] += info.misses
        clear_caches()

    # -- results --------------------------------------------------------

    def span_summary(self):
        """{name: [calls, inclusive_s, self_s]} over all finished spans."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out = {}
        for k, sp in enumerate(self.spans):
            if sp is None:
                continue
            entry = out.setdefault(sp[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += sp[2] - sp[1]
            entry[2] += sp[2] - sp[1] - child[k]
        return out

    def metrics(self):
        """Numbers derived from counts, times, timed-phase spans and caches.

        Cache hits and misses are summed over every ``clear_caches`` of the
        timed phase plus what the caches hold now.  Only the lattice build, which is set-up work by design, is taken
        from set-up spans.
        """
        out = dict(self.counts)
        out.update(self.times)
        ops = self.counts.get("scalars.gaussian_ops")
        if ops is not None:
            real = self.counts["scalars.gaussian_real_ops"]
            out["scalars.gaussian_real_share"] = real / ops if ops else 0.0
        for name in self.span_names:
            out[name + "_s"] = 0.0
        for sp in self.spans:
            if sp is not None and (sp[4] != "setup" or
                                   sp[0] in SETUP_SPANS):
                out[sp[0] + "_s"] = out.get(sp[0] + "_s", 0.0) + sp[2] - sp[1]
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            out[prefix + ".hits"] = self._cache_totals[prefix + ".hits"] + \
                info.hits
            out[prefix + ".misses"] = \
                self._cache_totals[prefix + ".misses"] + info.misses
        return out
