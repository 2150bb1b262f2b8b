"""Metric declarations, predictions and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json``; the seed
tests check that.  Each per-layer entry names the end-to-end metric and the
workload it is predicted to move, written down before any change claims it.
"""

from __future__ import annotations

import statistics

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("unit_p50_s", "s", "lower"),
    ("unit_tail_s", "s", "lower"),
    ("done_ratio", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

VG, VS, CH, SY, RE = ("verify-grid", "verify-symbolic", "chambers", "symbol",
                      "reduce")

# name, unit, [(end-to-end metric, workload), ...] it should move
PER_LAYER = (
    ("scalars.laurent_ops", "count", [("wall_s", VS)]),
    ("scalars.normalize_calls", "count", [("wall_s", VS)]),
    ("scalars.normalize_s", "s", [("wall_s", VS)]),
    ("scalars.normalize_nonmonomial_den", "count", [("wall_s", VS)]),
    ("scalars.gaussian_ops", "count", [("wall_s", VG)]),
    ("scalars.gaussian_real_share", "ratio", [("wall_s", VG)]),
    ("relations.additivity_suite_s", "s", [("wall_s", VG)]),
    ("relations.commutator_suites_s", "s", [("wall_s", VG)]),
    ("relations.h_relation_suite_s", "s", [("wall_s", VG)]),
    ("relations.weyl_conjugation_suite_s", "s", [("wall_s", VG)]),
    ("relations.monomial_form_suite_s", "s", [("wall_s", VG)]),
    ("relations.family.sp_s", "s", [("wall_s", VG)]),
    ("relations.family.sl-r_s", "s", [("wall_s", VG)]),
    ("relations.family.sl-c_s", "s", [("wall_s", VG)]),
    ("relations.reports", "count", [("wall_s", VG)]),
    ("relations.instances", "count", [("wall_s", VG)]),
    ("relations.instances.trivial-commutator", "count", [("wall_s", VG)]),
    ("relations.delta_mul_calls", "count", [("wall_s", VG)]),
    ("relations.x_delta_calls", "count", [("wall_s", VG)]),
    ("relations.commutator_delta_calls", "count", [("wall_s", VG)]),
    ("relations.fit_structure_functions.hits", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.fit_structure_functions.misses", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.fit_structure_functions.miss_s", "s",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.w_delta_cache.hits", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.w_delta_cache.misses", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.h_delta_cache.hits", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("relations.h_delta_cache.misses", "count",
     [("wall_s", VS), ("unit_p50_s", RE)]),
    ("generators.root_entry_positions.hits", "count",
     [("wall_s", VG), ("wall_s", VS)]),
    ("generators.root_entry_positions.misses", "count",
     [("wall_s", VG), ("wall_s", VS)]),
    ("generators.letter_matrix.hits", "count",
     [("wall_s", VG), ("wall_s", VS)]),
    ("generators.letter_matrix.misses", "count",
     [("wall_s", VG), ("wall_s", VS)]),
    ("generators.gen_h_s", "s", [("wall_s", VG), ("wall_s", VS)]),
    ("generators.gen_h_literal_s", "s", [("wall_s", VG), ("wall_s", VS)]),
    ("matrices.mat_mul_calls", "count", [("wall_s", VG), ("wall_s", VS)]),
    ("matrices.mat_inv_calls", "count", [("wall_s", VG), ("wall_s", VS)]),
    ("matrices.mat_s", "s", [("wall_s", VG), ("wall_s", VS)]),
    ("roots.positive_combinations_calls", "count", [("wall_s", VG)]),
    ("arrangements.weyl_chambers_s", "s",
     [("wall_s", CH), ("unit_tail_s", CH), ("done_ratio", CH)]),
    ("arrangements.chambers", "count",
     [("wall_s", CH), ("unit_tail_s", CH), ("done_ratio", CH)]),
    ("arrangements.fm_solves", "count",
     [("wall_s", CH), ("unit_tail_s", CH), ("done_ratio", CH)]),
    ("arrangements.chambers_per_solve", "ratio",
     [("wall_s", CH), ("unit_tail_s", CH), ("done_ratio", CH)]),
    ("arrangements.find_stable_element_calls", "count",
     [("wall_s", CH), ("wall_s", RE)]),
    ("arrangements.find_stable_element_s", "s",
     [("wall_s", CH), ("unit_tail_s", CH)]),
    ("arrangements.is_generic_s", "s", [("wall_s", CH)]),
    ("symbols.build_axiom_lattice_s", "s", [("setup_s", SY)]),
    ("symbols.instances", "count", [("setup_s", SY)]),
    ("symbols.is_consequence_s", "s", [("unit_p50_s", SY), ("wall_s", SY)]),
    ("symbols.echelon_inserts", "count", [("unit_p50_s", SY), ("wall_s", SY)]),
    ("symbols.consequence_share", "ratio",
     [("unit_p50_s", SY), ("wall_s", SY)]),
    ("symbols.cert_terms_mean", "count", [("symbols.cert_terms_max", SY)]),
    ("symbols.cert_terms_max", "count", [("wall_s", SY)]),
    ("symbols.cert_bits_max", "bits", [("wall_s", SY)]),
    ("cycles.reduce_cycle_s", "s", [("unit_tail_s", RE), ("done_ratio", RE)]),
    ("cycles.trace_moves", "count", [("unit_tail_s", RE), ("done_ratio", RE)]),
    ("cycles.moves_per_word_max", "count",
     [("unit_tail_s", RE), ("done_ratio", RE)]),
    ("cycles.budget_exhausted", "count",
     [("unit_tail_s", RE), ("done_ratio", RE)]),
    ("cli.emit_s", "s", [("wall_s", VG)]),
    ("trace.overhead_s", "s", []),
    ("trace.overhead_share", "ratio", []),
    ("trace.noise_s", "s", []),
)

LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
TAIL_PERCENTILES = (99, 90, 75)


def quantile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    values beyond it, or the maximum when there are fewer than 40 values."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return q, quantile(values, q)
    return 100, max(values)


def spread(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3
