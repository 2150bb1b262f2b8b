"""Seed tests for the benchmark's own inputs and declarations.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from chevalley import generators  # noqa: E402
from chevalley.generators import GroupModel  # noqa: E402
from chevalley.relations import grid_for_model  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("verify-grid", "verify-symbolic", "chambers", "symbol", "reduce")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.describe(workload, 7).encode() == \
        inputs.describe(workload, 7).encode()


def test_different_seeds_differ():
    assert inputs.verify_grid_inputs(1)["grid"] != \
        inputs.verify_grid_inputs(2)["grid"]
    assert inputs.describe("verify-symbolic", 1) != \
        inputs.describe("verify-symbolic", 2)
    assert inputs.chambers_inputs(1) != inputs.chambers_inputs(2)
    assert inputs.seeded_universe(1) != inputs.seeded_universe(2)
    assert inputs.describe("reduce", 1) != inputs.describe("reduce", 2)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_grids_pass_grid_for_model(seed):
    grid = inputs.verify_grid_inputs(seed)["grid"]
    assert len(set(grid)) == inputs.GRID_SIZE
    for fam, n in inputs.GRID_CELLS:
        assert len(grid_for_model(GroupModel(fam, n), grid)) == len(grid)


@pytest.mark.parametrize("seed", (1, 2))
def test_words_are_cycles(seed):
    words = inputs.reduce_inputs(seed)
    assert len(words) == len(inputs.REDUCE_CELLS) * inputs.WORDS_PER_CELL
    for w in words:
        assert w["word"].is_cycle()


def test_nonmembers_have_a_nonzero_pairing():
    data = inputs.symbol_inputs(3)
    pairs = inputs.pairings(data["q"])
    for member, items in data["queries"]:
        if not member:
            assert any(inputs.pairing_value(items, *pr) for pr in pairs)


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _moves in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_cache_counts_survive_clearing():
    model = GroupModel("sl-r", 3)
    roots = inputs.build_root_system(3).roots[:2]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracing.clear_caches()
        tracer.start_timed_phase()
        for _ in range(2):    # two cold units: a miss and a hit per root each
            for root in roots:
                generators.root_entry_positions(model, root)
                generators.root_entry_positions(model, root)
            tracer.clear_caches()
        generators.root_entry_positions(model, roots[0])
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    assert layer["generators.root_entry_positions.misses"] == 5
    assert layer["generators.root_entry_positions.hits"] == 4
