"""The five workloads: set-up, the timed unit call, and independent checks.

A workload's ``setup`` returns its units; ``run`` performs one unit the way a
user would (``chevalley.cli.main`` or the library) and is the only timed
part.  ``cold_units`` marks command-line workloads: their user starts a
process per command, so the package's caches are emptied before each unit; ``check`` validates a unit's output by an independent route and
returns one of ``DONE``, ``NOT_DONE`` (a fail verdict, an exhausted budget
or the cap) or ``WRONG``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import inputs
from chevalley import cli, symbols
from chevalley.cycles import (ReductionMove, ReductionTrace, RestrictedSystem,
                              Stability, Word)
from chevalley.generators import GeneratorLetter, GroupModel
from chevalley.matrices import mat_inv, mat_prod
from chevalley.relations import decompose_commutator, grid_for_model
from chevalley.roots import build_root_system, standard_sl_roots

DONE, NOT_DONE, WRONG = "done", "not-done", "wrong"
CAPPED = object()   # run() result of a unit stopped at the cap
DENSE_SAMPLES = 8   # commutator instances per verify cell re-checked densely


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _vec(text):
    return [Fraction(x) for x in text.split(",") if x.strip()]


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def _line_key(vec):
    """Hashable key of the line spanned by a nonzero vector."""
    lead = next(x for x in vec if x)
    return tuple(Fraction(x) / lead for x in vec)


# ---------------------------------------------------------------------------
# verify (grid and symbolic)
# ---------------------------------------------------------------------------

class Verify:
    cap_s = 60.0
    cold_units = True

    def __init__(self, regime):
        self.regime = regime

    def setup(self, seed, workdir):
        if self.regime == "grid":
            data = inputs.verify_grid_inputs(seed)
            grid = data["grid"]
        else:
            data = inputs.verify_symbolic_inputs(seed)
            grid = None
        self.seed = seed
        self.grid = grid
        return [{"name": "%s-n%d" % (fam, n), "family": fam, "n": n,
                 "argv": inputs.verify_argv(fam, n, self.regime, grid)}
                for fam, n in data["cells"]]

    def run(self, unit):
        return call_cli(unit["argv"])

    def check(self, unit, result, stats):
        if result is CAPPED:
            return NOT_DONE
        rc, out, _err = result
        if rc != 0:
            return WRONG
        data = json.loads(out)
        reports = data["reports"]
        stats["relations.reports"] += len(reports)
        for rep in reports:
            stats["relations.instances"] += rep["instances"]
            if rep["relation_id"] == "trivial-commutator":
                stats["relations.instances.trivial-commutator"] += \
                    rep["instances"]
        if data["failed"] or data["checked"] != len(reports) or \
                any(rep["verdict"] != "pass" for rep in reports):
            return WRONG
        system = build_root_system(unit["n"])
        expected = {("additivity", (str(r),)) for r in system.roots}
        pairs = []
        for r in system.roots:
            for p in system.roots:
                s = tuple(x + y for x, y in zip(r.coeffs, p.coeffs))
                if any(s):
                    rid = "commutator" if system.is_root(s) else \
                        "trivial-commutator"
                    expected.add((rid, (str(r), str(p))))
                    pairs.append((r, p))
        got = [(rep["relation_id"], tuple(rep["roots"])) for rep in reports
               if rep["relation_id"] in ("additivity", "commutator",
                                         "trivial-commutator")]
        if len(got) != len(set(got)) or set(got) != expected:
            return WRONG
        return DONE if self._dense_sample(unit, pairs) else WRONG

    def _dense_sample(self, unit, pairs):
        """Re-check sampled commutator instances on the dense matrix route."""
        model = GroupModel(unit["family"], unit["n"])
        rng = inputs.rng_for(self.seed, "dense-" + unit["name"])
        values = grid_for_model(model, self.grid) if self.grid else \
            inputs.WORD_VALUES
        for r, p in rng.sample(pairs, DENSE_SAMPLES):
            a = tuple(rng.choice(values) for _ in range(model.param_arity(r)))
            b = tuple(rng.choice(values) for _ in range(model.param_arity(p)))
            factors, _laws = decompose_commutator(model, r, p, a, b)
            xr = GeneratorLetter(model, "x", r, a).matrix()
            xp = GeneratorLetter(model, "x", p, b).matrix()
            dense = mat_prod([xr, xp, mat_inv(xr), mat_inv(xp)])
            rhs = mat_prod([GeneratorLetter(model, "x", q, v).matrix()
                            for q, v in factors], size=model.size,
                           mode=dense.mode)
            if dense != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# chambers, stable and generic queries
# ---------------------------------------------------------------------------

class Chambers:
    cap_s = 10.0   # ROADMAP item 4's target for sl-standard n=3
    cold_units = True

    def setup(self, seed, workdir):
        units = inputs.chambers_inputs(seed)
        for k, unit in enumerate(units):
            argv = [unit["kind"]]
            if unit["roots"] is not None:
                path = os.path.join(workdir, "roots%d.txt" % k)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(unit["roots"])
                argv += ["--roots", path, "--ambient", str(unit["ambient"])]
            else:
                argv += ["--roots", unit["builtin"], "--n", str(unit["n"])]
            if unit.get("region"):
                argv.append("--region=" + unit["region"])
            if unit.get("plane"):
                argv.append("--plane=" + unit["plane"])
            unit["argv"] = argv
        return units

    def run(self, unit):
        return call_cli(unit["argv"])

    def check(self, unit, result, stats):
        if result is CAPPED:
            return NOT_DONE
        rc, out, _err = result
        if rc != 0:
            return WRONG
        data = json.loads(out)
        ok = {"chambers": self._chambers, "stable": self._stable,
              "generic": self._generic}[unit["kind"]](unit, data, stats)
        return DONE if ok else WRONG

    @staticmethod
    def _input_roots(unit):
        if unit["roots"] is not None:
            return [_vec(line) for line in unit["roots"].splitlines()]
        if unit["builtin"] == "builtin:sl-standard":
            roots = standard_sl_roots(2 * unit["n"])
        else:
            roots = build_root_system(unit["n"]).roots
        return [[Fraction(c) for c in r.coeffs] for r in roots]

    @staticmethod
    def _region_eqs(unit):
        region = unit.get("region")
        return [_vec(v) for v in region[3:].split(";")] if region else []

    def _hyperplanes(self, unit, data):
        """Output normals, checked to be exactly the input's lines."""
        normals = [_vec(h) for h in data["hyperplanes"]]
        lines = {_line_key(v) for v in self._input_roots(unit)}
        if len(normals) != len(lines) or \
                {_line_key(v) for v in normals} != lines:
            return None
        return normals

    def _chambers(self, unit, data, stats):
        normals = self._hyperplanes(unit, data)
        if normals is None or data["count"] != len(data["chambers"]):
            return False
        stats["arrangements.chambers"] += data["count"]
        if "expect_count" in unit and data["count"] != unit["expect_count"]:
            return False
        eqs = self._region_eqs(unit)
        seen = set()
        for ch in data["chambers"]:
            point = [Fraction(x) for x in ch["sample"]]
            signs = tuple(ch["signs"])
            if any(_dot(e, point) for e in eqs) or signs in seen or \
                    len(signs) != len(normals):
                return False
            seen.add(signs)
            for h, s in zip(normals, signs):
                v = _dot(h, point)
                if v == 0 or (v > 0) != (s > 0):
                    return False
        return True

    def _stable(self, unit, data, stats):
        roots = self._input_roots(unit)
        if data["feasible"]:
            point = [Fraction(x) for x in data["point"]]
            return all(_dot(r, point) < 0 for r in roots)
        weights = [(e["index"], Fraction(e["weight"]))
                   for e in data["certificate"]]
        if not weights or any(w < 0 for _i, w in weights) or \
                not any(w for _i, w in weights):
            return False
        total = [sum((w * roots[i][k] for i, w in weights), Fraction(0))
                 for k in range(len(roots[0]))]
        return not any(total)

    def _generic(self, unit, data, stats):
        normals = self._hyperplanes(unit, data)
        if normals is None:
            return False
        b1, b2 = (_vec(v) for v in unit["plane"].split(";"))
        restricted = [(_dot(h, b1), _dot(h, b2)) for h in normals]
        contained = any(a == 0 and b == 0 for a, b in restricted)
        shared = any(a1 * c2 == a2 * c1
                     for k, (a1, c1) in enumerate(restricted)
                     for a2, c2 in restricted[k + 1:])
        generic = not contained and not shared
        if data["generic"] != generic:
            return False
        if generic:
            return True
        witness = [_vec(w) for w in data["witness"]]
        if data["reason"] == "contained":
            return _dot(witness[0], b1) == 0 and _dot(witness[0], b2) == 0
        line = _vec(",".join(data["line"]))
        return any(line) and all(_dot(w, line) == 0 for w in witness) and \
            _rank([b1, b2, line]) == 2


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

class Symbol:
    cap_s = 30.0
    cold_units = False   # a library user holds the lattice across queries

    def setup(self, seed, workdir):
        data = inputs.symbol_inputs(seed)
        self.q, self.full, self.bilinear = \
            data["q"], data["full"], data["bilinear"]
        return [{"name": "%s%d" % ("member" if member else "nonmember", k),
                 "member": member, "items": items,
                 "expr": symbols.SymbolExpr.from_pairs(items)}
                for k, (member, items) in enumerate(data["queries"])]

    def run(self, unit):
        lattice = self.full if unit["member"] else self.bilinear
        return symbols.is_consequence(unit["expr"], lattice)

    def check(self, unit, result, stats):
        if result is CAPPED:
            return NOT_DONE
        stats["symbols.queries"] += 1
        stats["symbols.instances"] = \
            len(self.full.instances) + len(self.bilinear.instances)
        if result.is_consequence:
            stats["symbols.consequences"] += 1
        if unit["member"]:
            if not result.is_consequence:
                return WRONG
            acc = {}
            for idx, coeff in result.certificate:
                for key, c in self.full.instances[idx].vector:
                    acc[key] = acc.get(key, 0) + coeff * c
            acc = {k: v for k, v in acc.items() if v}
            if acc != unit["expr"].vector():
                return WRONG
            terms = len(result.certificate)
            bits = max((abs(c).bit_length() for _i, c in result.certificate),
                       default=0)
            stats["symbols.cert_terms"] += terms
            stats["symbols.certificates"] += 1
            stats["symbols.cert_terms_max"] = max(
                stats["symbols.cert_terms_max"], terms)
            stats["symbols.cert_bits_max"] = max(
                stats["symbols.cert_bits_max"], bits)
            return DONE
        if result.is_consequence:
            return WRONG
        for pr in self._vanishing_pairings():
            if inputs.pairing_value(unit["items"], *pr):
                return DONE
        return WRONG

    def _vanishing_pairings(self):
        if not hasattr(self, "_pairings"):
            self._pairings = [
                pr for pr in inputs.pairings(self.q)
                if not any(inputs.pairing_value(inst.vector, *pr)
                           for inst in self.bilinear.instances)]
        return self._pairings


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

class Reduce:
    cap_s = 10.0
    cold_units = True

    def setup(self, seed, workdir):
        units = []
        for k, w in enumerate(inputs.reduce_inputs(seed)):
            if not w["word"].is_cycle():
                raise RuntimeError("generated word %d is not a cycle" % k)
            path = os.path.join(workdir, "word%d.txt" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(w["word"].format() + "\n")
            units.append({"name": "%s-n%d-w%d" % (w["family"], w["n"], k),
                          "family": w["family"], "n": w["n"],
                          "word": w["word"],
                          "argv": ["reduce", "--model", w["family"], "--n",
                                   str(w["n"]), path, "--budget",
                                   str(inputs.REDUCE_BUDGET)]})
        return units

    def run(self, unit):
        return call_cli(unit["argv"])

    def check(self, unit, result, stats):
        if result is CAPPED:
            return NOT_DONE
        rc, out, _err = result
        if rc not in (0, 1):
            return WRONG
        data = json.loads(out)
        model = GroupModel(unit["family"], unit["n"])
        system = RestrictedSystem(model)

        def letters(texts):
            return tuple(GeneratorLetter.parse(t, model) for t in texts)

        try:
            initial = Word(system, letters(data["initial"]))
            moves = tuple(ReductionMove(m["kind"], m.get("relation"),
                                        m["position"], letters(m["removed"]),
                                        letters(m["inserted"]),
                                        Stability(False))
                          for m in data["moves"])
            ReductionTrace(initial, moves,
                           Word(system, letters(data["final"]))).replay()
        except ValueError:
            return WRONG
        if initial.letters != unit["word"].letters:
            return WRONG
        stats["cycles.trace_moves"] += len(moves)
        stats["cycles.moves_per_word_max"] = max(
            stats["cycles.moves_per_word_max"], len(moves))
        if data.get("failure") == "budget exhausted":
            stats["cycles.budget_exhausted"] += 1
        reduced = data["reduced"] and not data["final"]
        if reduced != (rc == 0):
            return WRONG
        return DONE if reduced else NOT_DONE


WORKLOADS = {
    "verify-grid": lambda: Verify("grid"),
    "verify-symbolic": lambda: Verify("symbolic"),
    "chambers": Chambers,
    "symbol": Symbol,
    "reduce": Reduce,
}
