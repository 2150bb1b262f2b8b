"""Seeded input generation for the five benchmark workloads.

Every generator draws from a ``random.Random`` keyed by the workload seed,
so the same seed always gives the same inputs; ``describe`` renders a
workload's inputs as canonical text, which the seed tests compare byte for
byte.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from chevalley import symbols
from chevalley.cycles import RestrictedSystem, Word
from chevalley.generators import GroupModel
from chevalley.relations import fit_structure_functions
from chevalley.roots import build_root_system, standard_sl_roots

FAMILIES = ("sp", "sl-r", "sl-c")

# verify-grid runs the n=3 cells only: one n=4 cell alone (sl-c, ~17 s) is
# longer than a whole benchmark run may take.
GRID_CELLS = tuple((fam, 3) for fam in FAMILIES)
SYMBOLIC_CELLS = tuple((fam, n) for n in (2, 3, 4) for fam in FAMILIES)
GRID_SIZE = 11

SUB_ARRANGEMENTS = 9        # restricted n=4 sub-arrangements per pass
SUB_HYPERPLANES = 11        # of the 16 restricted n=4 hyperplanes
# one query per outcome: a feasible and an infeasible stable query, a generic
# and a non-generic plane; they feed the per-layer solver metrics
STABLE_RANK = 8             # stable queries: 40 roots of the n=8 system
STABLE_ROOTS = 40

# |U| = 14: {±1, ±2, ±q, ±1/2, ±1/q, ±2q, ±2/q} for a prime q >= 5.  Every
# such universe has the same multiplicative and one-minus structure, so the
# lattices have equal size and the query cost does not swing with the seed.
UNIVERSE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                   61, 67, 71, 73, 79, 83, 89, 97)
MEMBER_QUERIES = 4
NONMEMBER_QUERIES = 4

REDUCE_CELLS = tuple((fam, n) for fam in FAMILIES for n in (3, 4))
# 408 words: per-word cost is heavy-tailed, so fewer words let the sum swing
# with the seed; every cell gets the same mix of 3, 4, 5 and 6 blocks
WORDS_PER_CELL = 68
# the words that exhaust a budget of a few hundred moves exhaust it at 200,
# 250 and 300 alike; their cost grows with the budget and their number with
# the seed, so a larger budget makes wall_s swing with the seed
REDUCE_BUDGET = 200
WORD_VALUES = tuple(Fraction(v) for v in
                    ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "2/3",
                     "-3/2"))


def rng_for(seed, salt):
    return random.Random("%s:%s" % (seed, salt))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# values p/q with 1 <= p, q <= 5 by height max(p, q), and how many of each
# height a grid takes, so every seed's grid costs about the same to sweep
GRID_HEIGHTS = ((1, 2), (2, 3), (3, 3), (4, 2), (5, 1))


def seeded_grid(rng):
    """11 distinct real, nonzero rationals with a fixed height profile."""
    values = []
    for height, count in GRID_HEIGHTS:
        pool = sorted({Fraction(p, q) * sign
                       for p in range(1, height + 1)
                       for q in range(1, height + 1)
                       for sign in (1, -1)
                       if max(Fraction(p, q).numerator,
                              Fraction(p, q).denominator) == height})
        values += rng.sample(pool, count)
    rng.shuffle(values)
    return tuple(values)


def verify_grid_inputs(seed):
    rng = rng_for(seed, "verify-grid")
    return {"grid": seeded_grid(rng), "cells": list(GRID_CELLS)}


def verify_symbolic_inputs(seed):
    rng = rng_for(seed, "verify-symbolic")
    cells = list(SYMBOLIC_CELLS)
    rng.shuffle(cells)
    return {"cells": cells}


def verify_argv(fam, n, regime, grid=None):
    argv = ["verify", "--model", fam, "--n", str(n), "--suite", "all",
            "--regime", regime]
    if grid is not None:
        argv.append("--grid=" + ",".join(str(g) for g in grid))
    return argv


# ---------------------------------------------------------------------------
# chambers
# ---------------------------------------------------------------------------

def _roots_text(roots):
    return "".join(r.format() + "\n" for r in roots)


def _hyperplane_roots(n):
    """One root per hyperplane of the restricted system (r and -r merge)."""
    return [r for r in build_root_system(n).roots
            if next(c for c in r.coeffs if c) > 0]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _generic_plane(roots, b1, b2):
    """Whether span(b1, b2) is a plane meeting no two hyperplanes of
    ``roots`` in the same line and lying in none of them."""
    if not any(b1[i] * b2[j] != b1[j] * b2[i]
               for i in range(len(b1)) for j in range(i)):
        return False      # b1 and b2 do not span a plane
    restricted = [(_dot(r.coeffs, b1), _dot(r.coeffs, b2)) for r in roots]
    return all(a or c for a, c in restricted) and not any(
        a1 * c2 == a2 * c1 for k, (a1, c1) in enumerate(restricted)
        for a2, c2 in restricted[k + 1:])


def chambers_inputs(seed):
    """Units in run order: chambers enumerations, stable and generic queries.

    ``roots`` is the text of a roots file, or None for a builtin system.
    """
    rng = rng_for(seed, "chambers")
    units = []
    planes = _hyperplane_roots(4)
    for k in range(SUB_ARRANGEMENTS):
        sub = rng.sample(planes, SUB_HYPERPLANES)
        sub = [r if rng.random() < 0.5 else -r for r in sub]
        units.append({"kind": "chambers", "name": "restricted4-sub%d" % k,
                      "roots": _roots_text(sub), "ambient": 4,
                      "region": None})
    units.append({"kind": "chambers", "name": "sl5-trace-zero",
                  "roots": _roots_text(standard_sl_roots(5)), "ambient": 5,
                  "region": "eq:1,1,1,1,1", "expect_count": 120})
    # does not finish today (ROADMAP item 4): it counts in done_ratio only,
    # so the day it finishes its time does not read as a wall_s regression;
    # it runs in a run's first pass only, which spares the others its cap
    units.append({"kind": "chambers", "name": "sl-standard-n3",
                  "roots": None, "builtin": "builtin:sl-standard", "n": 3,
                  "region": "eq:1,1,1,1,1,1", "expect_count": 720,
                  "timed": False, "first_pass_only": True})
    all_roots = list(build_root_system(STABLE_RANK).roots)
    for feasible in (True, False):
        # roots negative at a seeded point; the infeasible query swaps one
        # of them for the negative of another
        while True:
            t = [rng.randint(-9, 9) for _ in range(STABLE_RANK)]
            neg = [r for r in all_roots if _dot(r.coeffs, t) < 0]
            if len(neg) >= STABLE_ROOTS:
                break
        chosen = rng.sample(neg, STABLE_ROOTS)
        if not feasible:
            chosen[0] = -chosen[-1]
        units.append({"kind": "stable",
                      "name": "stable-%s" % ("feasible" if feasible
                                             else "infeasible"),
                      "roots": _roots_text(chosen), "ambient": STABLE_RANK,
                      "region": None})
    for generic in (True, False):
        while True:
            # a plane containing the line of L_1 + L_2 is never generic
            b1 = [rng.randint(-5, 5) for _ in range(4)] if generic else \
                [1, 1, 0, 0]
            b2 = [rng.randint(-5, 5) for _ in range(4)]
            if _generic_plane(planes, b1, b2) == generic:
                break
        units.append({"kind": "generic",
                      "name": "generic" if generic else "non-generic",
                      "roots": None, "builtin": "builtin:restricted", "n": 4,
                      "plane": "%s;%s" % (",".join(map(str, b1)),
                                          ",".join(map(str, b2)))})
    rng.shuffle(units)
    return units


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

def seeded_universe(seed):
    q = UNIVERSE_PRIMES[seed % len(UNIVERSE_PRIMES)]
    base = (Fraction(1), Fraction(2), Fraction(q), Fraction(1, 2),
            Fraction(1, q), Fraction(2 * q), Fraction(2, q))
    return tuple(x for b in base for x in (b, -b)), q


def member_query(rng, instances):
    """A planted integer combination of lattice instances (never empty)."""
    while True:
        acc = {}
        for _ in range(rng.randint(3, 6)):
            inst = instances[rng.randrange(len(instances))]
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for key, e in inst.vector:
                acc[key] = acc.get(key, 0) + c * e
        items = [(k, e) for k, e in acc.items() if e]
        if items:
            return items


def _valuation(x, p):
    if p == "sign":
        return 1 if x < 0 else 0
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def pairings(q):
    """(chi, psi, modulus) of the functionals sum e * chi(s) * psi(t) built
    from the valuations v_2, v_q and the sign (mod 2 when a sign is used)."""
    return [(chi, psi, 2 if "sign" in (chi, psi) else 0)
            for chi in (2, q, "sign") for psi in (2, q, "sign")]


def pairing_value(items, chi, psi, mod):
    total = sum(e * _valuation(s, chi) * _valuation(t, psi)
                for (s, t), e in items)
    return total % mod if mod else total


def symbol_inputs(seed):
    """Universe, the two lattices and the query stream of one seed."""
    universe, q = seeded_universe(seed)
    # module-qualified, so a traced run sees the calls
    full = symbols.build_axiom_lattice(universe, symbols.ALL_AXIOMS)
    bilinear = symbols.build_axiom_lattice(universe, symbols.BILINEAR_ONLY)
    rng = rng_for(seed, "symbol")
    queries = []
    for _ in range(MEMBER_QUERIES):
        queries.append((True, member_query(rng, full.instances)))
    pairs = pairings(q)
    for _ in range(NONMEMBER_QUERIES):
        while True:
            items = [((rng.choice(universe), rng.choice(universe)),
                      rng.choice((-2, -1, 1, 2)))
                     for _ in range(rng.randint(1, 3))]
            if any(pairing_value(items, *pr) for pr in pairs):
                break
        queries.append((False, items))
    rng.shuffle(queries)
    return {"universe": universe, "q": q, "full": full, "bilinear": bilinear,
            "queries": queries}


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _params(rng, model, root):
    return tuple(rng.choice(WORD_VALUES) for _ in range(model.param_arity(root)))


def identity_word(rng, system, roots, blocks):
    """``blocks`` blocks u [x_r(a), x_p(b)] (structure factors)^-1 u^-1."""
    model = system.model
    letters = []
    for _ in range(blocks):
        while True:
            r, p = rng.choice(roots), rng.choice(roots)
            if any(x + y for x, y in zip(r.coeffs, p.coeffs)):
                break
        a, b = _params(rng, model, r), _params(rng, model, p)
        lr, lp = system.letter(r, a), system.letter(p, b)
        rsum = tuple(x + y for x, y in zip(r.coeffs, p.coeffs))
        factors = []
        if system.system.is_root(rsum):
            factors = [system.letter(law.target, law.evaluate(a, b))
                       for law in fit_structure_functions(model, r, p)]
        ur = rng.choice(roots)
        u = system.letter(ur, _params(rng, model, ur))
        letters += [u, lr, lp, lr.inverse(), lp.inverse()]
        letters += [f.inverse() for f in reversed(factors)]
        letters.append(u.inverse())
    return letters


def reduce_inputs(seed):
    """Seeded identity words; the caller confirms each is a cycle."""
    rng = rng_for(seed, "reduce")
    words = []
    for fam, n in REDUCE_CELLS:
        system = RestrictedSystem(GroupModel(fam, n))
        roots = list(system.system.roots)
        for k in range(WORDS_PER_CELL):
            word = Word(system, tuple(identity_word(rng, system, roots,
                                                    3 + k % 4)))
            words.append({"family": fam, "n": n, "word": word})
    rng.shuffle(words)
    return words


# ---------------------------------------------------------------------------
# canonical text, for the seed tests
# ---------------------------------------------------------------------------

def describe(workload, seed):
    if workload == "verify-grid":
        data = verify_grid_inputs(seed)
        data = {"grid": [str(g) for g in data["grid"]], "cells": data["cells"]}
    elif workload == "verify-symbolic":
        data = verify_symbolic_inputs(seed)
    elif workload == "chambers":
        data = chambers_inputs(seed)
    elif workload == "symbol":
        data = symbol_inputs(seed)
        data = {"universe": [str(u) for u in data["universe"]],
                "queries": [[member, [[str(s), str(t), e]
                                      for (s, t), e in items]]
                            for member, items in data["queries"]]}
    elif workload == "reduce":
        data = [[w["family"], w["n"], w["word"].format()]
                for w in reduce_inputs(seed)]
    else:
        raise ValueError("unknown workload %r" % workload)
    return json.dumps(data, sort_keys=True)

