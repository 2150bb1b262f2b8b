"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Every check is exact (no floating point exists in the package); the stated
runtime targets are asserted with time.perf_counter.  Run with -s to see one
PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from chevalley.arrangements import Plane, is_generic, lyapunov_hyperplanes
from chevalley.cycles import (ElementaryLetter, RestrictedSystem,
                              StandardSystem, Word,
                              enumerate_bracket_decompositions, reduce_cycle)
from chevalley.generators import (GeneratorLetter, GroupModel, gen_h,
                                  h_word_letters)
from chevalley.matrices import (ExactMatrix, mat_inv, mat_mul, mat_prod)
from chevalley.relations import (DEFAULT_GRID, decompose_commutator,
                                 fit_structure_functions, run_suite)
from chevalley.roots import Root, build_root_system, standard_sl_roots
from chevalley.scalars import GaussianRational, LaurentFrac, ScalarError
from chevalley.symbols import (BILINEAR_ONLY, SymbolExpr, build_axiom_lattice,
                               is_consequence, replay_certificate)

F = Fraction
FAMILIES = ("sp", "sl-r", "sl-c")


def _report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %d: %s - %s" % (num, tag, detail))
    assert ok, detail


def test_criterion_1_relation_suites():
    """Grid regime for n in {2,3,4}, symbolic for n in {2,3}, all models."""
    t0 = time.perf_counter()
    failures = []
    counted = 0
    for family in FAMILIES:
        for n in (2, 3, 4):
            reports = run_suite(GroupModel(family, n), "relations", "grid")
            counted += len(reports)
            failures += [r for r in reports if not r.passed]
    for family in FAMILIES:
        for n in (2, 3):
            reports = run_suite(GroupModel(family, n), "relations", "symbolic")
            counted += len(reports)
            failures += [r for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, ok,
            "relation suites: %d reports, %d failures, %.1fs (target <60s)"
            % (counted, len(failures), elapsed))


def test_criterion_2_commutator_oracle_equivalence():
    """Exhaustive ordered pairs, n in {2,3}: dense-matrix oracle agreement
    and exact structure-function bidegrees."""
    t0 = time.perf_counter()
    pairs = 0
    sample = ((F(2),), (F(-3), F(5, 7)))
    for family in FAMILIES:
        for n in (2, 3):
            model = GroupModel(family, n)
            system = build_root_system(n)
            for r in system.roots:
                for p in system.roots:
                    if all(a + b == 0 for a, b in zip(r.coeffs, p.coeffs)):
                        continue
                    pairs += 1
                    a = sample[model.param_arity(r) - 1]
                    b = tuple(reversed(sample[model.param_arity(p) - 1]))
                    factors, laws = decompose_commutator(model, r, p, a, b)
                    for law in laws:
                        assert law.bidegree_ok(), (family, n, r, p)
                    # independent dense oracle
                    xr = GeneratorLetter(model, "x", r, a).matrix()
                    xp = GeneratorLetter(model, "x", p, b).matrix()
                    dense = mat_prod([xr, xp, mat_inv(xr), mat_inv(xp)])
                    rhs = mat_prod(
                        [GeneratorLetter(model, "x", q, vals).matrix()
                         for q, vals in factors], size=model.size)
                    assert dense == rhs, (family, n, r, p)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(2, ok, "commutator oracle: %d ordered pairs across all models, "
            "%.1fs (target <30s)" % (pairs, elapsed))


def test_criterion_3_conjugation_and_display_suites():
    """Conjugation, decomposition, and monomial displays for n in {2,3}."""
    t0 = time.perf_counter()
    failures = []
    seen_ids = set()
    for family in FAMILIES:
        for n in (2, 3):
            model = GroupModel(family, n)
            for suite in ("weyl", "monomial"):
                reports = run_suite(model, suite, "grid")
                seen_ids |= {r.relation_id for r in reports}
                failures += [r for r in reports if not r.passed]
    expected = ({"weyl-conj-%d" % k for k in range(1, 7)}
                | {"weyl-w-conj-%d" % k for k in range(1, 4)}
                | {"weyl-component-conj", "w-inversion"}
                | {"h-decomposition-square", "h-decomposition-pair",
                   "h-decomposition-pair-inverse", "h-decomposition-split"}
                | {"monomial-form-%d" % k for k in range(1, 8)})
    missing = expected - seen_ids
    elapsed = time.perf_counter() - t0
    ok = not failures and not missing
    _report(3, ok, "conjugation/display suites: %d failures, missing ids %s, %.1fs"
            % (len(failures), sorted(missing), elapsed))


def _diagonal(size, entries):
    """The diagonal matrix with entries {i: value}, ones elsewhere."""
    return ExactMatrix.sparse(size, {(i, i): entries.get(i, 1)
                                     for i in range(1, size + 1)})


def test_criterion_4_diagonal_forms():
    """h_{L1-L2}(t) and h_{2Ln}(-1) explicit diagonals for n in {2,3,4}."""
    checked = 0
    for n in (2, 3, 4):
        model = GroupModel("sp", n)
        r12 = Root.of(n, 1, 2, 1, -1)
        for t in DEFAULT_GRID:
            h = gen_h(model, r12, (t,))
            expected = _diagonal(2 * n, {1: t, 2: 1 / t, n + 1: 1 / t,
                                         n + 2: t})
            assert h == expected, (n, t)
            checked += 1
        ln = Root.of(n, n)
        hn = gen_h(model, ln, (F(-1),))
        expected = _diagonal(2 * n, {n: F(-1), 2 * n: F(-1)})
        assert hn == expected, n
        assert mat_mul(hn, hn) == ExactMatrix.identity(2 * n), n
        checked += 1
    _report(4, True, "diagonal forms exact at %d instances" % checked)


def test_criterion_5_plane_example_reproduction():
    """Non-generic plane with witness pair and shared line; stable points;
    bracket decomposition with evaluation-exact replay."""
    hps = lyapunov_hyperplanes(standard_sl_roots(4), 4)
    plane = Plane.from_equations(4, [[1, 1, 1, 1], [0, 1, 2, 3]])
    verdict = is_generic(plane, hps)
    ok = (not verdict.generic
          and {h.normal for h in verdict.witness_pair}
          == {(1, 0, 0, -1), (0, 1, -1, 0)}
          and verdict.shared_line == (1, -1, -1, 1))

    companions = [Root.of(4, 2, 3, 1, -1)]
    stable_sets = (((5, -8, 1, 2), Root.of(4, 3, 4, 1, -1)),
                   ((0, -1, 2, -1), Root.of(4, 1, 3, 1, -1)))
    for point, root in stable_sets:
        ok = ok and plane.contains(point) and root.eval(point) < 0 \
            and companions[0].eval(point) < 0

    system = StandardSystem(4)
    target = ElementaryLetter(4, 1, 4, F(7, 3))
    decs = list(enumerate_bracket_decompositions(system, target, region=plane,
                                                 companions=companions))
    via13 = [d for d in decs if (d.left.k, d.left.l) == (1, 3)
             and (d.right.k, d.right.l) == (3, 4)]
    ok = ok and bool(via13)
    if via13:
        d = via13[0]
        ok = ok and d.right.param == 1 and d.left.param == F(7, 3)
        # evaluation-exact replay through dense matrices
        lm, rm = d.left.matrix(), d.right.matrix()
        comm = mat_prod([lm, rm, mat_inv(lm), mat_inv(rm)])
        ok = ok and comm == target.matrix()
        for witness in (d.witness_left, d.witness_right):
            ok = ok and plane.contains(witness)
    _report(5, ok, "plane example: non-generic witness pair, shared line "
            "(1,-1,-1,1), stable points validated, bracket replay exact")


def test_criterion_6_reduction_engine():
    """Identity-words of the four special-linear relation families reduce to
    the empty word; every trace replays with constant evaluation."""
    words = 0
    worst = 0.0
    for family in ("sl-r", "sl-c"):
        for n in (2, 3):
            model = GroupModel(family, n)
            system = RestrictedSystem(model)
            rs = build_root_system(n)
            z = F(0)
            cases = []

            # additivity word
            r = Root.of(n, 1, 2, 1, -1)
            cases.append([system.letter(r, (F(2), F(3))),
                          system.letter(r, (F(5), F(-3))),
                          system.letter(r, (F(-7), z))])
            # commutator word (string pair) and trivial-commutator word
            rr, pp = Root.of(n, 1, 2, 1, -1), Root.of(n, 2)
            laws = fit_structure_functions(model, rr, pp)
            a, b = (F(2), F(-1)), (F(3),)
            lr, lp = system.letter(rr, a), system.letter(pp, b)
            factors = [system.letter(law.target, law.evaluate(a, b))
                       for law in laws]
            cases.append([lr, lp, lr.inverse(), lp.inverse()]
                         + [f.inverse() for f in reversed(factors)])
            la, lb = system.letter(Root.of(n, 1), (F(2),)), \
                system.letter(Root.of(n, 2), (F(3),))
            cases.append([la, lb, la.inverse(), lb.inverse()])
            # the 12-letter h-multiplicativity word (18 raw letters)
            t1, t2 = F(3), F(-5)
            cases.append(
                h_word_letters(model, r, (t1, z))
                + h_word_letters(model, r, (t2, z))
                + [l.inverse() for l in
                   reversed(h_word_letters(model, r, (t1 * t2, z)))])

            for letters in cases:
                w = Word(system, tuple(letters))
                t0 = time.perf_counter()
                trace = reduce_cycle(w, budget=10000)
                dt = time.perf_counter() - t0
                worst = max(worst, dt)
                assert trace.reduced_to_empty, (family, n, len(letters))
                assert trace.replay()
                assert dt < 10.0
                words += 1
    _report(6, True, "reduction: %d identity-words reduced and replayed, "
            "worst %.2fs/word (target <10s)" % (words, worst))


def test_criterion_7_symbol_engine():
    t0 = time.perf_counter()
    universe = [1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2),
                F(1, 3), F(-1, 3), 6, -6, F(2, 3), F(-2, 3)]
    full = build_axiom_lattice(universe)
    bilinear = build_axiom_lattice(universe, BILINEAR_ONLY)

    direct = SymbolExpr.single(2, -2)
    res1 = is_consequence(direct, full)
    ok = res1.is_consequence and \
        replay_certificate(res1, full) == dict(direct.vector())

    derived = SymbolExpr.from_pairs([((2, 2), 1), ((2, -1), -1)])
    res2 = is_consequence(derived, full)
    ok = ok and res2.is_consequence and \
        replay_certificate(res2, full) == dict(derived.vector())

    rejected = is_consequence(SymbolExpr.single(2, 3), bilinear)
    ok = ok and not rejected.is_consequence

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(7, ok, "symbol engine: axiom + derived certified with replay, "
            "{2,3} rejected under bilinearity, %.2fs (target <5s)" % elapsed)


def _small_enough(x):
    if isinstance(x, F):
        return abs(x.numerator) < 10 ** 9 and x.denominator < 10 ** 9
    if isinstance(x, GaussianRational):
        return _small_enough(x.re) and _small_enough(x.im)
    return len(x.terms) <= 10 and \
        all(_small_enough(c) for c in x.terms.values())


def _is_unit(x):
    """Nonzero and, in the Laurent-polynomial ring, a monomial."""
    return bool(x) and (not isinstance(x, LaurentFrac) or
                        len(x.terms) == 1)


def test_criterion_8_exactness_round_trips():
    """10^4 mixed operations never leave canonical form, and a Laurent
    division by a non-unit is refused."""
    rng = random.Random(271828)
    ops = rejected = 0

    def rand_fraction():
        return F(rng.randrange(-40, 41), rng.randrange(1, 13))

    pool_r = [rand_fraction() for _ in range(8)]
    pool_g = [GaussianRational(rand_fraction(), rand_fraction())
              for _ in range(8)]
    t_sym = LaurentFrac.symbol("t")
    s_sym = LaurentFrac.symbol("s")
    pool_l = [t_sym, s_sym, t_sym + 1, 1 / (t_sym * s_sym), LaurentFrac(2)]

    def assert_canonical(x):
        if isinstance(x, F):
            from math import gcd
            assert x.denominator > 0
            assert gcd(abs(x.numerator), x.denominator) == 1
        elif isinstance(x, GaussianRational):
            for part in (x.re, x.im):
                from math import gcd
                assert part.denominator > 0
                assert gcd(abs(part.numerator), part.denominator) == 1
        else:
            assert x.is_canonical()

    while ops < 10000:
        for pool in (pool_r, pool_g, pool_l):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            op = rng.randrange(4)
            if op == 0:
                c = a + b
            elif op == 1:
                c = a - b
            elif op == 2:
                c = a * b
            elif _is_unit(b):
                c = a / b
            else:
                if b:
                    with pytest.raises(ScalarError):
                        a / b
                    rejected += 1
                c = a * b
            assert_canonical(c)
            # feed results back only while they stay small, else repeated
            # products grow numerators exponentially and the run measures
            # bigint gcd instead of normalization behaviour
            if _small_enough(c):
                pool[rng.randrange(len(pool))] = c
            ops += 1
        if ops % 2500 < 3:
            # splice in exact matrix work on the rational pool
            m = ExactMatrix([[pool_r[0], pool_r[1], 0, 0],
                             [pool_r[2], 1, 0, 0],
                             [0, 0, 1, pool_r[3]],
                             [0, 0, 0, 1]])
            try:
                inv = mat_inv(m)
                for row in inv.rows:
                    for x in row:
                        assert_canonical(x)
            except ZeroDivisionError:
                pass
    _report(8, rejected > 0, "exactness: %d mixed operations stayed canonical,"
            " %d non-unit Laurent divisions refused" % (ops, rejected))
