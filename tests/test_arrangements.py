"""Arrangements: hyperplanes, genericity with witnesses, stability, chambers."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import arrangements, cycles
from chevalley.arrangements import (ArrangementError, Plane, _nullspace,
                                    _rank, find_stable_element, is_generic,
                                    lyapunov_hyperplanes, weyl_chambers)
from chevalley.cycles import RestrictedSystem, Word, reduce_cycle
from chevalley.generators import GroupModel
from chevalley.roots import (CartanVector, Root, build_root_system,
                             standard_sl_roots)
from chevalley.scalars import GaussianRational, LaurentFrac, ScalarError

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def nullspace_oracle(rows, dim):
    """Independent tiny solver used to confirm expected lines."""
    work = [[F(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        vec = [F(0)] * dim
        vec[free] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][free]
        basis.append(tuple(vec))
    return basis


def value_at(h, point):
    """The functional of hyperplane h at point, in exact arithmetic."""
    return sum(c * x for c, x in zip(h.normal, point, strict=True))


EXAMPLE_EQS = [[1, 1, 1, 1], [0, 1, 2, 3]]


class TestHyperplanes:
    def test_restricted_n2_gives_four(self):
        hps = lyapunov_hyperplanes(build_root_system(2).roots, 2)
        assert sorted(h.normal for h in hps) == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_sl4_standard_gives_six(self):
        assert len(lyapunov_hyperplanes(standard_sl_roots(4), 4)) == 6

    def test_single_long_root(self):
        hps = lyapunov_hyperplanes([Root.of(2, 1)], 2)
        assert len(hps) == 1 and hps[0].normal == (1, 0)

    def test_merged_labels_are_antipodal_or_proportional(self):
        hps = lyapunov_hyperplanes(build_root_system(2).roots, 2)
        for h in hps:
            base = h.labels[0]
            for other in h.labels[1:]:
                ratio = None
                for a, b in zip(base.coeffs, other.coeffs):
                    if (a == 0) != (b == 0):
                        ratio = "bad"
                        break
                    if a:
                        q = F(b, a)
                        if ratio is None:
                            ratio = q
                        elif ratio != q:
                            ratio = "bad"
                            break
                assert ratio != "bad", (base, other)

    def test_zero_functional_rejected(self):
        with pytest.raises(ArrangementError):
            lyapunov_hyperplanes([(0, 0)], 2)


class TestGenericity:
    def test_example_plane_non_generic_with_expected_witness(self):
        hps = lyapunov_hyperplanes(standard_sl_roots(4), 4)
        plane = Plane.from_equations(4, EXAMPLE_EQS)
        verdict = is_generic(plane, hps)
        assert not verdict.generic and verdict.reason == "shared-line"
        normals = {h.normal for h in verdict.witness_pair}
        assert normals == {(1, 0, 0, -1), (0, 1, -1, 0)}  # L1-L4 and L2-L3
        assert verdict.shared_line == (1, -1, -1, 1)

    def test_shared_line_against_independent_solver(self):
        # the line must solve both {plane equations + functional = 0} systems
        line = nullspace_oracle(EXAMPLE_EQS + [[1, 0, 0, -1]], 4)
        line2 = nullspace_oracle(EXAMPLE_EQS + [[0, 1, -1, 0]], 4)
        assert len(line) == 1 and len(line2) == 1
        v = line[0]
        scale = next(x for x in line2[0] if x)
        scale0 = next(x for x in v if x)
        assert tuple(x / scale0 for x in v) == \
            tuple(x / scale for x in line2[0])
        normalized = tuple(x / scale0 for x in v)
        assert normalized == (1, -1, -1, 1)

    def test_full_plane_n2_generic(self):
        hps = lyapunov_hyperplanes(build_root_system(2).roots, 2)
        assert is_generic(Plane.full(2), hps).generic

    def test_containment_witness(self):
        hps = lyapunov_hyperplanes([Root.of(2, 1, 2, 1, -1)], 2)
        # a 1-dimensional "plane" is rejected outright
        with pytest.raises(ArrangementError):
            is_generic(Plane(2, ((1, 1),)), hps)
        contained = Plane(4, ((1, 1, 0, 0), (0, 0, 1, 1)))
        hp44 = lyapunov_hyperplanes([Root.of(4, 1, 2, 1, -1)], 4)
        verdict = is_generic(contained, hp44)
        assert not verdict.generic and verdict.reason == "contained"

    def test_basis_change_invariance(self):
        hps = lyapunov_hyperplanes(standard_sl_roots(4), 4)
        p1 = Plane.from_equations(4, EXAMPLE_EQS)
        b1, b2 = p1.basis
        alt = Plane(4, (tuple(3 * x + y for x, y in zip(b1, b2)),
                        tuple(x - y for x, y in zip(b1, b2))),
                    p1.constraints)
        v1 = is_generic(p1, hps)
        v2 = is_generic(alt, hps)
        assert v1.generic == v2.generic
        assert {h.normal for h in v1.witness_pair} == \
            {h.normal for h in v2.witness_pair}
        assert v1.shared_line == v2.shared_line

    def test_dependent_basis_rejected(self):
        with pytest.raises(ArrangementError):
            Plane(3, ((1, 2, 3), (2, 4, 6)))

    @given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_random_plane_verdicts_are_self_certifying(self, b1, b2):
        # rank check: skip dependent picks
        m = [list(map(Fraction, b1)), list(map(Fraction, b2))]
        det_ok = any(m[0][i] * m[1][j] - m[0][j] * m[1][i]
                     for i in range(4) for j in range(i + 1, 4))
        if not det_ok:
            return
        plane = Plane(4, (tuple(b1), tuple(b2)))
        hps = lyapunov_hyperplanes(standard_sl_roots(4), 4)
        verdict = is_generic(plane, hps)
        if verdict.generic:
            return
        if verdict.reason == "contained":
            h = verdict.witness_pair[0]
            assert value_at(h, b1) == 0 and value_at(h, b2) == 0
        else:
            h1, h2 = verdict.witness_pair
            line = verdict.shared_line
            # the witness line lies on the plane and in both hyperplanes
            assert plane.contains(line)
            assert value_at(h1, line) == 0 and value_at(h2, line) == 0
            assert any(line)


class TestStableElements:
    def test_reference_points_validate(self):
        for point, roots in (((5, -8, 1, 2),
                              [Root.of(4, 3, 4, 1, -1), Root.of(4, 2, 3, 1, -1)]),
                             ((0, -1, 2, -1),
                              [Root.of(4, 1, 3, 1, -1), Root.of(4, 2, 3, 1, -1)])):
            assert all(r.eval(point) < 0 for r in roots)

    def test_found_point_strictly_negative(self):
        roots = [Root.of(4, 3, 4, 1, -1), Root.of(4, 2, 3, 1, -1)]
        res = find_stable_element(roots, ambient_dim=4)
        assert res.feasible
        assert all(r.eval(res.point) < 0 for r in roots)

    def test_on_region(self):
        plane = Plane.from_equations(4, EXAMPLE_EQS)
        roots = [Root.of(4, 3, 4, 1, -1), Root.of(4, 2, 3, 1, -1)]
        res = find_stable_element(roots, region=plane)
        assert res.feasible
        assert plane.contains(res.point)
        assert all(r.eval(res.point) < 0 for r in roots)

    def test_antipodal_certificate(self):
        r = Root.of(2, 1, 2, 1, -1)
        res = find_stable_element([r, -r], ambient_dim=2)
        assert not res.feasible
        # Farkas: nonnegative weights, not all zero, combination vanishes
        weights = dict(res.certificate)
        assert all(w >= 0 for w in weights.values()) and any(weights.values())
        combo = [F(0), F(0)]
        for idx, w in weights.items():
            vec = [r, -r][idx].coeffs
            combo = [c + w * x for c, x in zip(combo, vec)]
        assert not any(combo)

    def test_certificate_vanishes_on_region(self):
        # roots forced nonnegative-sum on the region: infeasible with proof
        plane = Plane(2, ((1, 1),))
        roots = [Root.of(2, 1, 2, 1, -1), Root.of(2, 2, 1, 1, -1)]
        res = find_stable_element(roots, region=plane)
        assert not res.feasible
        weights = dict(res.certificate)
        combo = [F(0), F(0)]
        for idx, w in weights.items():
            assert w >= 0
            combo = [c + w * x for c, x in zip(combo, roots[idx].coeffs)]
        # the combination need not vanish in ambient, but must on the region
        b = plane.basis[0]
        assert sum(c * x for c, x in zip(combo, b)) == 0

    def test_needs_roots(self):
        with pytest.raises(ArrangementError):
            find_stable_element([], ambient_dim=2)

    @given(st.sets(st.integers(0, 17), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_solver_always_proves_its_answer(self, picks):
        # every answer is self-certifying: a strictly-negative point, or
        # nonnegative weights combining the functionals to zero
        roots = build_root_system(3).roots
        chosen = [roots[k] for k in sorted(picks)]
        res = find_stable_element(chosen, ambient_dim=3)
        if res.feasible:
            assert all(r.eval(res.point) < 0 for r in chosen)
        else:
            weights = dict(res.certificate)
            assert all(w >= 0 for w in weights.values()) and weights
            combo = [Fraction(0)] * 3
            for idx, w in weights.items():
                combo = [c + w * x for c, x in zip(combo, chosen[idx].coeffs)]
            assert not any(combo)

    @given(st.sets(st.integers(0, 17), min_size=1, max_size=5),
           st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_solver_on_random_line_regions(self, picks, direction):
        if not any(direction):
            direction = [1, 0, 0]
        region = Plane(3, (tuple(direction),))
        roots = build_root_system(3).roots
        chosen = [roots[k] for k in sorted(picks)]
        res = find_stable_element(chosen, region=region)
        if res.feasible:
            assert region.contains(res.point)
            assert all(r.eval(res.point) < 0 for r in chosen)
        else:
            weights = dict(res.certificate)
            assert all(w >= 0 for w in weights.values()) and weights
            combo = [Fraction(0)] * 3
            for idx, w in weights.items():
                combo = [c + w * x for c, x in zip(combo, chosen[idx].coeffs)]
            # the weighted functional vanishes on the region
            assert sum(c * x for c, x in zip(combo, direction)) == 0

    @given(st.lists(st.integers(0, 17), min_size=1, max_size=5, unique=True),
           st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
               [F(1), F(2), F(3), F(3, 2), F(5, 3)])), max_size=6),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_duplicates_and_multiples_leave_the_answer(self, picks, pads,
                                                       on_line):
        # a multiple c*r with c >= 1 asks c*r(y) <= -1, which r(y) <= -1
        # implies; FM row merging keeps only the tightest of parallel rows,
        # so such padding moves no witness point, and every certificate
        # stays a Farkas certificate
        roots = build_root_system(3).roots
        plain = [tuple(F(c) for c in roots[k].coeffs) for k in picks]
        padded = list(plain)
        for at, factor in pads:
            padded.insert(at % (len(padded) + 1),
                          tuple(factor * c for c in plain[at % len(plain)]))
        region = Plane(3, ((1, -2, 1),)) if on_line else None
        want = find_stable_element(plain, region=region, ambient_dim=3)
        got = find_stable_element(padded, region=region, ambient_dim=3)
        assert got.feasible == want.feasible
        if got.feasible:
            assert got.point == want.point
            return
        weights = dict(got.certificate)
        assert all(w > 0 for w in weights.values()) and weights
        combo = [F(0)] * 3
        for idx, w in weights.items():
            combo = [c + w * x for c, x in zip(combo, padded[idx])]
        direction = region.basis[0] if on_line else None
        if direction is None:
            assert not any(combo)
        else:
            assert sum(c * x for c, x in zip(combo, direction)) == 0

    def test_padded_antipodal_pair_certificate(self):
        r = (F(1), F(-1))
        padded = [r, (F(2), F(-2)), (F(-1), F(1)), r, (F(-3), F(3))]
        res = find_stable_element(padded, ambient_dim=2)
        assert not res.feasible
        weights = dict(res.certificate)
        assert all(w > 0 for w in weights.values()) and weights
        assert not any(sum(w * padded[i][k] for i, w in weights.items())
                       for k in range(2))


def _builtin_root_lists():
    """(dimension, roots) for the restricted and sl-standard lists, n=2..4."""
    out = []
    for n in (2, 3, 4):
        out.append((n, list(build_root_system(n).roots)))
        out.append((2 * n, list(standard_sl_roots(2 * n))))
    return out


def _builtin_root_sets():
    """(dimension, roots): singles, adjacent pairs, three roots with their
    negatives, the positive half and seeded subsets of each builtin list."""
    rng = random.Random("full-space-route")
    out = []
    for dim, roots in _builtin_root_lists():
        out += [(dim, [r]) for r in roots]
        out += [(dim, [r, p]) for r, p in zip(roots, roots[1:])]
        out += [(dim, [r, -r]) for r in roots[:3]]
        out.append((dim, [r for r in roots if r.sort_key() > (-r).sort_key()]))
        out += [(dim, rng.sample(roots, min(len(roots), 6)))
                for _ in range(8)]
    return out


def _reduce_root_sets(case):
    """The root lists that reducing the word of one sl-r n=3 reduce golden
    hands to the solver."""
    text = (GOLDEN / ("reduce-sl-r-n3-%s.txt" % case)).read_text(
        encoding="utf-8")
    word_text = text.split("--- WORDFILE\n", 1)[1].split("--- stdout\n")[0]
    word = Word.parse(word_text, RestrictedSystem(GroupModel("sl-r", 3)))
    seen = []

    def record(roots, region=None, ambient_dim=None):
        seen.append((ambient_dim, list(roots)))
        return find_stable_element(roots, region, ambient_dim)

    real = cycles.find_stable_element
    cycles.find_stable_element = record
    try:
        reduce_cycle(word, budget=200)
    finally:
        cycles.find_stable_element = real
    return seen


class TestFullSpaceRoute:
    """With no region the solver works in ambient coordinates; the identity
    Plane route is its oracle, as values and as text."""

    @staticmethod
    def assert_same(roots, dim):
        got = find_stable_element(roots, ambient_dim=dim)
        want = find_stable_element(roots, region=Plane.full(dim))
        assert got == want
        assert got.describe(roots) == want.describe(roots)
        return got.feasible

    def test_builtin_root_sets(self):
        outcomes = [self.assert_same(roots, dim)
                    for dim, roots in _builtin_root_sets()]
        assert True in outcomes and False in outcomes

    def test_seeded_reduce_root_sets(self):
        # a seeded run solves only feasible sets in the full space; the
        # h-multiplicativity template adds the antipodal, infeasible ones
        seeded = _reduce_root_sets("seeded0")
        assert len(seeded) > 20
        assert {self.assert_same(roots, dim) for dim, roots in seeded} == \
            {True}
        hmult = _reduce_root_sets("h-multiplicativity")
        assert {self.assert_same(roots, dim) for dim, roots in hmult} == \
            {True, False}

    def test_ambient_dim_defaults_to_the_first_functional(self):
        roots = [Root.of(3, 1, 2, 1, -1), Root.of(3, 3)]
        assert find_stable_element(roots) == \
            find_stable_element(roots, region=Plane.full(3))
        with pytest.raises(ArrangementError, match="wrong dimension"):
            find_stable_element(roots + [Root.of(2, 1)])
        with pytest.raises(ArrangementError, match="wrong dimension"):
            find_stable_element(roots, ambient_dim=4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_chambers(self, n):
        hps = lyapunov_hyperplanes(build_root_system(n).roots, n)
        got = weyl_chambers(hps, ambient_dim=n)
        want = weyl_chambers(hps, region=Plane.full(n))
        assert got == want and got.describe() == want.describe()

    @pytest.mark.parametrize("region", [None, Plane.full(2),
                                        Plane(2, ((1, 2),))])
    def test_revalidation_catches_a_corrupted_lift(self, monkeypatch, region):
        real = arrangements._local_rows

        def corrupted(vecs, region, ambient_dim):
            rows, dim, lift = real(vecs, region, ambient_dim)
            return rows, dim, lambda ys: lift([-y for y in ys])

        roots = [Root.of(2, 1), Root.of(2, 2)]
        assert find_stable_element(roots, region, 2).feasible
        monkeypatch.setattr(arrangements, "_local_rows", corrupted)
        with pytest.raises(ArrangementError, match="point fails check 0"):
            find_stable_element(roots, region, 2)


def _seeded_functional_sets():
    """(n, roots, region): seeded subsets of the restricted roots at n=2..4,
    antipodal (infeasible) sets among them, each in the full space, on a
    line and on the hyperplane where the coordinates sum to zero."""
    rng = random.Random("int-functionals")
    out = []
    for n in (2, 3, 4):
        roots = list(build_root_system(n).roots)
        sets = [rng.sample(roots, rng.randint(1, min(len(roots), 5)))
                for _ in range(10)]
        sets += [[r, -r] for r in rng.sample(roots, 3)]
        sets += [rng.sample(roots, 3) + [-r] for r in rng.sample(roots, 3)]
        direction = tuple(rng.choice((-2, -1, 1, 3)) for _ in range(n))
        regions = (None, Plane(n, (direction,)),
                   Plane.from_equations(n, [(1,) * n]))
        out += [(n, chosen, region) for chosen in sets for region in regions]
    return out


class TestIntegerFunctionals:
    """Integer functionals, as Roots or int tuples, reach Fourier-Motzkin
    as ints; the answer is that of the same functionals as Fractions."""

    def test_same_answer_for_roots_ints_and_fractions(self):
        outcomes = set()
        for n, roots, region in _seeded_functional_sets():
            as_ints = [r.coeffs for r in roots]
            as_fractions = [tuple(F(c) for c in r.coeffs) for r in roots]
            want = find_stable_element(as_fractions, region, n)
            for given_as in (roots, as_ints, [list(v) for v in as_ints]):
                got = find_stable_element(given_as, region, n)
                assert got == want
                assert got.describe(roots) == want.describe(roots)
            if want.feasible:
                assert all(type(c) is Fraction for c in want.point.coords)
                assert region is None or region.contains(want.point)
                assert all(r.eval(want.point) < 0 for r in roots)
            else:
                assert all(type(w) is Fraction for _k, w in want.certificate)
            outcomes.add((region is None, want.feasible))
        assert outcomes == {(True, True), (True, False),
                            (False, True), (False, False)}

    def test_returned_coordinates_are_fractions(self):
        for roots in ([(1, 0)], [(0, -1)], [(1, -1), (1, 1)]):
            res = find_stable_element(roots, ambient_dim=2)
            assert res.feasible
            assert all(type(c) is Fraction for c in res.point.coords)
        res = find_stable_element([(1, -1)], region=Plane(2, ((1, 1),)))
        assert not res.feasible
        assert [type(w) for _k, w in res.certificate] == [Fraction]

    def test_no_int_reaches_row_reduce(self, monkeypatch):
        real = arrangements.row_reduce

        def fractions_only(rows, ncols):
            assert not any(type(x) is int for row in rows for x in row)
            return real(rows, ncols)

        monkeypatch.setattr(arrangements, "row_reduce", fractions_only)
        region = Plane(3, ((1, -2, 1),))
        res = find_stable_element([(1, 0, 0), (0, -1, 0)], region, 3)
        assert res.feasible and region.contains(res.point)
        assert region.contains((2, -4, 2))
        assert not region.contains((1, 0, 0))


# The ordered sign vectors of full-space restricted n=3, over its hyperplanes
# in lyapunov_hyperplanes order.  The order of the search is part of the
# output; the sample points are not, so only the signs are pinned.
RESTRICTED3_SIGNS = [
    "+++++++++", "++++++++-", "+++++++-+", "++++++-++", "++++++-+-",
    "+++++-++-", "++++-++-+", "++++-+-++", "++++-+--+", "+++-+++-+",
    "+++-+-++-", "+++-+-+-+", "+++-+-+--", "+++--++-+", "++-+++-+-",
    "++-++-++-", "++-++--+-", "++--+-++-", "+-+-+-+-+", "+-+-+-+--",
    "+-+--++-+", "+-+---+-+", "+---+-++-", "+---+-+--", "-+++-+-++",
    "-+++-+--+", "-+-+++-+-", "-+-++--+-", "-+-+-+-++", "-+-+-+-+-",
    "--++-+--+", "--+--++-+", "--+--+--+", "--+---+-+", "---++--+-",
    "---+-+-++", "---+-+-+-", "---+-+--+", "---+---+-", "----+-++-",
    "----+-+--", "----+--+-", "-----+--+", "------+-+", "------+--",
    "-------+-", "--------+", "---------",
]


def assert_chambers_certified(cm, region=None):
    """Every sample lies on the region, strictly on the signed side of every
    hyperplane, and no sign vector repeats."""
    assert len({signs for signs, _pt in cm.chambers}) == len(cm.chambers)
    for signs, pt in cm.chambers:
        assert region is None or region.contains(pt)
        for s, h in zip(signs, cm.hyperplanes, strict=True):
            assert s * value_at(h, pt) > 0


class TestChambers:
    def test_restricted_n2_eight(self):
        hps = lyapunov_hyperplanes(build_root_system(2).roots, 2)
        cm = weyl_chambers(hps, ambient_dim=2)
        assert len(cm) == 8

    def test_single_hyperplane_two(self):
        hps = lyapunov_hyperplanes([Root.of(2, 1)], 2)
        assert len(weyl_chambers(hps, ambient_dim=2)) == 2

    def test_sl4_trace_zero_gives_weyl_group_order(self):
        hps = lyapunov_hyperplanes(standard_sl_roots(4), 4)
        region = Plane.from_equations(4, [[1, 1, 1, 1]])
        assert len(weyl_chambers(hps, region=region)) == 24

    def test_samples_realize_signs(self):
        hps = lyapunov_hyperplanes(build_root_system(2).roots, 2)
        assert_chambers_certified(weyl_chambers(hps, ambient_dim=2))

    def test_restricted_n3_full_space(self):
        hps = lyapunov_hyperplanes(build_root_system(3).roots, 3)
        cm = weyl_chambers(hps, ambient_dim=3)
        assert len(cm) == 48
        assert_chambers_certified(cm)
        assert ["".join("+" if s > 0 else "-" for s in signs)
                for signs, _pt in cm.chambers] == RESTRICTED3_SIGNS

    def test_sl5_trace_zero_gives_weyl_group_order(self):
        hps = lyapunov_hyperplanes(standard_sl_roots(5), 5)
        region = Plane.from_equations(5, [[1, 1, 1, 1, 1]])
        cm = weyl_chambers(hps, region=region)
        assert len(cm) == 120
        assert_chambers_certified(cm, region)

    def test_a_sample_is_inherited_without_a_solve(self, monkeypatch):
        solves = []
        real = arrangements._strict_feasible

        def counted(rows, dim):
            solves.append(len(rows))
            return real(rows, dim)

        monkeypatch.setattr(arrangements, "_strict_feasible", counted)
        hps = lyapunov_hyperplanes([Root.of(2, 1), Root.of(2, 1, 2, 1, 1)],
                                   2)
        cm = weyl_chambers(hps, ambient_dim=2)
        assert_chambers_certified(cm)
        assert [signs for signs, _pt in cm.chambers] == \
            [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        # the origin lies on x = 0, so both depth-1 nodes solve; (2, 0) and
        # (-2, 0) each lie off x + y = 0, so one child of each inherits
        assert solves == [1, 2, 1, 2]
        assert cm.chambers[0][1] == CartanVector((F(2), F(0)))
        assert cm.chambers[3][1] == CartanVector((F(-2), F(0)))


def _annihilates(eqs, vec):
    return all(not sum((e * v for e, v in zip(eq, vec)), 0 * vec[0])
               for eq in eqs)


class TestRankAndNullspace:
    """The plane kernels are thin callers of matrices.row_reduce."""

    def test_rational(self):
        eqs = [tuple(F(x) for x in e) for e in EXAMPLE_EQS]
        assert _rank(eqs) == 2
        assert _rank(eqs + [tuple(a + b for a, b in zip(*eqs))]) == 2
        assert _rank([]) == 0
        basis = _nullspace(eqs, 4)
        assert basis == nullspace_oracle(EXAMPLE_EQS, 4)
        assert basis == [(1, -2, 1, 0), (2, -3, 0, 1)]

    def test_zero_rows_and_no_rows(self):
        zero = (F(0), F(0), F(0))
        assert _rank([zero, zero]) == 0
        assert _nullspace([zero], 3) == _nullspace([], 3) == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_gaussian(self):
        i, one, z = GaussianRational(0, 1), GaussianRational(1), \
            GaussianRational(0)
        eqs = [(i, one, z), (one, -i, z)]   # second row is -i times the first
        assert _rank(eqs) == 1
        basis = _nullspace(eqs, 3)
        assert len(basis) == 2
        assert all(_annihilates(eqs, v) for v in basis)
        assert _rank([(i, one, z), (one, i, z)]) == 2

    def test_laurent(self):
        t = LaurentFrac.symbol("t")
        one, z = LaurentFrac(1), LaurentFrac(0)
        eqs = [(t, one, z), (t * t, t, z)]   # second row is t times the first
        assert _rank(eqs) == 1
        basis = _nullspace(eqs, 3)
        assert basis[0][0] == -1 / t
        assert all(_annihilates(eqs, v) for v in basis)
        assert _rank([(t, one, z), (one, 2 / t, z)]) == 2
        # the second pivot t - 1/t is no unit of the Laurent-polynomial ring
        with pytest.raises(ScalarError):
            _rank([(t, one, z), (one, t, z)])

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for _ in range(80):
            dim = rng.randint(1, 5)
            eqs = [tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                   for _ in range(rng.randint(1, 4))]
            ref = sympy.Matrix([[int(x) for x in e] for e in eqs])
            assert _rank(eqs) == ref.rank()
            want = [tuple(F(str(x)) for x in v) for v in ref.nullspace()]
            assert _nullspace(eqs, dim) == want

    def test_from_equations_checks_lengths(self):
        with pytest.raises(ArrangementError):
            Plane.from_equations(2, [[1]])
        with pytest.raises(ArrangementError):
            Plane.from_equations(2, [[0]])
