"""Root systems, functional evaluation, and root-string combinations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import roots
from chevalley.roots import (CartanVector, Root, RootError,
                             build_root_system, positive_combinations,
                             root_at, standard_sl_roots)


class TestBuild:
    def test_n2_root_list(self):
        rs = build_root_system(2)
        coeffs = {r.coeffs for r in rs.roots}
        assert coeffs == {(1, -1), (-1, 1), (1, 1), (-1, -1),
                          (2, 0), (-2, 0), (0, 2), (0, -2)}
        assert len(rs.roots) == 8

    def test_n2_simple_roots(self):
        rs = build_root_system(2)
        assert [r.coeffs for r in rs.simple] == [(1, -1), (0, 2)]

    def test_n3_count(self):
        # 2*C(3,2)*2 short + 2*3 long = 18
        assert len(build_root_system(3).roots) == 18

    def test_positive_negative_partition(self):
        for n in (2, 3, 4):
            rs = build_root_system(n)
            assert {(-r).coeffs for r in rs.roots} == {r.coeffs for r in rs.roots}
            pos = set(r.coeffs for r in rs.positive)
            neg = {(-r).coeffs for r in rs.positive}
            assert pos | neg == {r.coeffs for r in rs.roots}
            assert not pos & neg
            assert all(s.coeffs in pos for s in rs.simple)

    def test_positive_roots_are_simple_combinations(self):
        for n in (2, 3):
            rs = build_root_system(n)
            simple = [s.coeffs for s in rs.simple]
            for r in rs.positive:
                combo = _express_in_simple(r.coeffs, simple)
                assert combo is not None, r
                assert all(c >= 0 for c in combo)

    def test_rejects_rank_one(self):
        with pytest.raises(RootError):
            build_root_system(1)

    def test_root_at_gives_the_systems_roots_without_ordering_them(self):
        for n in (2, 3, 4, 5):
            built = roots.build_root_system.cache_info().currsize
            assert root_at((0,) * (n - 1) + (-2,)) == Root.of(n, n, si=-1)
            assert roots.build_root_system.cache_info().currsize == built
            system = build_root_system(n)
            assert all(root_at(r.coeffs) is r for r in system.roots)
        with pytest.raises(RootError):
            root_at((1, 1, 1))
        with pytest.raises(RootError):
            root_at((2,))

    def test_ordering_deterministic(self):
        a = [r.coeffs for r in build_root_system(3).roots]
        b = [r.coeffs for r in build_root_system(3).roots]
        assert a == b
        heights = [r.height() for r in build_root_system(3).roots]
        assert heights == sorted(heights)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_roots_sorted_by_key_and_positive_by_height(self, n):
        # the builder reads each height once, off the sort key
        system = build_root_system(n)
        assert list(system.roots) == sorted(system.roots, key=Root.sort_key)
        assert system.positive == tuple(r for r in system.roots
                                        if r.height() > 0)
        assert len(system.positive) == len(system.roots) // 2


def _express_in_simple(target, simple):
    # brute-force small nonnegative integer combinations
    import itertools
    for combo in itertools.product(range(0, 8), repeat=len(simple)):
        vec = tuple(sum(c * s[k] for c, s in zip(combo, simple))
                    for k in range(len(target)))
        if vec == tuple(target):
            return combo
    return None


class TestEval:
    def test_example_point_value(self):
        r = Root.of(4, 3, 4, 1, -1)  # L3 - L4
        assert r.eval((5, -8, 1, 2)) == -1

    def test_long_root_at_zero(self):
        assert Root.of(4, 1).eval((0, 0, 0, 0)) == 0

    def test_second_example_value(self):
        r = Root.of(4, 2, 3, 1, -1)  # L2 - L3
        assert r.eval((0, -1, 2, -1)) == -3

    def test_dimension_mismatch(self):
        with pytest.raises(RootError):
            Root.of(2, 1).eval((1, 2, 3))

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=6),
           st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=4),
                    min_size=3, max_size=3),
           st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=4),
                    min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, s, t, u):
        for r in build_root_system(3).roots[:6]:
            combo = tuple(s * a + b for a, b in zip(t, u))
            assert r.eval(combo) == s * r.eval(t) + r.eval(u)

    def test_tag_is_ignored_by_eval(self):
        r = Root((1, -1), restricted_tag=2)
        assert r.eval((3, 1)) == r.untagged().eval((3, 1)) == 2


class TestCombinations:
    def brute(self, r, p):
        rs = build_root_system(r.n)
        out = []
        for i in range(1, 6):
            for j in range(1, 6):
                vec = tuple(i * a + j * b for a, b in zip(r.coeffs, p.coeffs))
                if any(vec) and rs.is_root(vec):
                    out.append((i, j, vec))
        return sorted(out, key=lambda t: (t[0] + t[1], t[0]))

    def test_short_long_string(self):
        r = Root.of(2, 1, 2, 1, -1)
        p = Root.of(2, 2)
        got = [(i, j, q.coeffs) for i, j, q in positive_combinations(r, p)]
        assert got == [(1, 1, (1, 1)), (2, 1, (2, 0))]
        assert got == self.brute(r, p)

    def test_short_short_chain(self):
        r = Root.of(3, 1, 2, 1, -1)
        p = Root.of(3, 2, 3, 1, -1)
        got = [(i, j, q.coeffs) for i, j, q in positive_combinations(r, p)]
        assert got == [(1, 1, (1, 0, -1))]

    def test_two_longs_empty(self):
        assert positive_combinations(Root.of(2, 1), Root.of(2, 2)) == []

    def test_antipodal_rejected(self):
        r = Root.of(2, 1, 2, 1, -1)
        with pytest.raises(RootError):
            positive_combinations(r, -r)

    def test_exhaustive_matches_brute_force_and_is_short(self):
        for n in (2, 3):
            rs = build_root_system(n)
            for r in rs.roots:
                for p in rs.roots:
                    if all(a + b == 0 for a, b in zip(r.coeffs, p.coeffs)):
                        continue
                    got = [(i, j, q.coeffs)
                           for i, j, q in positive_combinations(r, p)]
                    assert got == self.brute(r, p)
                    assert all(i + j <= 3 for i, j, _ in got)


class TestParsing:
    def test_round_trip(self):
        r = Root.parse("1,0,-1")
        assert r.coeffs == (1, 0, -1) and r.restricted_tag is None
        assert Root.parse(r.format()) == r

    def test_tag_suffix(self):
        r = Root.parse("0,1,-1:2")
        assert r.restricted_tag == 2
        assert r.format() == "0,1,-1:2"

    def test_rejects_bad_shapes(self):
        # the coefficients are integer tokens in a list with no empty item,
        # and the tag is exactly ":1" or ":2"
        for bad in ("0,0", "1,1,1", "3,0", "2,1", "1_0,-1", "\u0661,-1",
                    "1,-1,", "1,-1:+1", "1.0,-1", "1,-1:", "1,-1:1:1",
                    ":1", "1,-1:01"):
            with pytest.raises(RootError):
                Root.parse(bad)

    def test_spaces_around_separators(self):
        assert Root.parse(" 1 , -1 : 2 ") == Root((1, -1), 2)

    def test_non_integral_coefficients_are_refused(self):
        # never truncated: (5/2, -1/2) is not the root 2L1
        with pytest.raises(RootError):
            Root((Fraction(5, 2), Fraction(-1, 2)))
        assert Root((Fraction(2), 0)) == Root((2, 0))

    def test_long_roots_refuse_tags(self):
        with pytest.raises(RootError):
            Root((2, 0), restricted_tag=1)


class TestStandardRoots:
    def test_count_and_shape(self):
        roots = standard_sl_roots(4)
        assert len(roots) == 12
        assert all(sorted(abs(c) for c in r.coeffs if c) == [1, 1]
                   for r in roots)

    def test_cartan_vector(self):
        v = CartanVector((1, Fraction(1, 2)))
        assert v.ambient_dim == 2 and v[1] == Fraction(1, 2)
        assert str(v) == "1,1/2"
