"""Symbol lattice: axiom enumeration, consequences, certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.scalars import GaussianRational
from chevalley.symbols import (AXIOM_MINUS_SELF, BILINEAR_ONLY, SymbolError,
                               SymbolExpr, _add_multiple, _Echelon, _row_comb,
                               build_axiom_lattice, is_consequence,
                               replay_certificate)

F = Fraction


def certify(expr, lattice):
    res = is_consequence(expr, lattice)
    if res.is_consequence:
        assert replay_certificate(res, lattice) == dict(expr.vector())
    return res


class TestLatticeConstruction:
    def test_minus_self_instance_present(self):
        lat = build_axiom_lattice([2, -2, -1])
        assert any(inst.kind == "minus-self" and inst.args == (F(2),)
                   for inst in lat.instances)

    def test_one_minus_instance_present(self):
        lat = build_axiom_lattice([3, -2])
        assert any(inst.kind == "one-minus" and inst.args == (F(3),)
                   for inst in lat.instances)

    def test_unit_universe_forces_triviality(self):
        lat = build_axiom_lattice([1])
        res = certify(SymbolExpr.single(1, 1), lat)
        assert res.is_consequence

    def test_rejects_zero(self):
        with pytest.raises(SymbolError):
            build_axiom_lattice([0, 1])

    def test_universe_cap(self):
        with pytest.raises(SymbolError):
            build_axiom_lattice(list(range(1, 40)))

    def test_gaussian_universe(self):
        i = GaussianRational(0, 1)
        lat = build_axiom_lattice([i, -i, GaussianRational(1), GaussianRational(-1)])
        res = certify(SymbolExpr.single(i, -i), lat)
        assert res.is_consequence

    def test_real_products_of_gaussians_are_rationals(self):
        # (1+i)(1-i) = 2 is stored as the universe's rational 2
        g = GaussianRational(1, 1)
        lat = build_axiom_lattice([g, g.conjugate(), GaussianRational(2), -1])
        assert F(2) in lat.universe
        for inst in lat.instances:
            for (s, t), _c in inst.vector:
                for x in (s, t):
                    assert type(x) is Fraction or x.im


class TestConsequences:
    def test_direct_axiom(self):
        lat = build_axiom_lattice([1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2),
                                   F(1, 3), F(-1, 3), 6, -6, F(2, 3), F(-2, 3)])
        assert certify(SymbolExpr.single(2, -2), lat).is_consequence

    def test_derived_square_relation(self):
        # {t,t} = {t,-t}{t,-1} via bilinearity; so {2,2}{2,-1}^{-1} = 1
        lat = build_axiom_lattice([2, -2, -1, 1])
        expr = SymbolExpr.from_pairs([((2, 2), 1), ((2, -1), -1)])
        assert certify(expr, lat).is_consequence

    def test_bilinearity_only_rejects_fresh_symbol(self):
        lat = build_axiom_lattice([2, 3, 6], BILINEAR_ONLY)
        res = certify(SymbolExpr.single(2, 3), lat)
        assert not res.is_consequence
        assert res.residue  # leftover vector reported
        # nor is it a consequence of all the axioms
        lat = build_axiom_lattice([2, 3, 6])
        assert not is_consequence(SymbolExpr.single(2, 3), lat).is_consequence

    def test_antisymmetry_derivable_from_bilinearity_and_minus_self(self):
        lat = build_axiom_lattice([2, 3, 6, -2, -3, -6, 1, -1],
                                  BILINEAR_ONLY + (AXIOM_MINUS_SELF,))
        expr = SymbolExpr.from_pairs([((2, 3), 1), ((3, 2), 1)])
        assert certify(expr, lat).is_consequence

    def test_empty_expression_trivially_consequence(self):
        lat = build_axiom_lattice([2, -2])
        res = certify(SymbolExpr.from_pairs([]), lat)
        assert res.is_consequence and res.certificate == ()

    def test_inverse_and_product_of_consequences(self):
        lat = build_axiom_lattice([1, -1, 2, -2, 3, -3, 6, -6])
        e1 = SymbolExpr.single(2, -2)
        e2 = SymbolExpr.single(3, -3)
        assert certify(e1 * e2, lat).is_consequence
        assert certify(e1.inverse(), lat).is_consequence


# captured from the engine that rebuilt the echelon for every query
BENCH_MEMBER_CERTIFICATE = (
    (5, 3), (6, -3), (12, 2), (13, -2), (32, 1), (34, -4), (37, 1), (38, 10),
    (40, 2), (41, -2), (46, -1), (48, 4), (51, -1), (52, -10), (54, -2),
    (55, 2), (57, 1), (62, 1), (63, -1), (64, 4), (90, 3), (96, -2), (97, 2),
    (100, -2), (102, -1), (104, 1), (107, -1), (130, -1), (132, 4), (135, -1),
    (136, -10), (138, -2), (139, 2), (188, 3), (192, -10), (194, -2),
    (195, 2), (644, -3), (645, 4), (646, 4), (672, 12), (673, -12),
    (674, -10), (686, -5), (687, 4), (688, 4), (699, -4), (700, 4), (713, -1),
    (714, 2), (727, -5), (755, 4), (756, -4), (757, -4), (769, -6), (770, 5),
    (771, 4), (825, -2), (826, 2), (1287, 2), (1288, -2), (1289, -6),
    (1392, -10), (1393, 4), (1395, 4),
)


class TestCachedEchelon:
    def test_two_queries_insert_each_instance_once(self, monkeypatch):
        calls = []
        insert = _Echelon.insert

        def counted(self, row, combo):
            calls.append(1)
            return insert(self, row, combo)

        monkeypatch.setattr(_Echelon, "insert", counted)
        lat = build_axiom_lattice([1, -1, 2, -2, 3, -3, 6, -6])
        assert certify(SymbolExpr.single(2, -2), lat).is_consequence
        assert not is_consequence(SymbolExpr.single(F(5, 7), 3),
                                  lat).is_consequence
        assert len(calls) == len(lat.instances)

    def test_queried_lattice_equals_and_hashes_like_a_fresh_one(self):
        universe = [1, -1, 2, -2, 3, -3, 6, -6]
        lat = build_axiom_lattice(universe)
        certify(SymbolExpr.single(3, -3), lat)
        fresh = build_axiom_lattice(universe)
        assert lat == fresh and fresh == lat
        assert hash(lat) == hash(fresh)
        assert len({lat, fresh}) == 1

    def test_foreign_pairs_in_one_gap_keep_their_own_residue_entries(self):
        # {-1,3} and {-1,5} use no instance and both sort between the
        # lattice columns (-1,2) and (2,-2); {-2,2} reduces first, and the
        # reduction stops at {-1,3}, leaving the entries after it
        lat = build_axiom_lattice([2, -2, -1])
        expr = SymbolExpr.from_pairs([((-2, 2), 1), ((-1, 3), 1),
                                      ((-1, 5), 1)])
        res = is_consequence(expr, lat)
        assert not res.is_consequence
        assert res.residue == (((F(-1), F(3)), 1), ((F(-1), F(5)), 1),
                               ((F(2), F(-2)), 1), ((F(2), F(-1)), 2))

    def test_bench_member_certificate(self):
        # the 14 units of the benchmark's seed 1
        base = [F(1), F(2), F(7), F(1, 2), F(1, 7), F(14), F(2, 7)]
        lat = build_axiom_lattice(base + [-x for x in base])
        assert len(lat.instances) == 1409
        acc = {}
        for idx, c in ((5, 3), (100, -2), (777, 1), (1024, -1), (1301, 2)):
            _add_multiple(acc, c, lat.instances[idx].vector)
        expr = SymbolExpr.from_pairs(acc.items())
        res = certify(expr, lat)
        assert res.certificate == BENCH_MEMBER_CERTIFICATE


class TestLatticeClosure:
    @given(st.lists(st.tuples(st.integers(0, 400), st.integers(-2, 2)),
                    min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_random_axiom_combinations_are_consequences(self, combo):
        # any integer combination of axiom instances must be certified,
        # and its certificate must replay to the exact exponent vector
        lat = build_axiom_lattice([1, -1, 2, -2, 3, -3, 6, -6])
        acc = {}
        for raw_idx, coeff in combo:
            inst = lat.instances[raw_idx % len(lat.instances)]
            for key, c in inst.vector:
                w = acc.get(key, 0) + coeff * c
                if w:
                    acc[key] = w
                else:
                    acc.pop(key, None)
        expr = SymbolExpr.from_pairs([(k, e) for k, e in acc.items()])
        res = is_consequence(expr, lat)
        assert res.is_consequence
        assert replay_certificate(res, lat) == dict(expr.vector())


class TestSoundness:
    def test_certificate_pairs_stay_in_universe(self):
        universe = [1, -1, 2, -2, 4, -4]
        lat = build_axiom_lattice(universe)
        res = is_consequence(SymbolExpr.single(2, -2), lat)
        members = set(lat.universe)
        for idx, _c in res.certificate:
            for (s, t), _e in lat.instances[idx].vector:
                assert s in members and t in members


class TestExprCanonicalization:
    def test_dedup_and_zero_drop(self):
        expr = SymbolExpr.from_pairs([((2, 3), 1), ((2, 3), 2), ((3, 2), 0)])
        assert expr.pairs == ((( F(2), F(3)), 3),)

    def test_rejects_zero_arguments(self):
        with pytest.raises(SymbolError):
            SymbolExpr.single(0, 2)

    def test_rejects_non_integer_exponents(self):
        for e in (1.5, True, F(1), "1"):
            with pytest.raises(SymbolError):
                SymbolExpr.from_pairs([((2, 3), e)])

    def test_real_gaussian_arguments_are_rationals(self):
        expr = SymbolExpr.single(GaussianRational(2), GaussianRational(3, 0))
        assert expr == SymbolExpr.single(2, 3)
        assert all(type(x) is Fraction for x in expr.pairs[0][0])

    def test_str(self):
        expr = SymbolExpr.from_pairs([((2, -2), 1), ((3, 5), -2)])
        assert str(expr) in ("{2,-2}*{3,5}^-2", "{3,5}^-2*{2,-2}")


class TestRowUpdate:
    def test_add_multiple_in_place_drops_zeros(self):
        row = {"a": 2, "b": 1}
        out = _add_multiple(row, -2, [("a", 1), ("c", 3)])
        assert out is row
        assert row == {"b": 1, "c": -6}

    def test_row_comb_leaves_inputs(self):
        r1, r2 = {"a": 3, "b": 1}, {"a": 2, "c": 5}
        assert _row_comb(r1, 2, r2, -3) == {"b": 2, "c": -15}
        assert (r1, r2) == ({"a": 3, "b": 1}, {"a": 2, "c": 5})
