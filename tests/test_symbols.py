"""Symbol lattice: axiom enumeration, consequences, certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.scalars import GaussianRational
from chevalley.symbols import (AXIOM_MINUS_SELF, BILINEAR_ONLY, SymbolError,
                               SymbolExpr, _add_multiple, _row_comb,
                               build_axiom_lattice, is_consequence,
                               matrix_realization_check, replay_certificate)

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
    def test_matrix_realization_is_identity(self):
        # h-multiplicativity holds in the matrix group, so every symbol is
        # matrix-trivial; anything the engine certifies must realize to I
        exprs = [SymbolExpr.single(2, -2),
                 SymbolExpr.from_pairs([((2, 2), 1), ((2, -1), -1)]),
                 SymbolExpr.single(F(5, 7), -3),
                 SymbolExpr.single(GaussianRational(1, 1),
                                   GaussianRational(2, -1))]
        for expr in exprs:
            assert matrix_realization_check(expr)

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
