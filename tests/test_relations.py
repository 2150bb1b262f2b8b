"""Relation verification: oracles, structure laws, suites, both regimes."""

import itertools
import random
from dataclasses import fields, replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import generators, relations
from chevalley.generators import (GeneratorError, GeneratorLetter, GroupModel,
                                  MonomialForm, gen_h, gen_x, h_reference,
                                  letter_positions)
from chevalley.matrices import (ExactMatrix, delta_to_matrix, mat_inv, mat_mul,
                                mat_prod, matrix_to_delta)
from chevalley.relations import (DEFAULT_GRID, Designs, Relation,
                                 RelationError, StructureFunction,
                                 _commutator, _sweep,
                                 commutator_delta, decompose_commutator,
                                 delta_mul, delta_word,
                                 fit_structure_functions, grid_for_model,
                                 h_delta, run_suite, symbolic_params,
                                 verify_additivity, verify_commutator,
                                 w_delta, x_delta)
from chevalley.roots import Root, RootError, build_root_system
from chevalley.scalars import (GaussianRational, LaurentFrac, format_scalar,
                               parse_scalar)

SP2 = GroupModel("sp", 2)
SP3 = GroupModel("sp", 3)
SL2 = GroupModel("sl-r", 2)
SL3 = GroupModel("sl-r", 3)
SLC2 = GroupModel("sl-c", 2)

F = Fraction


def _letters(model, regime, r, p):
    """The letter design of x_r(a), x_p(b): the default grid's or symbols."""
    return Designs.of(regime, DEFAULT_GRID).letters[
        model.param_arity(r), model.param_arity(p)]


def dense_commutator(model, r, p, a, b):
    """Independent oracle: the commutator via dense matrix products."""
    xr = GeneratorLetter(model, "x", r, a).matrix()
    xp = GeneratorLetter(model, "x", p, b).matrix()
    return mat_prod([xr, xp, mat_inv(xr), mat_inv(xp)])


class TestDeltaRoute:
    def test_delta_matches_dense_letters(self):
        for model in (SP2, SL2):
            for r in build_root_system(2).roots:
                params = (F(5, 7),) * model.param_arity(r)
                dm = delta_to_matrix(x_delta(model, r, params), model.size)
                assert dm == GeneratorLetter(model, "x", r, params).matrix()

    def test_w_h_deltas_match_dense(self):
        for model in (SP2, SL2):
            r = Root.of(2, 1, 2, 1, -1)
            params = (F(3),) if model.is_sp else (F(3), F(-2))
            wd = delta_to_matrix(w_delta(model, r, params), 4)
            hd = delta_to_matrix(h_delta(model, r, params), 4)
            from chevalley.generators import gen_w
            assert wd == gen_w(model, r, params)[0]
            assert hd == gen_h(model, r, params)

    def test_commutator_delta_matches_dense(self):
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        a, b = (F(2),), (F(3),)
        got = delta_to_matrix(commutator_delta(SP2, r, p, a, b), 4)
        assert got == dense_commutator(SP2, r, p, a, b)

    def test_matrix_delta_round_trip(self):
        m = ExactMatrix([[0, 2, 0, 0], [1, 0, 0, 0],
                         [0, 0, 1, 5], [0, 0, 0, 1]])
        assert delta_to_matrix(matrix_to_delta(m), 4) == m

    @pytest.mark.parametrize("mode", ["rational", "gaussian", "laurent"])
    def test_monomial_form_delta_matches_dense(self, mode):
        # seeded p(pi) diag(d): fixed points with d = 1 (pruned) and d != 1,
        # moved columns, and entries of the named mode beside rationals;
        # from_delta reads each form back off its delta
        pool = {"rational": [F(-1), F(2, 3), F(-5)],
                "gaussian": [GaussianRational(0, 1), GaussianRational(2, -1),
                             F(-1)],
                "laurent": [LaurentFrac.symbol("a"), -LaurentFrac.symbol("b"),
                            1 / LaurentFrac.symbol("a")]}[mode] + [F(1)] * 2
        rng = random.Random("monomial-delta:" + mode)
        for size in (2, 4, 6, 8):
            for _ in range(40):
                perm = list(range(1, size + 1))
                moved = rng.sample(range(size), rng.randint(0, size))
                for k, v in zip(moved, rng.sample(moved, len(moved))):
                    perm[k] = v + 1
                form = MonomialForm(tuple(perm),
                                    tuple(rng.choice(pool) for _ in perm))
                assert form.delta() == matrix_to_delta(form.to_matrix())
                assert MonomialForm.from_delta(form.delta(), size) == form

    @pytest.mark.parametrize("delta", [
        {(1, 2): F(3)},                      # column 2 holds two entries
        {(1, 1): F(-1)},                     # column 1 is zero
        {(1, 2): F(3), (2, 2): F(-1)}],      # row 1 holds two columns
        ids=["two-in-a-column", "zero-column", "row-repeats"])
    def test_non_monomial_delta_is_rejected(self, delta):
        with pytest.raises(GeneratorError, match="not monomial"):
            MonomialForm.from_delta(delta, 4)


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
deltas = st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                         small.filter(bool), max_size=6)


class TestSharedLetterDeltas:
    """A commutator sweep shares one x-letter delta across many products."""

    @given(st.lists(deltas, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_products_never_mutate_their_arguments(self, ds):
        # random sparse deltas, so sums and products cancel entries
        snapshot = [dict(d) for d in ds]
        out = delta_word(ds)
        assert ds == snapshot
        assert all(out is not d for d in ds)
        for a, b in zip(ds, ds[1:] + ds[:1]):
            out = delta_mul(a, b)
            assert ds == snapshot
            assert out is not a and out is not b

    @pytest.mark.parametrize("model,r,p", [
        (SP3, Root.of(3, 1, 2, 1, -1), Root.of(3, 2)),       # two factors
        (SL3, Root.of(3, 1, 2, 1, -1), Root.of(3, 2, 3, 1, 1)),
        (SL3, Root.of(3, 1), Root.of(3, 2))])                # trivial
    def test_sweep_builds_each_slot_tuple_once(self, model, r, p,
                                               monkeypatch):
        tuples = _letters(model, "grid", r, p)
        if build_root_system(3).is_root(r + p):
            laws = fit_structure_functions(model, r, p)
            rel = _commutator(model, r, p, laws, tuples)
        else:
            laws = ()
            rel = _commutator(model, r, p, (), tuples)
        built = []
        real = relations.x_delta
        monkeypatch.setattr(relations, "x_delta", lambda model, root, params:
                            built.append(root) or real(model, root, params))
        assert _sweep(model, "grid", rel).passed
        # one x_r(a) per distinct a and one x_p(b) per distinct b, and no
        # inverse letter; the structure factors x_q are built per instance
        distinct = len({a for a, _b in tuples}) + len({b for _a, b in tuples})
        assert built.count(r) + built.count(p) == distinct

        def dense(root, params):
            return delta_to_matrix(real(model, root, params), model.size)

        # the sides are X Y and F Y X for X = x_r(a), Y = x_p(b) and F the
        # product of the structure factors
        for a, b in tuples[::7]:
            x, y = dense(r, a), dense(p, b)
            f = mat_prod([ExactMatrix.identity(model.size)]
                         + [dense(law.target, law.evaluate(a, b))
                            for law in laws])
            lhs, rhs = rel.sides(a, b)
            assert delta_to_matrix(lhs, model.size) == mat_mul(x, y)
            assert delta_to_matrix(rhs, model.size) == mat_prod([f, y, x])


def _row_index_mul(a, b):
    """The product kernel as it was before the scan: a row index of b for
    every call; the reference for values and key order."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = v
        else:
            cur = cur + v
            if cur:
                out[k] = cur
            else:
                del out[k]
    if a and b:
        rows_b = {}
        for (i, j), v in b.items():
            rows_b.setdefault(i, []).append((j, v))
        for (i, k), va in a.items():
            for j, vb in rows_b.get(k, ()):
                key = (i, j)
                cur = out.get(key)
                p = va * vb
                if cur is None:
                    if p:
                        out[key] = p
                else:
                    cur = cur + p
                    if cur:
                        out[key] = cur
                    else:
                        del out[key]
    return out


class TestProductKernel:
    """delta_mul scans the right operand instead of indexing its rows; it
    gives the reference's dict with the reference's key order."""

    POOLS = {
        "rational": [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)],
        "gaussian": [GaussianRational(1, 1), GaussianRational(-1, -1),
                     GaussianRational(0, 1), GaussianRational(0, -1), F(1),
                     F(-1)],
        "laurent": [LaurentFrac.symbol("a"), -LaurentFrac.symbol("a"),
                    1 / LaurentFrac.symbol("b"), -1 / LaurentFrac.symbol("b"),
                    F(1), F(-1)],
    }

    @pytest.mark.parametrize("mode", sorted(POOLS))
    def test_matches_the_row_index_kernel(self, mode):
        # values that are each other's negatives on a 4x4 support, so sums
        # and products cancel entries; right operands of 0 to 16 entries,
        # twice the largest any command's workload multiplies by
        pool = self.POOLS[mode]
        rng = random.Random("product-kernel:" + mode)

        def delta(size):
            out = {}
            while len(out) < size:
                out[rng.randint(1, 4), rng.randint(1, 4)] = rng.choice(pool)
            return out

        cancelled = 0
        for _ in range(300):
            a, b = delta(rng.randint(0, 8)), delta(rng.randint(0, 16))
            got, want = delta_mul(a, b), _row_index_mul(a, b)
            assert got == want
            assert list(got) == list(want)
            cancelled += len(got) < len(set(a) | set(b))
        assert cancelled


class TestAdditivity:
    def test_zero_case(self):
        rep = verify_additivity(SP2, Root.of(2, 1), (F(0),), (F(0),))
        assert rep.passed

    def test_sp_long_root_hand_values(self):
        # (I + 2 e13)(I + 3 e13) = I + 5 e13
        rep = verify_additivity(SP2, Root.of(2, 1), (F(2),), (F(3),))
        assert rep.passed
        lhs = mat_mul(GeneratorLetter(SP2, "x", Root.of(2, 1), (F(2),)).matrix(),
                      GeneratorLetter(SP2, "x", Root.of(2, 1), (F(3),)).matrix())
        assert lhs == GeneratorLetter(SP2, "x", Root.of(2, 1), (F(5),)).matrix()

    def test_sl_componentwise(self):
        rep = verify_additivity(SL2, Root.of(2, 1, 2, 1, -1),
                                (F(1), F(2)), (F(3), F(-2)))
        assert rep.passed
        got = mat_mul(
            GeneratorLetter(SL2, "x", Root.of(2, 1, 2, 1, -1), (F(1), F(2))).matrix(),
            GeneratorLetter(SL2, "x", Root.of(2, 1, 2, 1, -1), (F(3), F(-2))).matrix())
        assert got == GeneratorLetter(SL2, "x", Root.of(2, 1, 2, 1, -1),
                                      (F(4), F(0))).matrix()


class TestCommutator:
    @pytest.mark.parametrize("p", [Root.of(3, 2), Root.of(3, 3)],
                             ids=["non-trivial", "trivial"])
    def test_roots_of_another_rank_are_rejected(self, p):
        # rank-3 roots on an n=2 model: no report over relabelled positions,
        # whether r + p is a root (L1+L2) or not (L1-L2+2L3)
        with pytest.raises(GeneratorError, match="rank 3"):
            verify_commutator(SP2, Root.of(3, 1, 2, 1, -1), p, (F(1),),
                              (F(1),))

    def test_chain_single_factor_sp(self):
        # [x_{L1-L2}(a), x_{L2-L3}(b)] = x_{L1-L3}(c a b) for some integer c
        r, p = Root.of(3, 1, 2, 1, -1), Root.of(3, 2, 3, 1, -1)
        a, b = (F(2),), (F(5),)
        factors, laws = decompose_commutator(SP3, r, p, a, b)
        assert len(factors) == 1
        q, vals = factors[0]
        assert q.coeffs == (1, 0, -1)
        assert vals[0] / (a[0] * b[0]) in (F(1), F(-1))
        # oracle: reassembled dense product equals the dense commutator
        dense = dense_commutator(SP3, r, p, a, b)
        assert dense == GeneratorLetter(SP3, "x", q, vals).matrix()

    def test_sl_bilinear_chain(self):
        # [x_{L1-L2}(a1,a2), x_{L2-L3}(b1,b2)] lands at L1-L3 with
        # components (±a1 b1, ±a2 b2)
        r, p = Root.of(3, 1, 2, 1, -1), Root.of(3, 2, 3, 1, -1)
        a, b = (F(2), F(3)), (F(5), F(7))
        factors, laws = decompose_commutator(SL3, r, p, a, b)
        assert len(factors) == 1
        q, vals = factors[0]
        assert q.coeffs == (1, 0, -1)
        assert abs(vals[0]) == 10 and abs(vals[1]) == 21
        assert dense_commutator(SL3, r, p, a, b) == \
            GeneratorLetter(SL3, "x", q, vals).matrix()
        # a tagged root takes one of the two components; decompose is the
        # one command path on which a tagged root reaches the fitted laws
        for tagged in (Root(r.coeffs, 1), Root(r.coeffs, 2)):
            factors, _laws = decompose_commutator(SL3, tagged, p, a[:1], b)
            assert [q.coeffs for q, _vals in factors] == [(1, 0, -1)]
            assert dense_commutator(SL3, tagged, p, a[:1], b) == mat_prod(
                [GeneratorLetter(SL3, "x", q, vals).matrix()
                 for q, vals in factors])

    def test_short_long_string_two_factors(self):
        # [x_{L1-L2}(a), x_{2L2}(b)] has factors at L1+L2 and 2L1 with
        # monomial laws c1*a*b and c2*a^2*b, c in {±1, ±2}
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        a, b = (F(3),), (F(5),)
        factors, laws = decompose_commutator(SP2, r, p, a, b)
        assert [q.coeffs for q, _ in factors] == [(1, 1), (2, 0)]
        (q1, v1), (q2, v2) = factors
        c1 = v1[0] / (a[0] * b[0])
        c2 = v2[0] / (a[0] ** 2 * b[0])
        assert c1 in (F(1), F(-1), F(2), F(-2))
        assert c2 in (F(1), F(-1), F(2), F(-2))
        rhs = mat_mul(GeneratorLetter(SP2, "x", q1, v1).matrix(),
                      GeneratorLetter(SP2, "x", q2, v2).matrix())
        assert dense_commutator(SP2, r, p, a, b) == rhs

    def test_sl_determinant_law(self):
        # [x_{L1-L2}(a), x_{L1+L2}(b)] hits 2L1 with parameter a1 b2 - a2 b1
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 1, 2, 1, 1)
        laws = fit_structure_functions(SL2, r, p)
        assert len(laws) == 1 and laws[0].target.coeffs == (2, 0)
        a, b = (F(2), F(3)), (F(5), F(7))
        vals = laws[0].evaluate(a, b)
        assert vals[0] in (a[0] * b[1] - a[1] * b[0],
                           a[1] * b[0] - a[0] * b[1])
        assert dense_commutator(SL2, r, p, a, b) == \
            GeneratorLetter(SL2, "x", laws[0].target, vals).matrix()

    def test_bidegrees_exact(self):
        for model in (SP2, SL2):
            system = build_root_system(2)
            for r in system.roots:
                for p in system.roots:
                    rsum = tuple(x + y for x, y in zip(r.coeffs, p.coeffs))
                    if not any(rsum) or not system.is_root(rsum):
                        continue
                    for law in fit_structure_functions(model, r, p):
                        assert law.bidegree_ok()

    def test_antipodal_rejected(self):
        r = Root.of(2, 1, 2, 1, -1)
        with pytest.raises(RelationError):
            decompose_commutator(SP2, r, -r, (F(1),), (F(1),))

    def test_gaussian_parameters(self):
        i = GaussianRational(0, 1)
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        a = (GaussianRational(1, 1), GaussianRational(0, -1))
        b = (GaussianRational(2, -1),)
        rep = verify_commutator(SLC2, r, p, a, b)
        assert rep.passed
        assert dense_commutator(SLC2, r, p, a, b) == \
            delta_to_matrix(commutator_delta(SLC2, r, p, a, b), 4)
        assert i * i == F(-1)


class TestTrivialCommutator:
    """verify_commutator on a pair with r+p outside the system fits no law
    and gives the trivial-commutator report."""

    @staticmethod
    def trivial(model, r, p, a, b):
        rep = verify_commutator(model, r, p, a, b)
        assert rep.relation_id == "trivial-commutator"
        return rep

    def test_two_long_roots(self):
        assert self.trivial(SP2, Root.of(2, 1), Root.of(2, 2),
                            (F(2),), (F(3),)).passed

    def test_disjoint_short_roots(self):
        assert self.trivial(GroupModel("sp", 4), Root.of(4, 1, 2, 1, -1),
                            Root.of(4, 3, 4, 1, -1), (F(2),), (F(3),)).passed

    def test_zero_parameter(self):
        assert self.trivial(SP2, Root.of(2, 1), Root.of(2, 2),
                            (F(0),), (F(3),)).passed

    def test_rejects_string_pairs(self):
        # a pair summing to a root never gets the trivial report
        rep = verify_commutator(SP2, Root.of(2, 1, 2, 1, -1), Root.of(2, 2),
                                (F(1),), (F(1),))
        assert rep.passed and rep.relation_id == "commutator"

    def test_rejects_antipodal_pair(self):
        r = Root.of(2, 1, 2, 1, -1)
        with pytest.raises(RelationError, match="antipodal"):
            verify_commutator(SP2, r, -r, (F(1),), (F(1),))


R12, R23 = Root.of(3, 1, 2, 1, -1), Root.of(3, 2, 3, 1, -1)


def _bent(laws, k, factor):
    """laws with slot 0 of law k multiplied by factor."""
    law = laws[k]
    slots = (law.slot_laws[0] * factor,) + law.slot_laws[1:]
    return laws[:k] + (replace(law, slot_laws=slots),) + laws[k + 1:]


class TestCommutedCommutator:
    """[X, Y] = F is checked as X Y = F Y X, which is equivalent in any
    group; these records must still catch a wrong F."""

    @pytest.mark.parametrize("model", [SP3, SL3])
    def test_trivial_record_fails_on_a_pair_summing_to_a_root(self, model):
        tuples = _letters(model, "grid", R12, R23)
        rep = _sweep(model, "grid",
                     _commutator(model, R12, R23, (), tuples))
        assert not rep.passed
        # the witness reads one entry of X Y and the same entry of Y X
        a, b = tuples[rep.instances - 1]
        x, y = x_delta(model, R12, a), x_delta(model, R23, b)
        entry = tuple(rep.witness["entry"])
        for side, delta in (("lhs", delta_mul(x, y)),
                            ("rhs", delta_mul(y, x))):
            assert rep.witness[side] == format_scalar(delta.get(entry, F(0)))

    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    @pytest.mark.parametrize("factor", [-1, 2])
    @pytest.mark.parametrize("model,r,p", [
        (SP2, Root.of(2, 1, 2, 1, -1), Root.of(2, 2)),       # two laws
        (SL3, R12, R23),                                     # two slots
        (SL2, Root.of(2, 1, 2, 1, -1), Root.of(2, 1, 2, 1, 1))])  # a1b2-a2b1
    def test_a_bent_law_fails(self, model, r, p, factor, regime):
        tuples = _letters(model, regime, r, p)
        laws = fit_structure_functions(model, r, p)
        assert _sweep(model, regime,
                      _commutator(model, r, p, laws, tuples)).passed
        for k in range(len(laws)):
            rel = _commutator(model, r, p, _bent(laws, k, factor), tuples)
            assert not _sweep(model, regime, rel).passed


class TestDesigns:
    """Designs.of builds every parameter tuple of one run_suite call."""

    # the rational constants a relation fixes, by design and slot: the sign
    # of h-decomposition-split and the -1 of the involution and the h
    # decomposition checks
    FIXED = {"split": {0: (F(1), F(-1))}, "minus_one": {0: (F(-1),)}}

    def test_each_symbolic_slot_is_its_own_symbol(self):
        # a symbolic pass proves an identity for every value only when each
        # slot is its own symbol: the design (a, a, b) proves a diagonal
        designs = Designs.of("symbolic")
        seen = set()
        for f in fields(designs):
            if f.name == "regime":
                continue
            design = getattr(designs, f.name)
            if f.name == "letters":
                design = [t for d in design.values() for t in d]
            assert design, f.name
            fixed = self.FIXED.get(f.name, {})
            for tup in design:
                names = []
                for k, x in enumerate(relations._flat(tup)):
                    if k in fixed:
                        assert type(x) is F and x in fixed[k], (f.name, tup)
                        continue
                    assert isinstance(x, LaurentFrac), (f.name, tup)
                    [(key, c)] = x.terms.items()
                    [(name, e)] = key
                    assert c == 1 and e == 1, (f.name, tup)
                    names.append(name)
                assert len(set(names)) == len(names), (f.name, tup)
                seen.update(names)
        # a failure witness prints these names
        assert seen == {"a", "b", "a1", "a2", "b1", "b2", "c", "u", "v"}


class TestSuiteMemo:
    """One commutator_suites call shares its designs, letters and law values
    across all its pairs; the sharing must never hide a wrong law."""

    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    @pytest.mark.parametrize("model", [SP2, SL2])
    def test_one_bent_law_fails_exactly_its_pair(self, model, regime,
                                                 monkeypatch):
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 1, 2, 1, 1)
        laws = fit_structure_functions(model, r, p)
        reverse = fit_structure_functions(model, p, r)
        bent = _bent(laws, 0, -1)
        # (p, r) has the target of (r, p) and the opposite sign: its law at
        # (b, a) is minus the law of (r, p) at (a, b).  So one law of (r, p),
        # bent (sp) or not (sl), has the compiled form of the law of (p, r),
        # and both pairs draw on that form's values at the same (a, b)
        # objects, on sp's diagonal at a single object
        assert len(laws) == len(reverse) == 1
        assert reverse[0].target == laws[0].target == Root.of(2, 1)
        a = tuple(F(k + 2) for k in range(model.param_arity(r)))
        b = tuple(F(k - 3, 5) for k in range(model.param_arity(p)))
        assert reverse[0].evaluate(b, a) == \
            tuple(-x for x in laws[0].evaluate(a, b))
        assert bent[0].compiled != laws[0].compiled
        assert reverse[0].compiled == \
            (bent if model.is_sp else laws)[0].compiled
        designs = Designs.of(regime, DEFAULT_GRID)
        tuples = designs.letters[model.param_arity(r), model.param_arity(p)]
        assert designs.letters[model.param_arity(p),
                               model.param_arity(r)] is tuples
        if model.is_sp and regime == "grid":
            assert any(a is b for a, b in tuples)   # the diagonal
        real = relations.fit_structure_functions
        monkeypatch.setattr(relations, "fit_structure_functions", lambda *key:
                            bent if key == (model, r, p) else real(*key))
        reports = relations.commutator_suites(model, designs)
        failed = [rep for rep in reports if not rep.passed]
        assert [rep.roots for rep in failed] == [(r, p)]
        assert failed[0].relation_id == "commutator"
        assert set(failed[0].witness) == {"params", "entry", "lhs", "rhs"}
        roots = build_root_system(2).roots
        assert len(reports) == len(roots) * (len(roots) - 1)

    @pytest.mark.parametrize("model", [SP3, SL3])
    def test_grid_suite_does_each_piece_of_work_once(self, model,
                                                     monkeypatch):
        # the work each pair's own design asks for, counted by value;
        # this also fits every law before the counting starts
        system = build_root_system(3)
        designs = Designs.of("grid", DEFAULT_GRID)
        points, letters, factors, computed = set(), set(), 0, 0
        for r in system.roots:
            for p in system.roots:
                if not any(r + p):
                    continue
                arities = (model.param_arity(r), model.param_arity(p))
                tuples = designs.letters[arities]
                letters |= {(r, a) for a, _b in tuples}
                letters |= {(p, b) for _a, b in tuples}
                # a trivial pair passes by support and multiplies nothing
                if system.is_root(r + p):
                    laws = fit_structure_functions(model, r, p)
                    points |= {(law.compiled, a, b)
                               for law in laws for a, b in tuples}
                    factors += len(laws) * len(tuples)
                    computed += len(tuples)

        evaluated, built, memos = [], [], []
        real_evaluate = StructureFunction.evaluate
        monkeypatch.setattr(StructureFunction, "evaluate", lambda law, a, b:
                            evaluated.append((law.compiled, a, b))
                            or real_evaluate(law, a, b))
        real_x = relations.x_delta
        monkeypatch.setattr(relations, "x_delta", lambda m, root, params:
                            built.append(root) or real_x(m, root, params))
        real_memo = relations._letter_memo
        monkeypatch.setattr(relations, "_letter_memo", lambda m, root:
                            memos.append(root) or real_memo(m, root))
        products = []
        real_mul = relations.delta_mul
        monkeypatch.setattr(relations, "delta_mul", lambda a, b:
                            products.append(1) or real_mul(a, b))
        reports = relations.commutator_suites(model, designs)
        assert reports and all(rep.passed for rep in reports)

        # each law once per distinct (compiled form, a, b); one letter memo
        # per root, so each x_r once per (root, slot tuple), the letters of
        # the trivial pairs among them; one structure factor x_q per law per
        # instance
        assert len(evaluated) == len(points)
        assert set(evaluated) == points
        assert len(memos) == len(set(memos))
        assert set(memos) == set(system.roots)
        assert len(built) == len(letters) + factors
        # X Y and Y X per instance of a commutator pair, and one product
        # per structure factor
        assert len(products) == 2 * computed + factors


def _counted_sides(monkeypatch):
    """Patch _commutator so each record counts the instances it computes,
    by (r, p); returns the counter."""
    computed = {}
    real = relations._commutator

    def commutator(model, r, p, *args):
        rel = real(model, r, p, *args)
        computed.setdefault((r, p), 0)

        def sides(a, b):
            computed[r, p] += 1
            return rel.sides(a, b)
        return replace(rel, sides=sides)
    monkeypatch.setattr(relations, "_commutator", commutator)
    return computed


def _bend(monkeypatch, model, r, p, bent=None):
    """Give x_r(a), for a == bent (every a when bent is None), one entry
    more: the transpose of an entry of f_p, valued a[0].  Its support then
    meets that of x_p, and x_r(a) x_p(b) != x_p(b) x_r(a) once that entry
    of x_p(b) is nonzero."""
    i, j, _s = letter_positions(model, p)[0]
    real = relations.x_delta

    def x(m, root, params):
        out = real(m, root, params)
        if root == r and (bent is None or params == bent):
            out[j, i] = params[0]
        return out
    monkeypatch.setattr(relations, "x_delta", x)


class TestTrivialBySupport:
    """A trivial pair (r, p) passes with no product when the supports of r
    and p multiply to zero both ways and every letter of its design lies on
    its root's support; anything else is swept in full."""

    @pytest.mark.parametrize("model,regime,r,p,bent", [
        # two long roots on the one-by-one grid design, bent at a = -1
        (SP2, "grid", Root.of(2, 1), Root.of(2, 2), (F(-1),)),
        (SL2, "grid", Root.of(2, 1), Root.of(2, 2), (F(-1),)),
        (SP2, "symbolic", Root.of(2, 1), Root.of(2, 2), None),
        (SL2, "symbolic", Root.of(2, 1), Root.of(2, 2), None),
        # two short roots on the anchored two-by-two grid design, bent at
        # the first two-slot tuple of the sweep
        (SL3, "grid", Root.of(3, 1, 2, 1, -1), Root.of(3, 1, 3, 1, -1),
         relations.pair_sweep(DEFAULT_GRID)[0]),
        (SL3, "symbolic", Root.of(3, 1, 2, 1, -1), Root.of(3, 1, 3, 1, -1),
         None)])
    def test_a_bent_letter_fails_both_orders_with_their_own_witness(
            self, model, regime, r, p, bent, monkeypatch):
        system = build_root_system(model.n)
        assert r != p and any(r + p)
        assert not system.is_root(r + p)
        _bend(monkeypatch, model, r, p, bent)
        designs = Designs.of(regime, DEFAULT_GRID)
        reports = {rep.roots: rep
                   for rep in relations.commutator_suites(model, designs)}
        forward, mirror = reports[r, p], reports[p, r]
        for rep in (forward, mirror):
            assert rep.relation_id == "trivial-commutator"
            assert not rep.passed
            # the report of the pair's own record, swept alone
            q1, q2 = rep.roots
            tuples = designs.letters[model.param_arity(q1),
                                     model.param_arity(q2)]
            alone = _sweep(model, regime, _commutator(model, q1, q2, (),
                                                      tuples))
            assert rep.to_json_dict() == alone.to_json_dict()
        if regime == "symbolic" or model.param_arity(r) == 1:
            # each fails at its first instance with x_r bent, a outer for
            # (r, p) and b outer for (p, r); the same entry of X Y and Y X
            assert mirror.witness["entry"] == forward.witness["entry"]
            assert (mirror.witness["lhs"], mirror.witness["rhs"]) == \
                (forward.witness["rhs"], forward.witness["lhs"])
        if regime == "grid" and model.param_arity(r) == 1:
            # a = -1 is the second grid value
            assert DEFAULT_GRID[1] == -1
            assert forward.instances == len(DEFAULT_GRID) + 1
            assert mirror.instances == 2
            assert forward.witness["params"] == ["-1", "1"]
            assert mirror.witness["params"] == ["1", "-1"]
        if regime == "grid" and model.param_arity(r) == 2:
            # x_r(bent) is the first a of (r, p); as the b of (p, r) it
            # first meets the x_p(pinned a) sweep, after the 33 pinned-b
            # instances
            assert forward.instances == 1
            assert mirror.instances == 34
            assert forward.witness["params"][:2] == \
                mirror.witness["params"][2:] == \
                [format_scalar(x) for x in bent]

    @pytest.mark.parametrize("model,regime,r,p", [
        (SP2, "grid", Root.of(2, 1), Root.of(2, 2)),
        (SL3, "symbolic", Root.of(3, 1, 2, 1, -1), Root.of(3, 1, 3, 1, -1))])
    def test_supports_that_meet_are_swept(self, model, regime, r, p,
                                          monkeypatch):
        # the bent letters of x_r lie on a support widened to match them,
        # so only the product of the two supports can send the pair, and
        # its mirror, to the full sweep
        _bend(monkeypatch, model, r, p)
        i, j, _s = letter_positions(model, p)[0]
        real = relations.letter_positions
        monkeypatch.setattr(relations, "letter_positions", lambda m, q:
                            real(m, q) + [(j, i, 1)] if q == r
                            else real(m, q))
        designs = Designs.of(regime, DEFAULT_GRID)
        reports = {rep.roots: rep
                   for rep in relations.commutator_suites(model, designs)}
        assert not reports[r, p].passed and not reports[p, r].passed

    @pytest.mark.parametrize("model,regime", [
        (SP3, "grid"), (SL3, "grid"), (SP2, "symbolic"), (SL2, "symbolic")])
    def test_structural_reports_equal_full_sweeps(self, model, regime,
                                                  monkeypatch):
        designs = Designs.of(regime, DEFAULT_GRID)
        computed = _counted_sides(monkeypatch)
        structural = relations.commutator_suites(model, designs)
        trivial = [rep for rep in structural
                   if rep.relation_id == "trivial-commutator"]
        assert trivial and not any(computed[rep.roots] for rep in trivial)
        # the support check fails, so every pair is swept in full
        monkeypatch.setattr(relations, "_products_vanish", lambda s, t: False)
        computed.clear()
        full = relations.commutator_suites(model, designs)
        assert all(computed[rep.roots] == rep.instances for rep in trivial)
        assert [rep.to_json_dict() for rep in structural] == \
            [rep.to_json_dict() for rep in full]

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_every_trivial_pair_commutes_on_the_dense_route(self, family):
        # the independent oracle: dense letters at symbol parameters,
        # multiplied in both orders
        pairs = 0
        for n in (2, 3, 4, 5):
            model = GroupModel(family, n)
            system = build_root_system(n)
            for r in system.roots:
                for p in system.roots:
                    if not any(r + p) or system.is_root(r + p):
                        continue
                    x = gen_x(model, r, symbolic_params(
                        model.param_arity(r), "a"))
                    y = gen_x(model, p, symbolic_params(
                        model.param_arity(p), "b"))
                    assert mat_mul(x, y) == mat_mul(y, x), (r, p)
                    pairs += 1
        assert pairs == 32 + 186 + 656 + 1730


def _reference(law, a, b):
    """The laws evaluated through LaurentFrac.evaluate at a point dict."""
    point = dict(zip(law.a_vars, a))
    point.update(zip(law.b_vars, b))
    return tuple(poly.evaluate(point) for poly in law.slot_laws)


class TestCompiledLaws:
    """StructureFunction.evaluate reads a form compiled once per law."""

    @staticmethod
    def points(model, arity):
        """Fraction slots (the zero slots of pair_sweep among them),
        Gaussian slots on sl-c, and Laurent values."""
        s, t = LaurentFrac.symbol("s"), LaurentFrac.symbol("t")
        if arity == 1:
            fractions = [(g,) for g in DEFAULT_GRID[::4]] + [(F(0),)]
            gaussians = [(GaussianRational(1, 1),),
                         (GaussianRational(-1, 2) / 3,)]
            laurents = [(s,), ((s + 1) / t,)]
        else:
            ps = relations.pair_sweep(DEFAULT_GRID)
            fractions = ps[1:2] + ps[13:14] + ps[25:26] + ps[9:10]
            gaussians = [(GaussianRational(1, 1), GaussianRational(0, -2)),
                         (GaussianRational(3, -1), F(1, 2))]
            laurents = [(s, t), (s - t, 1 / s)]
        if model.family != "sl-c":
            gaussians = []
        return [fractions, gaussians, laurents]

    def check(self, law, a, b):
        got, want = law.evaluate(a, b), _reference(law, a, b)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert [format_scalar(x) for x in got] == \
            [format_scalar(x) for x in want]

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_matches_laurent_poly_evaluate(self, family):
        terms, coefficients = 0, set()
        for n in (2, 3, 4):
            model = GroupModel(family, n)
            system = build_root_system(n)
            for r in system.roots:
                for p in system.roots:
                    if not any(r + p) or not system.is_root(r + p):
                        continue
                    laws = fit_structure_functions(model, r, p)
                    pa = self.points(model, model.param_arity(r))
                    pb = self.points(model, model.param_arity(p))
                    for law in laws:
                        for poly in law.slot_laws:
                            terms += len(poly.terms)
                            coefficients.update(poly.terms.values())
                        for xs, ys in zip(pa, pb):
                            for a in xs:
                                for b in ys:
                                    self.check(law, a, b)
        assert terms == {"sp": 640, "sl-r": 1120, "sl-c": 1120}[family]
        assert coefficients <= {1, -1, 2, -2}

    def test_degenerate_forms(self):
        # an empty law, constant terms, a squared slot and a coefficient
        # other than a unit, beside the unit coefficients
        a, b = LaurentFrac.symbol("a"), LaurentFrac.symbol("b")
        law = StructureFunction(1, 1, Root.of(2, 1), (
            LaurentFrac(0), LaurentFrac(5) + a * a * b * 3 - a * b,
            -(a * b) + a * a, LaurentFrac(-1)), ("a",), ("b",))
        for x in (F(2), F(0), GaussianRational(1, -1),
                  LaurentFrac.symbol("u")):
            self.check(law, (x,), (F(-3, 2),))
        assert law.evaluate((F(2),), (F(1),))[0] == F(0)

    def test_laurent_law_is_rejected(self, monkeypatch):
        # evaluating a compiled law never divides: a law term with a
        # negative exponent is refused when the laws are fitted
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        real = relations._peel
        a = LaurentFrac.symbol("a")

        def laurent(*args):
            (i, j, q, vals), *rest = real(*args)
            return [(i, j, q, (vals[0] / (a * a),) + vals[1:])] + rest
        monkeypatch.setattr(relations, "_peel", laurent)
        # the shape fit under the public cache is cached too
        relations._fit_shape.cache_clear()
        with pytest.raises(RelationError, match="negative exponent"):
            fit_structure_functions.__wrapped__(SP2, r, p)


def _iota(emb, k, n):
    """The order-preserving index embedding of rank k in rank n: row or
    column i -> emb[i-1], i+k -> emb[i-1]+n."""
    return lambda i: emb[i - 1] if i <= k else emb[i - k - 1] + n


def _embed_root(root, emb, n):
    c = [0] * n
    for i, x in zip(emb, root.coeffs):
        c[i - 1] = x
    return Root(tuple(c), root.restricted_tag)


def _law_data(laws):
    """Everything a law holds, its compiled form included."""
    return [(law.i, law.j, law.target, law.slot_laws, law.compiled,
             law.a_vars, law.b_vars) for law in laws]


def _clear_fits():
    fit_structure_functions.cache_clear()
    relations._fit_shape.cache_clear()


class TestIndexEmbedding:
    """Letters are equivariant under every order-preserving index embedding
    of rank 4 in rank n; fit_structure_functions fits a pair at the rank of
    its own indices on the strength of this."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_letters_are_the_images_of_rank_four_letters(self, family, n):
        small, model = GroupModel(family, 4), GroupModel(family, n)
        letters = []      # (delta function, rank-4 root, symbol params)
        for root in build_root_system(4).roots:
            params = symbolic_params(small.param_arity(root), "t")
            letters += [(x_delta, root, params), (w_delta, root, params)]
            if small.param_arity(root) == 2:
                letters += [(x_delta, Root(root.coeffs, tag),
                             symbolic_params(1, "t")) for tag in (1, 2)]
        checks = 0
        for emb in itertools.combinations(range(1, n + 1), 4):
            iota = _iota(emb, 4, n)
            for delta, root, params in letters:
                image = {(iota(i), iota(j)): v
                         for (i, j), v in delta(small, root, params).items()}
                assert delta(model, _embed_root(root, emb, n), params) == \
                    image, (emb, root)
                checks += 1
        # x and w on each of the 32 roots, and x on each tag of the 24 sl
        # short roots
        assert checks == comb(n, 4) * (64 if family == "sp" else 112)


class TestShapeFit:
    """fit_structure_functions fits each (family, index shape) once and
    relabels the laws into rank n."""

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_laws_equal_the_direct_fit(self, family):
        # every pair with r+p a root, and up to n=3 each tagged component of
        # an sl short root as well
        for n in (2, 3, 4, 5):
            model = GroupModel(family, n)
            system = build_root_system(n)

            def letters(root):
                tags = (1, 2) if n < 4 and model.param_arity(root) == 2 \
                    else ()
                return [root] + [Root(root.coeffs, tag) for tag in tags]
            for r, p in itertools.product(system.roots, repeat=2):
                if not any(r + p) or not system.is_root(r + p):
                    continue
                for x, y in itertools.product(letters(r), letters(p)):
                    direct = relations._fit_shape.__wrapped__(family, n, x, y)
                    assert _law_data(fit_structure_functions(model, x, y)) \
                        == _law_data(direct), (n, x, y)

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_each_shape_is_fitted_once(self, family, monkeypatch):
        # a shape key that held the rank-n model would fit every pair again
        ranks = []
        real = relations.commutator_delta
        monkeypatch.setattr(relations, "commutator_delta", lambda m, *args:
                            ranks.append(m.n) or real(m, *args))
        calls, asked = [], []
        for n in (2, 3, 4):
            _clear_fits()
            ranks.clear()
            run_suite(GroupModel(family, n), "relations", "symbolic")
            calls.append(len(ranks))
            asked.append(fit_structure_functions.cache_info().misses)
            assert set(ranks) <= {2, 3}
        assert calls == [24, 72, 72]
        # the public cache still counts the pairs asked
        assert asked == [24, 120, 336]

    @pytest.mark.parametrize("r,p", [
        (Root.of(2, 1, 2, 1, -1), Root.of(3, 2, 3, 1, 1)),
        (Root.of(2, 1, 2, 1, -1), Root.of(2, 2))], ids=["mixed", "both"])
    def test_roots_of_another_rank_are_rejected(self, r, p):
        with pytest.raises(RootError, match="rank mismatch"):
            fit_structure_functions(SP3, r, p)

    def test_an_error_names_the_callers_roots(self, monkeypatch):
        model = GroupModel("sp", 4)
        r, p = Root.parse("0,1,0,-1"), Root.parse("0,0,0,2")
        ranks = []
        monkeypatch.setattr(relations, "_peel", lambda m, combos, comm:
                            ranks.append(m.n))
        _clear_fits()
        reports = relations.commutator_suites(model, Designs.of("symbolic"))
        (report,) = [rep for rep in reports if rep.roots == (r, p)]
        assert (report.relation_id, report.verdict) == ("commutator", "fail")
        assert report.note == \
            "structure-law reassembly failed for 0,1,0,-1,0,0,0,2"
        # the pair was fitted at rank 2, on its indices 2 and 4
        ranks.clear()
        with pytest.raises(RelationError) as exc:
            fit_structure_functions(model, r, p)
        assert ranks == [2] and str(exc.value) == report.note


class TestHRelations:
    def test_sp_multiplicativity_hand_value(self):
        # h(2) h(3) = h(6) = diag(6, 1/6, 1/6, 6)
        r = Root.of(2, 1, 2, 1, -1)
        lhs = mat_mul(gen_h(SP2, r, (F(2),)),
                      gen_h(SP2, r, (F(3),)))
        h6 = gen_h(SP2, r, (F(6),))
        assert lhs == h6
        assert h6 == ExactMatrix([[6, 0, 0, 0], [0, F(1, 6), 0, 0],
                                  [0, 0, F(1, 6), 0], [0, 0, 0, 6]])

    def test_sp_involution_hand_value(self):
        h = gen_h(SP2, Root.of(2, 2), (F(-1),))
        assert h == ExactMatrix([[1, 0, 0, 0], [0, -1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, -1]])
        assert mat_mul(h, h) == ExactMatrix.identity(4)

    def test_trivial_unit_case(self):
        r = Root.of(2, 1, 2, 1, -1)
        assert mat_mul(gen_h(SP2, r, (F(1),)),
                       gen_h(SP2, r, (F(1),))) == \
            gen_h(SP2, r, (F(1),))


def no_dense_matrix(monkeypatch):
    """Make every ExactMatrix construction fail: the relation engine builds
    no dense matrix, which is the tests' oracle alone."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)


class TestDenseOracleOnly:
    def test_complex_grid_suites_pass_with_no_dense_matrix(self, monkeypatch):
        no_dense_matrix(monkeypatch)
        grid = tuple(parse_scalar(v) for v in
                     "1+i,2,-1/2+3i,4,5,6,7,8,9".split(","))
        reports = run_suite(SLC2, "all", "grid", grid)
        bad = [r for r in reports if not r.passed]
        assert reports and not bad, bad[:3]

    def test_relations_takes_nothing_from_matrices(self):
        from chevalley import matrices, symbols
        for module in (relations, symbols):
            assert not [name for name, value in vars(module).items()
                        if value is matrices or
                        getattr(value, "__module__", None) ==
                        matrices.__name__], module.__name__

    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    @pytest.mark.parametrize("model", [SP2, SL2])
    def test_h_literal_form_catches_an_h_built_with_plus_ref(
            self, model, regime, monkeypatch):
        def reports():
            return {r.relation_id: r for r in
                    relations.h_relation_suite(
                        model, Designs.of(regime, DEFAULT_GRID))}

        assert reports()["h-literal-form"].passed
        # h(t) = w(t) w(+ref) is not w(t) w(ref)^{-1}
        monkeypatch.setattr(relations, "h_delta", lambda m, root, params:
                            delta_mul(w_delta(m, root, params),
                                      w_delta(m, root, h_reference(params))))
        rep = reports()["h-literal-form"]
        assert not rep.passed and rep.instances == 1
        # the witness reads entries of h(t) w(ref) and of w(t)
        t = DEFAULT_GRID[0] if regime == "grid" else LaurentFrac.symbol("a")
        assert rep.witness["params"] == [format_scalar(t)]
        r12 = Root.of(2, 1, 2, 1, -1)
        params = (t,) if model.is_sp else (t, F(0))
        lhs = delta_mul(relations.h_delta(model, r12, params),
                        w_delta(model, r12, h_reference(params)))
        entry = tuple(rep.witness["entry"])
        assert rep.witness["lhs"] == format_scalar(lhs.get(entry, F(0)))
        assert rep.witness["rhs"] == \
            format_scalar(w_delta(model, r12, params).get(entry, F(0)))


class TestSuites:
    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_grid_regime_n2(self, family, monkeypatch):
        no_dense_matrix(monkeypatch)
        reports = run_suite(GroupModel(family, 2), "all", "grid")
        bad = [r for r in reports if not r.passed]
        assert reports and not bad, bad[:3]

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_symbolic_regime_n2(self, family, monkeypatch):
        no_dense_matrix(monkeypatch)
        reports = run_suite(GroupModel(family, 2), "all", "symbolic")
        bad = [r for r in reports if not r.passed]
        assert reports and not bad, bad[:3]

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_symbolic_regime_n4(self, family, monkeypatch):
        # every suite proved symbolically at rank 4: no relation involves
        # more than 4 indices, so this is the base case for every rank
        no_dense_matrix(monkeypatch)
        reports = run_suite(GroupModel(family, 4), "all", "symbolic")
        bad = [r for r in reports if not r.passed]
        assert reports and not bad, bad[:3]

    def test_report_shape(self):
        reports = run_suite(SP2, "relations", "grid")
        d = reports[0].to_json_dict()
        assert set(d) >= {"relation_id", "model", "n", "roots", "params",
                          "regime", "verdict"}

    def test_failure_witness_has_entry_and_params(self):
        # a deliberately wrong law, x_r(a) x_r(b) = x_r(ab), holds at (0,0)
        # and (2,2) and first fails at the third tuple (2,3)
        r = Root.of(2, 1)
        wrong = Relation("wrong-additivity", (r,), [
            ((F(0),), (F(0),)), ((F(2),), (F(2),)), ((F(2),), (F(3),)),
            ((F(1),), (F(1),))], lambda a, b: (
                delta_mul(x_delta(SP2, r, a), x_delta(SP2, r, b)),
                x_delta(SP2, r, (a[0] * b[0],))))
        rep = _sweep(SP2, "grid", wrong)
        assert not rep.passed
        assert rep.instances == 3
        # x_{2L1}(t) = I + t e_{1,3}: lhs has 2+3 there, rhs 2*3
        assert rep.witness == {"params": ["2", "3"], "entry": [1, 3],
                               "lhs": "5", "rhs": "6"}
        d = rep.to_json_dict()
        assert d["verdict"] == "fail" and d["witness"] == rep.witness
        assert verify_additivity(SP2, r, (F(2),), (F(3),)).witness is None

    @staticmethod
    def unevaluated(**outcome):
        """A three-tuple record whose sides must never be called."""
        def sides(*params):
            raise AssertionError("sides called")
        return Relation("unevaluated", (Root.of(2, 1),),
                        [(F(1),), (F(2),), (F(3),)], sides, **outcome)

    def test_a_record_with_an_error_fails_with_its_note(self):
        rep = _sweep(SP2, "grid", self.unevaluated(error="cannot build"))
        assert (rep.verdict, rep.instances, rep.note) == \
            ("fail", 0, "cannot build")
        assert rep.witness is None and rep.params == ""
        # an error outranks a proof
        rep = _sweep(SP2, "symbolic",
                     self.unevaluated(proven=True, error="cannot build"))
        assert (rep.verdict, rep.instances) == ("fail", 0)

    def test_a_proven_record_passes_every_tuple_unevaluated(self):
        rep = _sweep(SP2, "grid", self.unevaluated(proven=True))
        assert (rep.verdict, rep.instances, rep.note) == ("pass", 3, "")
        assert rep.params == "3 parameter tuples" and rep.witness is None

    def test_grid_requires_nine_values(self):
        with pytest.raises(RelationError):
            run_suite(SP2, "relations", "grid", grid=(F(1), F(2), F(3)))

    def test_grid_values_lie_in_the_models_field(self):
        gauss = (GaussianRational(1, 1),) + DEFAULT_GRID[1:]
        symbols = tuple(LaurentFrac.symbol(c) for c in "abcdefghk")
        for model in (SP2, SL2):
            with pytest.raises(GeneratorError):
                grid_for_model(model, gauss)
        for model in (SP2, SL2, SLC2):
            with pytest.raises(GeneratorError):
                grid_for_model(model, symbols)
        # no embedding: the Gaussian value stays Gaussian, the real ones stay
        # the given Fractions
        mixed = grid_for_model(SLC2, gauss)
        assert type(mixed[0]) is GaussianRational and mixed[0] == gauss[0]
        assert all(type(g) is Fraction for g in mixed[1:])
        assert mixed[1:] == DEFAULT_GRID[1:]

    def test_symbolic_regime_takes_no_grid(self):
        with pytest.raises(RelationError):
            run_suite(SP2, "monomial", "symbolic", grid=DEFAULT_GRID)

    @pytest.mark.parametrize("suite, regime, text", [
        ("all", "exact", "unknown regime 'exact'"),
        ("weyls", "grid", "unknown suite 'weyls'")])
    def test_unknown_regime_or_suite(self, suite, regime, text):
        with pytest.raises(RelationError, match=text):
            run_suite(SP2, suite, regime)

    def test_single_verifiers_label_the_regime_from_their_parameters(self):
        # a Laurent symbol makes the report a symbolic proof; rational and
        # Gaussian values make it a grid sample
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        a, i = LaurentFrac.symbol("a"), GaussianRational(0, 1)
        for rep, regime in (
                (verify_additivity(SP2, Root.of(2, 1), (a,), (F(2),)),
                 "symbolic"),
                (verify_additivity(SP2, Root.of(2, 1), (F(3),), (F(2),)),
                 "grid"),
                (verify_commutator(SP2, r, p, (F(1),), (a,)), "symbolic"),
                (verify_commutator(SLC2, r, p, (i, F(2)), (F(3),)), "grid")):
            assert rep.passed and rep.regime == regime
        # the domain is the model's: Gaussian values on sl-c only, and never
        # beside a symbol
        with pytest.raises(GeneratorError):
            verify_additivity(SP2, Root.of(2, 1), (i,), (F(2),))
        with pytest.raises(ValueError):
            verify_additivity(SLC2, Root.of(2, 1), (i,), (a,))

    def test_default_grid_matches_design(self):
        assert set(DEFAULT_GRID) == {F(1), F(-1), F(2), F(-2), F(3), F(-3),
                                     F(1, 2), F(-1, 2), F(2, 3), F(-2, 3),
                                     F(5, 7)}


class TestWeylSuiteSpotChecks:
    def test_conjugation_item_three_at_units(self):
        # n=2, a=1, t1=1: w_{L1-L2}(1) w_{2L2}(1) w_{L1-L2}(1)^{-1} = w_{2L1}(1)
        short = Root.of(2, 1, 2, 1, -1)
        lhs = delta_to_matrix(w_delta(SP2, short, (F(1),)), 4)
        mid = delta_to_matrix(w_delta(SP2, Root.of(2, 2), (F(1),)), 4)
        rhs = delta_to_matrix(w_delta(SP2, Root.of(2, 1), (F(1),)), 4)
        assert mat_prod([lhs, mid, mat_inv(lhs)]) == rhs

    def test_short_h_square_is_identity(self):
        h = gen_h(SP2, Root.of(2, 1, 2, 1, -1), (F(-1),))
        assert mat_mul(h, h) == ExactMatrix.identity(4)
        assert h == ExactMatrix([[-1, 0, 0, 0], [0, -1, 0, 0],
                                 [0, 0, -1, 0], [0, 0, 0, -1]])

    def test_short_pair_cancellation(self):
        hs = gen_h(SP2, Root.of(2, 1, 2, 1, -1), (F(-1),))
        hp = gen_h(SP2, Root.of(2, 1, 2, 1, 1), (F(-1),))
        assert mat_mul(hs, hp) == ExactMatrix.identity(4)

    def test_monomial_display_examples(self):
        # three of the displays at (1,1), (2,3), (-1,1/2)
        for (t1, t2) in ((F(1), F(1)), (F(2), F(3)), (F(-1), F(1, 2))):
            for rid in (Root.of(2, 1, 2, 1, -1), Root.of(2, 1, 2, 1, 1)):
                wd = w_delta(SL2, rid, (t1, t2))
                form = MonomialForm.from_delta(wd, 4)
                assert form.to_matrix() == delta_to_matrix(wd, 4)
        wl = delta_to_matrix(w_delta(SP2, Root.of(2, 1), (F(2),)), 4)
        assert wl == ExactMatrix([[0, 0, 2, 0], [0, 1, 0, 0],
                                  [F(-1, 2), 0, 0, 0], [0, 0, 0, 1]])
        # the paper's seven displays w = p(pi) diag(d) at i, j = 1, 2,
        # transcribed by hand as (root, w's slots, perm, diag): the oracle
        # of _sl2_block_form, the right side monomial-form-1..7 compare with
        t1, t2, z = LaurentFrac.symbol("t1"), LaurentFrac.symbol("t2"), F(0)
        diff, plus = Root.of(2, 1, 2, 1, -1), Root.of(2, 1, 2, 1, 1)
        displays = [
            (SL2, diff, (t1, t2), (2, 1, 4, 3), (-1 / t1, t1, t2, -1 / t2)),
            (SL2, diff, (t1, z), (2, 1, 3, 4), (-1 / t1, t1, 1, 1)),
            (SL2, diff, (z, t2), (1, 2, 4, 3), (1, 1, t2, -1 / t2)),
            (SL2, plus, (t1, t2), (4, 3, 2, 1), (-1 / t1, -1 / t2, t2, t1)),
            (SL2, plus, (z, t2), (1, 3, 2, 4), (1, -1 / t2, t2, 1)),
            (SL2, plus, (t1, z), (4, 2, 3, 1), (-1 / t1, 1, 1, t1)),
            (SP2, Root.of(2, 1), (t1,), (3, 2, 1, 4), (-1 / t1, 1, t1, 1)),
        ]
        for model, root, params, perm, diag in displays:
            literal = MonomialForm(perm, diag)
            assert relations._sl2_block_form(model, root, params) == literal
            wd = w_delta(model, root, params)
            assert MonomialForm.from_delta(wd, 4) == literal
            assert wd == literal.delta()


class TestComponentConjugation:
    """weyl-component-conj relabels through w's monomial form and compares
    the value with the SL2-block prediction."""

    @staticmethod
    def forms(model, gamma, u, u2):
        if model.param_arity(gamma) == 1:
            return [(u,)]
        zero = u - u
        return [(u, zero), (zero, u), (u, u2)]

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    def test_relabel_matches_the_delta_product(self, family, n, regime):
        # the monomial form of an h letter is a torus element: relabelling
        # through it is the torus action on every root-space entry
        model = GroupModel(family, n)
        if regime == "symbolic":
            u, u2, v = (LaurentFrac.symbol(x) for x in "uvc")
            values = (v, 1 / v - v)
        elif family == "sl-c":
            u, u2 = GaussianRational(1, 1), GaussianRational(-1, 3)
            values = (GaussianRational(2, -1), F(1, 2))
        else:
            u, u2 = F(2), F(3)
            values = (F(1, 2), F(-5, 7))
        roots = build_root_system(n).roots
        checked = 0
        for gamma in roots:
            for params in self.forms(model, gamma, u, u2):
                neg = tuple(-x for x in params)
                inv = tuple(1 / x if x else x for x in params)
                for gd, gd_inv in ((w_delta(model, gamma, params),
                                    w_delta(model, gamma, neg)),
                                   (h_delta(model, gamma, params),
                                    h_delta(model, gamma, inv))):
                    form = MonomialForm.from_delta(gd, model.size)
                    for beta in roots:
                        positions = relations.root_entry_positions(model, beta)
                        for row, col, _s in positions:
                            for v in values:
                                inner = {(row, col): v}
                                assert relations._monomial_conj(form, inner) \
                                    == relations._conj(gd, inner, gd_inv)
                                checked += 1
        # forms per letter kind times root-space positions, w and h each
        per_kind = {"sp": {2: 96, 3: 540}}.get(family, {2: 192, 3: 1260})[n]
        assert checked == 2 * per_kind * len(values)

    @staticmethod
    def reports(model, designs):
        return relations._sweep_all(
            model, designs.regime,
            relations._component_records(model, designs))

    @classmethod
    def sl3_reports(cls, regime):
        return cls.reports(SL3, Designs.of(regime, DEFAULT_GRID))

    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    def test_times_seven_on_a_column_of_w_fails_every_report(
            self, monkeypatch, regime):
        # one non-unit column scale of the form read off w; a uniform x7
        # would cancel in d_r / d_c
        assert [r.passed for r in self.sl3_reports(regime)] == [True] * 42
        real = MonomialForm.from_delta

        def bent(delta, size):
            form = real(delta, size)
            j = next(j for j, i in enumerate(form.perm) if i != j + 1)
            diag = list(form.diag)
            diag[j] = 7 * diag[j]
            return MonomialForm(form.perm, tuple(diag))

        monkeypatch.setattr(MonomialForm, "from_delta", staticmethod(bent))
        failed = [r for r in self.sl3_reports(regime) if not r.passed]
        assert len(failed) == 42

    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    def test_times_seven_on_the_predicted_t_fails_every_report(
            self, monkeypatch, regime):
        # the column c of each block [[0, t], [-1/t, 0]] predicts 7t
        real = relations._sl2_block_form

        def bent(model, gamma, params):
            form = real(model, gamma, params)
            diag = list(form.diag)
            for (_r, c, _s), t in zip(
                    relations.root_entry_positions(model, gamma), params):
                if t:
                    diag[c - 1] = 7 * diag[c - 1]
            return MonomialForm(form.perm, tuple(diag))

        monkeypatch.setattr(relations, "_sl2_block_form", bent)
        failed = [r for r in self.sl3_reports(regime) if not r.passed]
        assert len(failed) == 42

    @pytest.mark.parametrize("family", ["sl-r", "sl-c"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    def test_reports_equal_the_full_sweep(self, family, n, regime):
        model = GroupModel(family, n)
        designs = Designs.of(regime, DEFAULT_GRID)
        records = relations._component_records(model, designs)
        assert all(rel.proven for rel in records)
        assert self.reports(model, designs) == [
            _sweep(model, regime, replace(rel, proven=False))
            for rel in records]

    def test_a_passing_suite_relabels_no_value(self, monkeypatch):
        # the per-form check replaces 42 forms x 30 tuples of relabelling
        for fn in (*vars(relations).values(), *vars(generators).values()):
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        calls = []
        real = relations._monomial_conj

        def counted(form, inner):
            calls.append(inner)
            return real(form, inner)

        monkeypatch.setattr(relations, "_monomial_conj", counted)
        reports = run_suite(SL3, "weyl", "symbolic")
        component = [r for r in reports
                     if r.relation_id == "weyl-component-conj"]
        assert len(component) == 42 and all(r.passed for r in reports)
        assert [r.instances for r in component] == [30] * 42
        assert calls == []

    def test_target_outside_the_component_table_fails(self, monkeypatch):
        # drop the L1-L2 component at (1, 2) from the table: each form maps
        # some component onto (1, 2), so every report fails at that entry
        real = relations.position_component_table
        monkeypatch.setattr(relations, "position_component_table", lambda n: {
            k: rd for k, rd in real(n).items() if k != (1, 2)})
        reports = self.sl3_reports("grid")
        assert len(reports) == 42
        assert all(not r.passed and r.witness["entry"] == [1, 2]
                   for r in reports)

    def test_w_minus_t_not_the_inverse_fails_its_report(self, monkeypatch):
        # w_{2L1}(-t) is replaced by w_{2L1}(-2t), which does not invert
        # w_{2L1}(t); only that form's report may fail
        gamma = Root.of(3, 1)
        real = relations.w_delta

        def w_delta_bent(model, root, params):
            if root == gamma and params[0] < 0:
                params = (2 * params[0],)
            return real(model, root, params)

        monkeypatch.setattr(relations, "w_delta", w_delta_bent)
        reports = self.sl3_reports("grid")
        failed = [r for r in reports if not r.passed]
        assert [r.roots for r in failed] == [(gamma,)]
        assert failed[0].instances == 1


class TestStructureConstants:
    """Chevalley's theorem as an oracle for the fitted sp laws.

    For a root pair (r, s) let p be the largest integer with s - p*r a root
    and p' the largest with r - p'*s a root.  Then the law of x_{ir+s} has
    |C_i1| = binom(p+i, i) and the law of x_{r+js} has |C_1j| =
    binom(p'+j, j) (Carter, Simple Groups of Lie Type, section 5.2).
    """

    @staticmethod
    def string_length(system, s, r):
        p = 0
        while system.is_root(tuple(x - (p + 1) * y
                                   for x, y in zip(s.coeffs, r.coeffs))):
            p += 1
        return p

    def test_sp_laws_match_chevalley_constants(self):
        counts = {(1, 1): 0, (1, 2): 0, (2, 1): 0}
        for n in (2, 3, 4, 5):
            model = GroupModel("sp", n)
            system = build_root_system(n)
            for r in system.roots:
                for s in system.roots:
                    if not system.is_root(r + s):
                        continue
                    p = self.string_length(system, s, r)
                    p_ = self.string_length(system, r, s)
                    for law in fit_structure_functions(model, r, s):
                        (coeff,) = law.slot_laws[0].terms.values()
                        if law.j == 1:
                            assert abs(coeff) == comb(p + law.i, law.i)
                        if law.i == 1:
                            assert abs(coeff) == comb(p_ + law.j, law.j)
                        counts[law.i, law.j] += 1
        assert counts == {(1, 1): 1200, (1, 2): 160, (2, 1): 160}


class TestSymbolicRegimeWitness:
    def test_symbolic_law_specializes_to_grid(self):
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        laws = fit_structure_functions(SP2, r, p)
        for a in DEFAULT_GRID[:4]:
            for b in DEFAULT_GRID[:4]:
                # decompose evaluates the laws, so its factors are checked
                # against the concrete commutator at the grid point
                factors, _ = decompose_commutator(SP2, r, p, (a,), (b,))
                assert [v for _q, v in factors] == \
                    [law.evaluate((a,), (b,)) for law in laws]
                assert delta_word([x_delta(SP2, q, v) for q, v in factors]) \
                    == commutator_delta(SP2, r, p, (a,), (b,))
