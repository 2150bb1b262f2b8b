"""Generator construction: f/x/w/h tables, monomial forms, letters."""

import random
from fractions import Fraction

import pytest

from chevalley import relations
from chevalley.generators import (GeneratorError, GeneratorLetter, GroupModel,
                                  MonomialForm, _letter_matrix, gen_f, gen_h, gen_h_literal,
                                  gen_w, gen_x, h_word_letters,
                                  position_component_table, read_letter,
                                  w_word_letters)
from chevalley.matrices import (ExactMatrix, check_lie_membership,
                                check_membership, exp_nilpotent, mat_inv,
                                mat_mul, mat_prod)
from chevalley.roots import Root, RootError, build_root_system
from chevalley.scalars import GaussianRational, LaurentFrac, ScalarError

SP2 = GroupModel("sp", 2)
SP3 = GroupModel("sp", 3)
SL2 = GroupModel("sl-r", 2)
SLC2 = GroupModel("sl-c", 2)


def e(size, i, j, v=1):
    return ExactMatrix.sparse(size, {(i, j): v})


def uni(size, entries):
    return ExactMatrix.sparse(
        size, {**{(i, i): 1 for i in range(1, size + 1)}, **entries})


class TestGenF:
    def test_sp_long_root(self):
        assert gen_f(SP2, Root.of(2, 1), (Fraction(3),)) == e(4, 1, 3, 3)

    def test_sp_negative_long_root_transposed_position(self):
        # -2L_i sits at the transpose position e_{i+n,i}
        f = gen_f(SP2, Root.of(2, 1, si=-1), (Fraction(5),))
        assert f == e(4, 3, 1, 5)
        assert check_lie_membership(f, SP2)

    def test_sp_table_lies_in_algebra(self):
        for n, model in ((2, SP2), (3, SP3)):
            for r in build_root_system(n).roots:
                f = gen_f(model, r, (Fraction(7, 3),))
                assert check_lie_membership(f, model), r

    def test_sp_sum_root_is_symmetric_block(self):
        f = gen_f(SP2, Root.of(2, 1, 2, 1, 1), (Fraction(1),))
        assert f == ExactMatrix([[0, 0, 0, 1], [0, 0, 1, 0],
                                 [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_sl_two_component_difference_root(self):
        f = gen_f(SL2, Root.of(2, 1, 2, 1, -1), (Fraction(2), Fraction(-5)))
        assert f == ExactMatrix([[0, 2, 0, 0], [0, 0, 0, 0],
                                 [0, 0, 0, 0], [0, 0, -5, 0]])
        assert check_lie_membership(f, SL2)

    def test_sl_components_split(self):
        r = Root.of(2, 1, 2, 1, 1)
        full = gen_f(SL2, r, (Fraction(2), Fraction(3)))
        part = mat_mul(exp_nilpotent(gen_f(SL2, Root(r.coeffs, 1),
                                           (Fraction(2),))),
                       exp_nilpotent(gen_f(SL2, Root(r.coeffs, 2),
                                           (Fraction(3),))))
        assert exp_nilpotent(full) == part

    def test_tagged_root_is_one_component(self):
        tagged = Root((1, -1), restricted_tag=2)
        assert gen_f(SL2, tagged, (Fraction(5),)) == e(4, 4, 3, 5)

    def test_arity_mismatch(self):
        with pytest.raises(GeneratorError):
            gen_f(SP2, Root.of(2, 1), (Fraction(1), Fraction(2)))
        with pytest.raises(GeneratorError):
            gen_f(SL2, Root.of(2, 1, 2, 1, -1), (Fraction(1),))


class TestGenX:
    def test_zero_parameter_is_identity(self):
        assert gen_x(SP2, Root.of(2, 1), (0,)) == ExactMatrix.identity(4)
        assert gen_x(SL2, Root.of(2, 1, 2, 1, -1), (0, 0)) == \
            ExactMatrix.identity(4)

    def test_sp_difference_root_matrix(self):
        t = Fraction(5, 7)
        got = gen_x(SP2, Root.of(2, 1, 2, 1, -1), (t,))
        assert got == uni(4, {(1, 2): t, (4, 3): -t})

    def test_sl_two_parameter_matrix(self):
        t1, t2 = Fraction(2), Fraction(-1, 3)
        got = gen_x(SL2, Root.of(2, 1, 2, 1, -1), (t1, t2))
        assert got == uni(4, {(1, 2): t1, (4, 3): t2})

    def test_membership_all_roots_all_models(self):
        params = {1: (Fraction(5, 7),), 2: (Fraction(5, 7), Fraction(-2))}
        for model in (SP2, SP3, SL2, GroupModel("sl-r", 3), SLC2):
            for r in build_root_system(model.n).roots:
                g = gen_x(model, r, params[model.param_arity(r)])
                assert check_membership(g, model), (model, r)

    def test_exp_product_agreement_with_split_definition(self):
        # the single-exponential and split-component definitions agree
        for r in build_root_system(2).roots:
            if r.is_long:
                continue
            t1, t2 = Fraction(3, 2), Fraction(-4)
            whole = gen_x(SL2, r, (t1, t2))
            split = mat_mul(
                exp_nilpotent(gen_f(SL2, Root(r.coeffs, 1), (t1,))),
                exp_nilpotent(gen_f(SL2, Root(r.coeffs, 2), (t2,))))
            assert whole == split, r


class TestGenW:
    def test_sp_long_root_monomial(self):
        t = Fraction(3)
        g, form = gen_w(SP2, Root.of(2, 2), (t,))
        # p(pi) diag(-1/t at 2, t at 4), pi swaps 2 and 4
        assert form.perm == (1, 4, 3, 2)
        assert form.diag == (Fraction(1), -1 / t, Fraction(1), t)
        assert form.to_matrix() == g

    def test_sl_difference_first_slot(self):
        t = Fraction(2)
        g, form = gen_w(SL2, Root.of(2, 1, 2, 1, -1), (t, Fraction(0)))
        assert form.perm == (2, 1, 3, 4)
        assert form.diag == (-1 / t, t, Fraction(1), Fraction(1))
        assert form.to_matrix() == g

    def test_sl_sum_second_slot(self):
        t = Fraction(5, 3)
        g, form = gen_w(SL2, Root.of(2, 1, 2, 1, 1), (Fraction(0), t))
        # pi swaps j=2 with i+n=3
        assert form.perm == (1, 3, 2, 4)
        assert form.diag == (Fraction(1), -1 / t, t, Fraction(1))
        assert form.to_matrix() == g

    def test_word_equals_letters_product(self):
        r = Root.of(2, 1, 2, 1, -1)
        params = (Fraction(3), Fraction(-2))
        g, _ = gen_w(SL2, r, params)
        letters = w_word_letters(SL2, r, params)
        assert mat_prod([l.matrix() for l in letters]) == g

    def test_rejects_zero_parameters(self):
        with pytest.raises(GeneratorError):
            gen_w(SP2, Root.of(2, 1), (Fraction(0),))
        with pytest.raises(GeneratorError):
            gen_w(SL2, Root.of(2, 1, 2, 1, -1), (Fraction(0), Fraction(0)))

    def test_monomial_round_trip_all_roots(self):
        for model in (SP2, SL2):
            for r in build_root_system(2).roots:
                if model.param_arity(r) == 1:
                    cases = [(Fraction(2),)]
                else:
                    cases = [(Fraction(2), Fraction(-3)),
                             (Fraction(2), Fraction(0)),
                             (Fraction(0), Fraction(-1, 2))]
                for params in cases:
                    g, form = gen_w(model, r, params)
                    assert form.to_matrix(g.mode) == g


class TestGenH:
    def test_sp_short_diagonal_form(self):
        t = Fraction(7, 2)
        g = gen_h(SP2, Root.of(2, 1, 2, 1, -1), (t,))
        assert g == ExactMatrix([[t, 0, 0, 0], [0, 1 / t, 0, 0],
                                 [0, 0, 1 / t, 0], [0, 0, 0, t]])

    def test_sp_involution_diagonal(self):
        for model in (SP2, SP3):
            n = model.n
            g = gen_h(model, Root.of(n, n), (Fraction(-1),))
            expected = {(n, n): Fraction(-1), (2 * n, 2 * n): Fraction(-1)}
            m = uni(2 * n, expected)
            assert g == m
            assert mat_mul(g, g) == ExactMatrix.identity(2 * n)

    def test_reference_parameter_gives_identity(self):
        assert gen_h(SP2, Root.of(2, 1), (1,)) == ExactMatrix.identity(4)
        assert gen_h(SL2, Root.of(2, 1, 2, 1, -1), (1, 1)) == \
            ExactMatrix.identity(4)
        assert gen_h(SL2, Root.of(2, 1, 2, 1, -1), (1, 0)) == \
            ExactMatrix.identity(4)

    def test_sl_slot_diagonals(self):
        t = Fraction(5)
        g1 = gen_h(SL2, Root.of(2, 1, 2, 1, -1), (t, 0))
        assert g1 == uni(4, {(1, 1): t, (2, 2): 1 / t})
        # second slot lands inverted (w(0,t) w(0,-1) = diag(1/t, t) on the
        # shifted block); the subgroup {diag(a, 1/a)} is the same either way
        g2 = gen_h(SL2, Root.of(2, 1, 2, 1, -1), (0, t))
        assert g2 == uni(4, {(3, 3): 1 / t, (4, 4): t})
        assert mat_mul(g2,
                       gen_h(SL2, Root.of(2, 1, 2, 1, -1), (0, 1 / t))) \
            == ExactMatrix.identity(4)

    def test_literal_form_agrees(self):
        cases = [(SP2, Root.of(2, 1, 2, 1, -1), (Fraction(3),)),
                 (SP2, Root.of(2, 2), (Fraction(-2),)),
                 (SL2, Root.of(2, 1, 2, 1, -1), (Fraction(3), Fraction(5))),
                 (SL2, Root.of(2, 1, 2, 1, -1), (Fraction(3), Fraction(0))),
                 (SL2, Root.of(2, 1, 2, 1, 1), (Fraction(0), Fraction(4)))]
        for model, r, params in cases:
            assert gen_h(model, r, params) == \
                gen_h_literal(model, r, params)

    def test_h_word_letters_multiply_to_h(self):
        r = Root.of(2, 1, 2, 1, -1)
        for model, params in ((SP2, (Fraction(4),)),
                              (SL2, (Fraction(4), Fraction(0)))):
            letters = h_word_letters(model, r, params)
            assert len(letters) == 6
            assert mat_prod([l.matrix() for l in letters]) == \
                gen_h(model, r, params)


class TestLetterCacheModes:
    """Parameters equal across scalar modes hash alike, so the dense letter
    cache keys on the mode: a letter's matrix never depends on which equal
    parameters were asked for first."""

    G = GaussianRational
    L = LaurentFrac
    CASES = [
        (SLC2, (Fraction(2), Fraction(0)), (G(2), G(0)), (G(1, 1), 0),
         "gaussian"),
        (SP2, (Fraction(2),), (L(2),), (L.symbol("a"),), "laurent"),
    ]

    @pytest.mark.parametrize("model, real, wide, other, mode", CASES,
                             ids=["sl-c", "sp"])
    @pytest.mark.parametrize("build", [
        gen_x,
        lambda *a: gen_w(*a)[0],
        gen_h,
    ], ids=["x", "w", "h"])
    def test_equal_params_of_a_wider_mode_after_rationals(
            self, model, real, wide, other, mode, build):
        _letter_matrix.cache_clear()
        r = Root.of(2, 1, 2, 1, -1)
        assert build(model, r, real).mode == "rational"
        m = build(model, r, wide)
        assert m.mode == mode
        assert mat_mul(m, gen_x(model, r, other)).mode == mode
        _letter_matrix.cache_clear()
        assert build(model, r, wide) == m


class TestLetters:
    def test_format_parse_round_trip(self):
        l = GeneratorLetter(SL2, "x", Root.of(2, 1, 2, 1, -1),
                            (Fraction(3, 2), Fraction(-1)))
        assert l.format() == "x 1,-1 (3/2, -1)"
        assert GeneratorLetter.parse(l.format(), SL2) == l

    @pytest.mark.parametrize("model, pool", [
        (SLC2, [GaussianRational(1, 2), GaussianRational(0, -1),
                GaussianRational(Fraction(-1, 2), 3), Fraction(0),
                Fraction(5, 7)]),
        (SL2, [LaurentFrac.symbol("a"), LaurentFrac.symbol("b1"),
               Fraction(0), Fraction(-3, 2)]),
        (SP2, [LaurentFrac.symbol("t"), Fraction(2)])],
        ids=["gaussian", "laurent-sl", "laurent-sp"])
    def test_read_letter_gives_back_seeded_letters(self, model, pool):
        rng = random.Random("read-letter:%s" % model.family)
        roots = build_root_system(2).roots
        for _ in range(200):
            root = rng.choice(roots)
            kind = rng.choice("xwh")
            if kind == "x" and not model.is_sp and not root.is_long and \
                    rng.random() < 0.3:
                root = Root(root.coeffs, rng.choice((1, 2)))
            params = tuple(rng.choice(pool)
                           for _ in range(model.param_arity(root)))
            if kind != "x" and not any(params):
                continue
            l = GeneratorLetter(model, kind, root, params)
            assert read_letter(l.format()) == (kind, root, l.params)
            assert GeneratorLetter.parse(l.format(), model) == l

    @pytest.mark.parametrize("text", [
        "", "   ", "x", "x 1,-1", "x 1,-1 (2", "x 1,-1 2)", "x 1,-1 (2)))",
        "x 1,-1 ((2)", "x 1,-1 (2) 3", "x 1,-1 (2,)", "x 1,-1 (,2)",
        "x 1,-1 ()", "x 1,-1 (2,,3)", "x 1,-1 (1/0)", "x 1,-1 (1.5)",
        "x 1,-1 (1_0)"])
    def test_read_letter_rejects_malformed_text(self, text):
        # a format or scalar error, never an IndexError or a letter read
        # with a slot dropped
        with pytest.raises((GeneratorError, ScalarError)):
            read_letter(text)

    @pytest.mark.parametrize("text", ["x \u0661,-1 (2)", "x 1,-1, (2)",
                                      "x 1,-1:+1 (2)", "x 1.0,-1 (2)"])
    def test_read_letter_rejects_malformed_roots(self, text):
        # the root is a list of integer tokens with an exact tag
        with pytest.raises(RootError):
            read_letter(text)

    def test_inverse_matrices(self):
        for kind, params in (("x", (Fraction(2), Fraction(3))),
                             ("w", (Fraction(2), Fraction(3))),
                             ("h", (Fraction(2), Fraction(3)))):
            l = GeneratorLetter(SL2, kind, Root.of(2, 1, 2, 1, -1), params)
            assert mat_mul(l.matrix(), l.inverse().matrix()) == \
                ExactMatrix.identity(4)

    def test_component_letter(self):
        l = GeneratorLetter(SL2, "x", Root((1, -1), restricted_tag=2),
                            (Fraction(5),))
        assert l.matrix() == uni(4, {(4, 3): 5})

    def test_tagged_letters_rejected_for_sp(self):
        with pytest.raises(GeneratorError):
            GeneratorLetter(SP2, "x", Root((1, -1), restricted_tag=1),
                            (Fraction(1),))

    def test_gaussian_letters_only_in_sl_c(self):
        i = GaussianRational(0, 1)
        r = Root.of(2, 1, 2, 1, -1)
        assert GeneratorLetter(SLC2, "x", r, (i, 1)).params == (i, Fraction(1))
        for model, params in ((SL2, (i, 1)), (SP2, (i,))):
            with pytest.raises(GeneratorError):
                GeneratorLetter(model, "x", r, params)
            with pytest.raises(GeneratorError):
                w_word_letters(model, r, params)


class TestCheckParams:
    """GroupModel.check_params: arity and scalar domain per model."""

    I = GaussianRational(0, 1)
    A = LaurentFrac.symbol("a")
    SHORT = Root.of(2, 1, 2, 1, -1)

    def test_arity(self):
        long_ = Root.of(2, 1)
        tagged = Root((1, -1), restricted_tag=2)
        assert SP2.check_params(self.SHORT, 3) == (Fraction(3),)
        assert SL2.check_params(long_, [3]) == (Fraction(3),)
        assert SL2.check_params(tagged, (3,)) == (Fraction(3),)
        assert SL2.check_params(self.SHORT, (3, 0)) == (Fraction(3), Fraction(0))
        for model, root, params in ((SP2, self.SHORT, (1, 2)),
                                    (SL2, self.SHORT, (1,)),
                                    (SL2, long_, (1, 2)),
                                    (SL2, tagged, (1, 2)),
                                    (SP2, Root((1, -1), restricted_tag=1), (1,)),
                                    # rank 3 on n=2, with the right arity
                                    (SP2, Root.of(3, 1, 2, 1, -1), (1,)),
                                    (SL2, Root.of(3, 3), (1,))):
            with pytest.raises(GeneratorError):
                model.check_params(root, params)

    def test_no_widening(self):
        assert SLC2.check_params(self.SHORT, (1, self.I)) == (Fraction(1), self.I)
        params = (Fraction(2), Fraction(3))
        assert SL2.check_params(self.SHORT, params) is params

    # q: a rational, i: a Gaussian value, a: a Laurent symbol
    @pytest.mark.parametrize("family, allowed", [
        ("sp", "qa"), ("sl-r", "qa"), ("sl-c", "qia"),
    ])
    def test_domain(self, family, allowed):
        model = GroupModel(family, 2)
        values = {"q": Fraction(1, 2), "i": self.I, "a": self.A}
        for name, v in values.items():
            if name in allowed:
                assert model.check_params(None, (v, 2)) == (v, Fraction(2))
            else:
                with pytest.raises(GeneratorError):
                    model.check_params(None, (v, 2))

    def test_gaussian_and_laurent_never_mix(self):
        with pytest.raises(ValueError):
            SLC2.check_params(self.SHORT, (self.I, self.A))

    def test_rejects_non_scalars(self):
        for bad in (0.5, "1"):
            with pytest.raises(ValueError):
                SP2.check_params(None, (bad,))


def torus(*d):
    """diag(d_1..d_n, 1/d_1..1/d_n) as a MonomialForm with the identity
    permutation."""
    d = tuple(Fraction(x) for x in d)
    return MonomialForm(tuple(range(1, 2 * len(d) + 1)),
                        d + tuple(1 / x for x in d))


class TestTorus:
    """A torus element acts on a letter's delta by relabelling through its
    monomial form: D x_r(a) D^{-1} = x_r(chi_r(D) a)."""

    def test_identity_torus_fixes_letters(self):
        inner = relations.x_delta(SP2, Root.of(2, 1), (Fraction(3),))
        assert relations._monomial_conj(torus(1, 1), inner) == inner

    def test_long_root_squares_character(self):
        r = Root.of(2, 1)
        out = relations._monomial_conj(
            torus(2, 1), relations.x_delta(SP2, r, (Fraction(1),)))
        assert out == relations.x_delta(SP2, r, (Fraction(4),))

    def test_sl_difference_character_both_slots(self):
        r = Root.of(2, 1, 2, 1, -1)
        out = relations._monomial_conj(
            torus(2, 3), relations.x_delta(SL2, r, (Fraction(1), Fraction(1))))
        assert out == relations.x_delta(SL2, r,
                                        (Fraction(2, 3), Fraction(2, 3)))

    def test_matches_matrix_conjugation_oracle(self):
        # direct matrix conjugation is the independent route
        form = torus(2, -3)
        dm = form.to_matrix()
        for r in build_root_system(2).roots:
            for model in (SP2, SL2):
                arity = model.param_arity(r)
                params = (Fraction(5, 7),) * arity
                l = GeneratorLetter(model, "x", r, params)
                conj = mat_mul(mat_mul(dm, l.matrix()), mat_inv(dm))
                delta = relations._monomial_conj(
                    form, relations.x_delta(model, r, params))
                assert conj == uni(model.size, delta), (model, r)

    def test_rejects_zero_entries(self):
        # a torus element needs unit entries: diag(0, 1, 1, 1) has no
        # monomial form, and h_r(0) is no letter
        with pytest.raises(GeneratorError):
            MonomialForm.from_delta({(1, 1): Fraction(-1)}, 4)
        with pytest.raises(GeneratorError):
            GeneratorLetter(SP2, "h", Root.of(2, 1), (Fraction(0),))


class TestPositionTable:
    def test_every_offdiagonal_position_is_covered(self):
        for n in (2, 3):
            table = position_component_table(n)
            size = 2 * n
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    if i != j:
                        root, delta = table[(i, j)]
                        if root.is_long:
                            f = gen_f(GroupModel("sl-r", n), root, (Fraction(1),))
                        else:
                            f = gen_f(GroupModel("sl-r", n),
                                      Root(root.coeffs, delta), (Fraction(1),))
                        assert f.rows[i - 1][j - 1] == 1
