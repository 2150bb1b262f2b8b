"""Exact matrices: products, inverses, nilpotent exponentials, membership."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.generators import GroupModel
from chevalley.matrices import (ExactMatrix, MatrixError, NotNilpotentError,
                                SingularMatrixError, check_membership,
                                exp_nilpotent, format_matrix, mat_add,
                                mat_det, mat_inv, mat_mul, row_reduce,
                                symplectic_form)
from chevalley.scalars import (GaussianRational, LaurentFrac, ScalarError,
                               parse_scalar, read_list)


def unit_plus(size, entries):
    return ExactMatrix.sparse(
        size, {**{(i, i): 1 for i in range(1, size + 1)}, **entries})


class TestSparse:
    def test_int_entries_infer_rational(self):
        m = ExactMatrix.sparse(4, {(1, 2): 3, (4, 1): -1})
        assert m.mode == "rational"
        assert m.rows[0][1] == 3 and type(m.rows[0][1]) is Fraction
        assert type(m.rows[1][1]) is Fraction and not m.rows[1][1]

    def test_one_symbol_infers_laurent(self):
        a = LaurentFrac.symbol("a")
        m = ExactMatrix.sparse(4, {(1, 1): 1, (1, 2): a, (3, 4): Fraction(1, 2)})
        assert m.mode == "laurent"
        assert all(isinstance(x, LaurentFrac) for r in m.rows for x in r)
        assert m.rows[0][1] == a and m.rows[2][3] == Fraction(1, 2)

    @pytest.mark.parametrize("mode, cls", [("gaussian", GaussianRational),
                                           ("laurent", LaurentFrac)])
    def test_given_mode_embeds_ints(self, mode, cls):
        m = ExactMatrix.sparse(2, {(1, 1): 1, (2, 1): -2}, mode)
        assert m.mode == mode
        assert all(type(x) is cls for r in m.rows for x in r)
        assert m.rows[0][0] == 1 and m.rows[1][0] == -2
        assert not m.rows[0][1] and not m.rows[1][1]

    def test_builders_agree_with_sparse(self):
        assert ExactMatrix.identity(4) == \
            ExactMatrix.sparse(4, {(i, i): 1 for i in range(1, 5)})


class TestMul:
    def test_identity(self):
        i4 = ExactMatrix.identity(4)
        assert mat_mul(i4, i4) == i4

    def test_two_superdiagonals(self):
        # hand multiplication: (I+e12)(I+e23) = I + e12 + e23 + e13
        a = unit_plus(4, {(1, 2): 1})
        b = unit_plus(4, {(2, 3): 1})
        expected = unit_plus(4, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert mat_mul(a, b) == expected

    def test_disjoint_elementaries_annihilate(self):
        e12 = ExactMatrix.sparse(4, {(1, 2): 1})
        e34 = ExactMatrix.sparse(4, {(3, 4): 1})
        assert mat_mul(e12, e34) == ExactMatrix.sparse(4, {})

    def test_size_mismatch(self):
        with pytest.raises(MatrixError):
            mat_mul(ExactMatrix.identity(4), ExactMatrix.identity(6))

    def test_mode_mismatch(self):
        lau = ExactMatrix.identity(4, "laurent")
        with pytest.raises(MatrixError):
            mat_mul(ExactMatrix.identity(4), lau)


class TestInv:
    def test_identity(self):
        i4 = ExactMatrix.identity(4)
        assert mat_inv(i4) == i4

    def test_unipotent(self):
        t = Fraction(5, 3)
        m = unit_plus(4, {(1, 2): t})
        assert mat_inv(m) == unit_plus(4, {(1, 2): -t})

    def test_diagonal(self):
        m = ExactMatrix([[2, 0], [0, Fraction(1, 2)]])
        assert mat_inv(m) == ExactMatrix([[Fraction(1, 2), 0], [0, 2]])

    def test_singular_reports_rank(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(m)
        assert err.value.rank == 1

    def test_involution_of_inversion(self):
        m = ExactMatrix([[1, 2, 0, 1], [0, 1, 3, 0],
                         [5, 0, 1, 0], [0, 0, 0, 7]])
        assert mat_inv(mat_inv(m)) == m
        assert mat_mul(m, mat_inv(m)) == ExactMatrix.identity(4)

    def test_laurent_mode(self):
        t = LaurentFrac.symbol("t")
        m = ExactMatrix([[t, 0], [0, 1 / t]])
        assert mat_mul(m, mat_inv(m)) == ExactMatrix.identity(2, "laurent")


class TestExp:
    def test_zero(self):
        assert exp_nilpotent(ExactMatrix.sparse(4, {})) == ExactMatrix.identity(4)

    def test_single_long_entry(self):
        # square of e_{1,3} is zero in size 4
        t = Fraction(7, 2)
        n = ExactMatrix.sparse(4, {(1, 3): t})
        assert mat_mul(n, n) == ExactMatrix.sparse(4, {})
        assert exp_nilpotent(n) == unit_plus(4, {(1, 3): t})

    def test_two_component_square_zero(self):
        # oracle: t1 e_{1,2} + t2 e_{4,3} has square 0, so exp is I + sum
        t1, t2 = Fraction(2), Fraction(-3, 5)
        n = mat_add(ExactMatrix.sparse(4, {(1, 2): t1}),
                    ExactMatrix.sparse(4, {(4, 3): t2}))
        assert mat_mul(n, n) == ExactMatrix.sparse(4, {})
        assert exp_nilpotent(n) == unit_plus(4, {(1, 2): t1, (4, 3): t2})

    def test_order_three_divides_by_factorials(self):
        n = mat_add(ExactMatrix.sparse(4, {(1, 2): 1}),
                    ExactMatrix.sparse(4, {(2, 3): 1}))
        expected = unit_plus(4, {(1, 2): 1, (2, 3): 1, (1, 3): Fraction(1, 2)})
        assert exp_nilpotent(n) == expected

    def test_rejects_semisimple(self):
        with pytest.raises(NotNilpotentError):
            exp_nilpotent(ExactMatrix.identity(4))

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4),
                              st.fractions(min_value=-9, max_value=9, max_denominator=4)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_exp_inverse_property(self, entries):
        # strictly upper-triangular matrices are nilpotent
        acc = {}
        for i, j, v in entries:
            if i < j:
                acc[(i, j)] = acc.get((i, j), Fraction(0)) + v
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for (i, j), v in acc.items():
            rows[i - 1][j - 1] = v
        n = ExactMatrix(rows)
        neg = ExactMatrix([[-x for x in r] for r in rows])
        assert mat_mul(exp_nilpotent(n), exp_nilpotent(neg)) == \
            ExactMatrix.identity(4)

    def test_commuting_sum_splits(self):
        n1 = ExactMatrix.sparse(4, {(1, 3): Fraction(2)})
        n2 = ExactMatrix.sparse(4, {(2, 4): Fraction(-7, 3)})
        assert mat_mul(n1, n2) == mat_mul(n2, n1)
        assert exp_nilpotent(mat_add(n1, n2)) == \
            mat_mul(exp_nilpotent(n1), exp_nilpotent(n2))


class TestMembership:
    def test_identity_everywhere(self):
        for fam in ("sp", "sl-r", "sl-c"):
            model = GroupModel(fam, 2)
            assert check_membership(ExactMatrix.identity(4), model)

    def test_symplectic_long_root_by_hand(self):
        # (I + 3 e_{1,3})^T J (I + 3 e_{1,3}) = J, checked via explicit J
        model = GroupModel("sp", 2)
        j = symplectic_form(4)
        m = unit_plus(4, {(1, 3): 3})
        assert mat_mul(mat_mul(m.transpose(), j), m) == j
        assert check_membership(m, model)

    def test_bad_diagonal_rejected(self):
        m = ExactMatrix([[2, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]])
        assert not check_membership(m, GroupModel("sp", 2))
        assert not check_membership(m, GroupModel("sl-r", 2))

    def test_closed_under_product_and_inverse(self):
        from chevalley.generators import gen_x
        from chevalley.roots import build_root_system
        rng = random.Random(20240817)
        for fam in ("sp", "sl-r"):
            model = GroupModel(fam, 2)
            roots = build_root_system(2).roots
            prod = ExactMatrix.identity(4)
            for _ in range(6):
                r = roots[rng.randrange(len(roots))]
                arity = model.param_arity(r)
                params = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                               for _ in range(arity))
                prod = mat_mul(prod, gen_x(model, r, params))
            assert check_membership(prod, model)
            assert check_membership(mat_inv(prod), model)


def read_matrix(text):
    """The matrix of format_matrix's text, read row by row with the one
    list reader of the text grammar."""
    return ExactMatrix(read_list(text, ";", lambda row: read_list(
        row, ",", parse_scalar)))


class TestTextFormat:
    def test_round_trip(self):
        m = ExactMatrix([[1, Fraction(2, 3)], [-4, 5]])
        assert format_matrix(m) == "1,2/3;-4,5" == str(m)
        assert read_matrix(format_matrix(m)) == m

    def test_gaussian_round_trip(self):
        m = ExactMatrix([[GaussianRational(1, 2), 0],
                         [0, GaussianRational(Fraction(1, 2), Fraction(-1, 3))]])
        assert format_matrix(m) == "1+2 i,0;0,1/2-1/3 i"
        assert read_matrix(format_matrix(m)) == m

    def test_odd_size_rejected(self):
        with pytest.raises(MatrixError):
            ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("text", ["1,0;;0,1", "1,0;0,1;", "", "1,,0;0,1",
                                      "1.5,0;0,1"])
    def test_empty_rows_and_entries_rejected(self, text):
        # an empty row is never skipped
        with pytest.raises(ScalarError):
            read_matrix(text)


class TestLaurentGridAgreement:
    def test_symbolic_matrix_evaluates_to_rational_matrix(self):
        # identity-asserting equation verified symbolically agrees with the
        # rational-mode computation at every admissible grid point
        t = LaurentFrac.symbol("t")
        m = ExactMatrix([[t, 1], [0, 1 / t]])
        prod = mat_mul(m, mat_inv(m))
        assert prod == ExactMatrix.identity(2, "laurent")
        for tv in (Fraction(2), Fraction(-5, 3), Fraction(1, 7)):
            mv = m.evaluate({"t": tv})
            assert mat_mul(mv, mat_inv(mv)) == ExactMatrix.identity(2)
            assert prod.evaluate({"t": tv}) == ExactMatrix.identity(2)


def random_rows(rng, m, k):
    """Small rational rows, about a third of the entries zero."""
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             if rng.random() < 0.7 else Fraction(0) for _ in range(k)]
            for _ in range(m)]


class TestRowReduce:
    def test_rref_pivots_and_swap_signed_det(self):
        # col 0 pivots on row 1 (one swap); the pivots are 1, 2, 3
        rows = [[Fraction(x) for x in r]
                for r in ([0, 2, 4], [1, 1, 1], [2, 2, 5])]
        rref, pivots, det = row_reduce(rows, 3)
        assert pivots == (0, 1, 2)
        assert rref == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert det == -6

    def test_rank_deficient(self):
        rows = [[Fraction(x) for x in r]
                for r in ([1, 2, 3], [2, 4, 6], [1, 0, 1])]
        rref, pivots, det = row_reduce(rows, 3)
        assert pivots == (0, 1)
        assert rref == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
        assert det == 0

    def test_augmented_columns_ride_along(self):
        # [A | b] solves A x = b: 2x + y = 5, x - y = 1 gives x = 2, y = 1
        rows = [[Fraction(2), Fraction(1), Fraction(5)],
                [Fraction(1), Fraction(-1), Fraction(1)]]
        rref, pivots, det = row_reduce(rows, 2)
        assert pivots == (0, 1)
        assert [r[2] for r in rref] == [2, 1]
        assert det == -3

    def test_non_square_det_is_zero(self):
        rows = [[Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)]]
        assert row_reduce(rows, 3)[1:] == ((0, 1), 0)
        tall = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)],
                [Fraction(1), Fraction(1)]]
        assert row_reduce(tall, 2)[1:] == ((0, 1), 0)

    def test_empty_and_input_untouched(self):
        assert row_reduce([], 3) == ([], (), 0)
        rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
        row_reduce(rows, 2)
        assert rows == [[2, 4], [1, 3]]

    def test_gaussian(self):
        i = GaussianRational(0, 1)
        one = GaussianRational(1)
        rref, pivots, det = row_reduce([[i, one], [one, i]], 2)
        assert pivots == (0, 1) and det == GaussianRational(-2)
        rref, pivots, det = row_reduce([[i, one], [one, -i]], 2)
        assert pivots == (0,) and det == GaussianRational(0)
        assert rref[0] == [one, -i]

    def test_laurent(self):
        # every pivot a monomial, a unit of the Laurent-polynomial ring
        t = LaurentFrac.symbol("t")
        one, z = LaurentFrac(1), LaurentFrac(0)
        rref, pivots, det = row_reduce([[t, one], [one, 2 / t]], 2)
        assert pivots == (0, 1) and det == 1
        assert rref == [[one, z], [z, one]]
        rref, pivots, det = row_reduce([[t, one], [t * t, t]], 2)
        assert pivots == (0,) and not det
        assert rref[0] == [one, 1 / t]
        # the second pivot t - 1/t is no unit: the ring cannot divide by it
        with pytest.raises(ScalarError):
            row_reduce([[t, one], [one, t]], 2)


class TestDet:
    def test_swap_sign(self):
        assert mat_det(ExactMatrix([[0, 1], [1, 0]])) == -1
        # a 4-cycle is odd: three transpositions
        cyc = ExactMatrix([[0, 1, 0, 0], [0, 0, 1, 0],
                           [0, 0, 0, 1], [1, 0, 0, 0]])
        assert mat_det(cyc) == -1

    def test_triangular_and_singular(self):
        assert mat_det(ExactMatrix([[2, 7], [0, Fraction(1, 3)]])) == \
            Fraction(2, 3)
        assert mat_det(ExactMatrix([[1, 2], [2, 4]])) == 0

    def test_gaussian_and_laurent(self):
        # the determinant stays in the matrix's mode, zero included
        i = GaussianRational(0, 1)
        for m, det in ((ExactMatrix([[i, 1], [1, i]]), GaussianRational(-2)),
                       (ExactMatrix([[i, 1], [1, -i]]), GaussianRational(0))):
            assert mat_det(m) == det
            assert isinstance(mat_det(m), GaussianRational)
        t = LaurentFrac.symbol("t")
        for m, det in ((ExactMatrix([[t, 1], [1, 2 / t]]), LaurentFrac(1)),
                       (ExactMatrix([[t, 1], [t * t, t]]), LaurentFrac(0))):
            assert mat_det(m) == det
            assert isinstance(mat_det(m), LaurentFrac)
        with pytest.raises(ScalarError):
            mat_det(ExactMatrix([[t, 1], [1, t]]))

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(20):
            a = ExactMatrix(random_rows(rng, 4, 4))
            b = ExactMatrix(random_rows(rng, 4, 4))
            assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


class TestInvModes:
    def test_gaussian(self):
        i = GaussianRational(0, 1)
        m = ExactMatrix([[i, 1], [1, -i + 2]])
        assert mat_mul(m, mat_inv(m)) == ExactMatrix.identity(2, "gaussian")

    def test_singular_ranks(self):
        m = ExactMatrix([[1, 2, 0, 0], [2, 4, 0, 0],
                         [0, 0, 1, 1], [0, 0, 1, 1]])
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(m)
        assert err.value.rank == 2
        i = GaussianRational(0, 1)
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(ExactMatrix([[i, 1], [1, -i]]))
        assert err.value.rank == 1
        t = LaurentFrac.symbol("t")
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(ExactMatrix([[t, 1], [t * t, t]]))
        assert err.value.rank == 1
        with pytest.raises(SingularMatrixError) as err:
            mat_inv(ExactMatrix.sparse(4, {}))
        assert err.value.rank == 0


class TestKernelAgainstSympy:
    """sympy as an independent oracle for the rational kernel."""

    def test_rref_rank_and_det(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        for _ in range(60):
            m, k = rng.randint(1, 5), rng.randint(1, 5)
            rows = random_rows(rng, m, k)
            ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                 for x in r] for r in rows])
            rref, pivots, det = row_reduce(rows, k)
            ref_rref, ref_pivots = ref.rref()
            assert pivots == tuple(ref_pivots)
            assert len(pivots) == ref.rank()
            assert [[sympy.Rational(x.numerator, x.denominator) for x in r]
                    for r in rref] == ref_rref.tolist()
            if m == k:
                assert det == Fraction(str(ref.det()))

    def test_inverse_and_det(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4)
        for _ in range(30):
            rows = random_rows(rng, 4, 4)
            ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                 for x in r] for r in rows])
            m = ExactMatrix(rows)
            assert mat_det(m) == Fraction(str(ref.det()))
            if ref.det() == 0:
                with pytest.raises(SingularMatrixError) as err:
                    mat_inv(m)
                assert err.value.rank == ref.rank()
            else:
                inv = ref.inv()
                assert mat_inv(m).rows == [[Fraction(str(inv[i, j]))
                                            for j in range(4)]
                                           for i in range(4)]
