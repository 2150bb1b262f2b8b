"""Scalar modes: canonical forms, arithmetic, parsing round-trips."""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import scalars
from chevalley.scalars import (GaussianRational, LaurentFrac, ScalarError,
                               format_scalar, join_mode, mode_of,
                               parse_scalar, read_integer, read_lines,
                               read_list, read_rational)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


class TestGaussian:
    def test_field_identities(self):
        i = GaussianRational(0, 1)
        assert i * i == Fraction(-1)
        z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        assert z * z.conjugate() == z.norm() == Fraction(13, 16)
        assert (z / z) == Fraction(1)
        assert z + (-z) == 0 and not (z - z)

    def test_division_exact(self):
        a = GaussianRational(1, 2)
        b = GaussianRational(3, -1)
        assert (a / b) * b == a

    def test_pow(self):
        i = GaussianRational(0, 1)
        assert i ** 4 == 1 and i ** -1 == -i

    @given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, za, zb):
        a = GaussianRational(*za)
        b = GaussianRational(*zb)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (a + b) == a * a + a * b

    def test_parts_stay_canonical(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        assert z.re == Fraction(1, 2) and z.re.denominator == 2
        assert z.im == Fraction(-2, 3) and z.im.denominator == 3


def _general_div(a, b, c, d):
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _assert_result(z, parts):
    """z has exactly the given parts, each a Fraction; a real z has im
    Fraction(0) and hashes like its real part."""
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == parts
    if not parts[1]:
        assert z.im == Fraction(0)
        assert hash(z) == hash(z.re)


# imaginary parts: zero half the time, so real operands are covered as well
# as complex ones
imaginary = st.one_of(st.just(Fraction(0)), rationals)


class TestGaussianRealFastPaths:
    """Each operator agrees part for part with the general Q(i) formula,
    whether or not an operand is real."""

    @given(rationals, imaginary, rationals, imaginary)
    @settings(max_examples=200, deadline=None)
    def test_against_general_formulas(self, a, b, c, d):
        x = GaussianRational(a, b)
        y = GaussianRational(c, d)
        _assert_result(x + y, (a + c, b + d))
        _assert_result(x - y, (a - c, b - d))
        _assert_result(-x, (-a, -b))
        _assert_result(x * y, (a * c - b * d, a * d + b * c))
        if c or d:
            _assert_result(x / y, _general_div(a, b, c, d))

    @given(rationals, imaginary, rationals, st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_mixed_with_rationals_and_ints(self, a, b, q, k):
        x = GaussianRational(a, b)
        for s in (q, k):
            f = Fraction(s)
            _assert_result(x + s, (a + f, b))
            _assert_result(s + x, (a + f, b))
            _assert_result(x - s, (a - f, b))
            _assert_result(s - x, (f - a, -b))
            _assert_result(x * s, (a * f, b * f))
            _assert_result(s * x, (a * f, b * f))
            if s:
                _assert_result(x / s, (a / f, b / f))
            if a or b:
                _assert_result(s / x, _general_div(f, Fraction(0), a, b))
            assert (x == s) == (a == f and not b)

    @given(rationals, imaginary)
    @settings(max_examples=60, deadline=None)
    def test_evaluate_linear_terms_at_gaussians(self, a, b):
        # exponent 1 multiplies by the value itself; other exponents use pow
        x = GaussianRational(a, b)
        p = LaurentFrac({(("x", 1),): Fraction(3), (("x", 2),): Fraction(-2),
                         (("x", 1), ("y", 1)): Fraction(1, 2)})
        y = GaussianRational(Fraction(2), Fraction(-1))
        got = p.evaluate({"x": x, "y": y})
        assert got == 3 * x - 2 * (x * x) + Fraction(1, 2) * (x * y)
        if x:
            q = LaurentFrac({(("x", -1),): Fraction(1), (("x", 1),): Fraction(1)})
            assert q.evaluate({"x": x}) == 1 / x + x

    @given(rationals, rationals, nonzero_rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_laurent_arithmetic_is_untouched(self, p, q, r, v):
        # LaurentFrac keeps its own operators: every result is canonical
        # and evaluates to the rational computation
        t = LaurentFrac.symbol("t")
        exprs = [
            ((p * t + q) - (q * t - p), (p * v + q) - (q * v - p)),
            (-(t - p), -(v - p)),
            (q - t * r, q - v * r),
            (t * r + p, v * r + p),
            ((t + p) * (t - q), (v + p) * (v - q)),
            ((t * t - p) / r, (v * v - p) / r),
        ]
        for expr, value in exprs:
            assert type(expr) is LaurentFrac
            assert expr.is_canonical()
            assert expr.evaluate({"t": v}) == value
        assert (t - p) - (t - p) == 0
        assert LaurentFrac(p) - LaurentFrac(q) == LaurentFrac(p - q)


class TestLaurent:
    def test_symbol_arithmetic(self):
        t = LaurentFrac.symbol("t")
        assert t * (1 / t) == 1
        assert (t + 1) * (t - 1) == t * t - 1
        assert t ** -2 * t ** 2 == 1

    def test_exact_division_reduces(self):
        # a monomial divides exactly, and the quotient is one polynomial
        t = LaurentFrac.symbol("t")
        s = LaurentFrac.symbol("s")
        expr = (t ** 3 - t * s) / (t * s)
        assert expr == t * t / s - 1
        assert expr.terms == {(("s", -1), ("t", 2)): 1, (): -1}

    def test_monomial_denominator_folds(self):
        t = LaurentFrac.symbol("t")
        s = LaurentFrac.symbol("s")
        expr = (t * t + s) / (t * s)
        # the monomial's inverse multiplies each term
        assert expr == t / s + 1 / t
        assert expr.terms == {(("s", -1), ("t", 1)): Fraction(1),
                              (("t", -1),): Fraction(1)}

    def test_denominator_sign_and_content(self):
        # a monomial divisor's sign and coefficient divide every coefficient;
        # a divisor of two terms is refused whatever its content
        t = LaurentFrac.symbol("t")
        f = LaurentFrac(2) / (t * Fraction(-2, 3))
        assert f == -3 / t
        assert f.terms == {(("t", -1),): Fraction(-3)}
        with pytest.raises(ScalarError):
            LaurentFrac(2) / (t * (-2) - 4)

    def test_equality_compares_terms(self):
        t = LaurentFrac.symbol("t")
        a = (t * t - 1) / t
        b = t - 1 / t
        assert a == b and a.terms == b.terms and hash(a) == hash(b)
        assert a != t - 1 and not (a == t - 1)
        # the public constructor reaches the same value and hash
        c = LaurentFrac({(("t", -1),): -1, (("t", 1),): 1})
        assert c == a and hash(c) == hash(a) and len({a, b, c}) == 1

    def test_non_unit_divisor_is_refused(self):
        # (x*x-1)/(x*x+x) and (x-1)/x are one rational function, yet a ratio
        # of polynomials kept without a gcd hashed them apart; the ring has
        # no such quotient at all
        x = LaurentFrac.symbol("x")
        with pytest.raises(ScalarError, match="only a monomial"):
            (x * x - 1) / (x * x + x)
        assert (x - 1) / x == 1 - 1 / x
        with pytest.raises(ScalarError):
            1 / (x + 1)
        with pytest.raises(ScalarError):
            (x + 1) ** -1
        for zero in (LaurentFrac(0), x - x, 0):
            with pytest.raises(ZeroDivisionError):
                x / zero

    def test_evaluate_matches_rational_route(self):
        t = LaurentFrac.symbol("t")
        s = LaurentFrac.symbol("s")
        expr = (t ** 2 - s) / (t * s) + 1 / (3 * t * s ** 2)
        for tv, sv in [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5))]:
            direct = (tv ** 2 - sv) / (tv * sv) + 1 / (3 * tv * sv ** 2)
            assert expr.evaluate({"t": tv, "s": sv}) == direct

    def test_evaluate_rejects_vanishing_denominator(self):
        # a negative exponent has no value at zero
        t = LaurentFrac.symbol("t")
        with pytest.raises(ZeroDivisionError):
            (1 / t + 1).evaluate({"t": Fraction(0)})

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(-4, 4)), min_size=1, max_size=4),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2), nonzero_rationals),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(-4, 4)), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_product_division_round_trip(self, pterms, mono, qterms):
        # (p*m)/m is p for every monomial m; a q of two or more terms divides
        # nothing, not even its own multiple
        def build(terms):
            out = LaurentFrac(0)
            for et, es, c in terms:
                if c:
                    out = out + LaurentFrac({_mk_key(et, es): Fraction(c)})
            return out

        p = build(pterms)
        m = LaurentFrac({_mk_key(mono[0], mono[1]): mono[2]})
        quotient = (p * m) / m
        assert quotient == p and quotient.is_canonical()
        q = build(qterms)
        if len(q.terms) > 1:
            with pytest.raises(ScalarError):
                (p * q) / q

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
    @settings(max_examples=40, deadline=None)
    def test_canonical_after_mixed_ops(self, a, b, c):
        t = LaurentFrac.symbol("t")
        expr = (a * t + b) / (c * t) - (t ** -1) * (b / c) + t / t
        assert expr.is_canonical()
        # value check at a sample point
        pt = Fraction(7, 3)
        assert expr.evaluate({"t": pt}) == (a * pt + b) / (c * pt) - b / (c * pt) + 1

    def test_constants_hash_like_their_fraction(self):
        assert len({LaurentFrac(2), Fraction(2), LaurentFrac({(): 2})}) == 1
        assert len({LaurentFrac(0), Fraction(0), LaurentFrac({})}) == 1

    @given(rationals, nonzero_rationals)
    @settings(max_examples=60, deadline=None)
    def test_constant_results_hash_like_their_fraction(self, a, b):
        # a constant reached through symbolic arithmetic is still the value
        t = LaurentFrac.symbol("t")
        for value, c in (((t + a) - t, a), ((a * t) / t, a),
                         ((b * t * t + a * t) / (b * t) - t, a / b)):
            assert value == c and hash(value) == hash(c)


def _mk_key(et, es):
    key = []
    if et:
        key.append(("t", et))
    if es:
        key.append(("s", es))
    return tuple(key)


# Laurent polynomials in t and s with exponents in [-2, 2], as raw term
# dicts; a zero coefficient is dropped and the keys sorted by the public
# constructor
_laurent_terms = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2),
              st.one_of(st.just(Fraction(0)), rationals)),
    max_size=4)


def _raw(terms):
    return {_mk_key(et, es): c for et, es, c in terms}


@st.composite
def _laurent_pairs(draw):
    """(p, q) raw term dicts where q repeats some of p's terms, as they are
    or negated, so that p - q or p + q cancels them."""
    pt = draw(_laurent_terms)
    qt = list(draw(_laurent_terms))
    for et, es, c in pt:
        sign = draw(st.sampled_from((0, 1, -1)))
        if sign:
            qt.append((et, es, sign * c))
    return _raw(pt), _raw(qt)


# A reference ring on plain term dicts, independent of the scalars module:
# the canonical form of a raw dict, sums, products and a monomial's inverse.

def _ref(raw):
    return {tuple(sorted(k)): Fraction(c) for k, c in raw.items() if c}


def _ref_add(p, q, sign=1):
    out = {k: p.get(k, 0) + sign * q.get(k, 0) for k in set(p) | set(q)}
    return {k: c for k, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            e = Counter(dict(k1))
            e.update(dict(k2))
            k = tuple(sorted((n, x) for n, x in e.items() if x))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_inverse(m):
    (key, c), = m.items()
    return {tuple((name, -e) for name, e in key): 1 / c}


def _ref_const(c):
    return _ref({(): c})


def _assert_ring(f, terms):
    """f is a canonical LaurentFrac holding exactly the reference terms."""
    assert type(f) is LaurentFrac
    assert f.terms == terms
    assert f.is_canonical()
    assert all(type(c) is Fraction and c for c in f.terms.values())
    assert all(list(k) == sorted(k) and all(e for _n, e in k)
               for k in f.terms)


class TestLaurentPolynomialFastPaths:
    """Every LaurentFrac operator agrees term for term with the reference
    ring on term dicts, and the only divisor is a monomial."""

    @given(_laurent_pairs())
    @settings(max_examples=300, deadline=None)
    def test_operators_against_general_route(self, pq):
        p, q = _ref(pq[0]), _ref(pq[1])
        a, b = LaurentFrac(pq[0]), LaurentFrac(pq[1])
        _assert_ring(a, p)
        _assert_ring(a + b, _ref_add(p, q))
        _assert_ring(a - b, _ref_add(p, q, -1))
        _assert_ring(-a, _ref_add({}, p, -1))
        _assert_ring(a * b, _ref_mul(p, q))
        assert (a == b) == (p == q)
        if a == b:
            assert hash(a) == hash(b)
        if len(q) == 1:
            _assert_ring(a / b, _ref_mul(p, _ref_inverse(q)))
        elif q:
            with pytest.raises(ScalarError):
                a / b
        else:
            with pytest.raises(ZeroDivisionError):
                a / b

    @given(_laurent_pairs(), rationals, st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_mixed_with_rationals_and_ints(self, pq, r, k):
        p = _ref(pq[0])
        a = LaurentFrac(pq[0])
        for c in (r, k):
            cp = _ref_const(c)
            _assert_ring(a + c, _ref_add(p, cp))
            _assert_ring(c + a, _ref_add(p, cp))
            _assert_ring(a - c, _ref_add(p, cp, -1))
            _assert_ring(c - a, _ref_add(cp, p, -1))
            _assert_ring(a * c, _ref_mul(p, cp))
            _assert_ring(c * a, _ref_mul(p, cp))
            assert (a == c) == (p == cp)
            if c:
                _assert_ring(a / c, _ref_mul(p, _ref_inverse(cp)))
            if len(p) == 1:
                _assert_ring(c / a, _ref_mul(cp, _ref_inverse(p)))
            elif p:
                with pytest.raises(ScalarError):
                    c / a

    @given(_laurent_pairs())
    @settings(max_examples=150, deadline=None)
    def test_polynomial_arithmetic_stays_canonical(self, pq):
        p, q = LaurentFrac(pq[0]), LaurentFrac(pq[1])
        point = {"t": Fraction(7, 3), "s": Fraction(-5, 2)}
        pv, qv = p.evaluate(point), q.evaluate(point)
        for r, value in ((p + q, pv + qv), (p - q, pv - qv), (-p, -pv),
                         (p * q, pv * qv), (p * Fraction(-3, 4), pv * Fraction(-3, 4)),
                         (p * 0, 0)):
            _assert_ring(r, r.terms)
            assert r.evaluate(point) == value

    def test_cancelling_terms_leave_no_zero(self):
        t = LaurentFrac.symbol("t")
        s = LaurentFrac({(("s", -1),): 1})
        assert (t + s) - (t + s) == LaurentFrac(0)
        assert ((t + s) + (-t)).terms == s.terms
        assert ((t + s) * (t - s)).terms == (t * t - s * s).terms
        assert (t + s) * (t - s) == LaurentFrac({(("t", 2),): 1, (("s", -2),): -1})

    def test_results_hold_one_polynomial(self):
        t = LaurentFrac.symbol("t")
        s = LaurentFrac.symbol("s")
        results = [
            t, LaurentFrac(0), LaurentFrac(Fraction(3, 5)), t - t, t * 2,
            (t * t - t) / t,                      # exact division
            (t * t + s) / (t * s),                # monomial fold
            1 / t, t / (3 * s), t ** -2, LaurentFrac({(("t", 1),): 1}) / 5,
            ((t + 1) * t) / t,
        ]
        for f in results:
            assert type(f) is LaurentFrac and f.is_canonical()
            assert repr(f) == "LaurentFrac(%s)" % format_scalar(f)
        for divisor in (t + 1, t - s, 2 * t * s + 1):
            with pytest.raises(ScalarError):
                1 / divisor

    @given(_laurent_pairs(), st.integers(-2, 2), rationals.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_divisor_with_two_terms_raises(self, pq, e, c):
        # only / reaches the ring's one division routine, _normalize
        p, q = _ref(pq[0]), _ref(pq[1])
        a, b = LaurentFrac(p), LaurentFrac(q)
        monomial = LaurentFrac({_mk_key(e, 1): c})
        with mock.patch.object(scalars, "_normalize",
                               wraps=scalars._normalize) as normalize:
            for f in (a + b, a - b, a * b):
                assert f.is_canonical()
            assert (a == b) == (p == q)
            assert normalize.call_count == 0
            assert (a / monomial).is_canonical()
            assert monomial / monomial == 1
            assert normalize.call_count == 2
            if len(q) >= 2:
                with pytest.raises(ScalarError):
                    a / b
                assert normalize.call_count == 3
                (num, den), _kw = normalize.call_args
                assert num.terms == p and den.terms == q


# rational operands, the units 0, 1 and -1 as ints and Fractions among them
_unit_scalars = st.one_of(
    st.sampled_from((0, 1, -1, Fraction(0), Fraction(1), Fraction(-1))),
    st.integers(-5, 5), rationals)

# raw term dicts whose coefficients are all 1 or -1
_sign_terms = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2),
              st.sampled_from((Fraction(1), Fraction(-1)))),
    max_size=4).map(_raw)


def _ref_hash(terms):
    """The hash rule on a reference term dict: a constant hashes like its
    Fraction, anything else like its set of terms."""
    if not terms:
        return hash(Fraction(0))
    if list(terms) == [()]:
        return hash(terms[()])
    return hash(frozenset(terms.items()))


def _assert_unit_result(f, terms):
    _assert_ring(f, terms)
    assert hash(f) == _ref_hash(terms)


class TestLaurentUnitShortcuts:
    """A rational operand scales the coefficients, and a unit operand or
    coefficient costs no arithmetic; every result is the reference ring's,
    canonical and hashed by the one hash rule."""

    @given(_laurent_pairs(), _unit_scalars)
    @settings(max_examples=200, deadline=None)
    def test_rational_operand(self, pq, k):
        p = _ref(pq[0])
        a = LaurentFrac(pq[0])
        scaled = _ref_mul(p, _ref_const(k))
        _assert_unit_result(a * k, scaled)
        _assert_unit_result(k * a, scaled)
        if k:
            _assert_unit_result(a / k, _ref_mul(p, _ref_const(1 / Fraction(k))))
        else:
            assert hash(a * k) == hash(k * a) == hash(Fraction(0))
            with pytest.raises(ZeroDivisionError):
                a / k
        if k == 1:
            assert a * k is a and k * a is a and a / k is a

    @given(_sign_terms, _sign_terms, _laurent_pairs())
    @settings(max_examples=200, deadline=None)
    def test_unit_coefficients(self, ps, qs, pq):
        p, q, g = _ref(ps), _ref(qs), _ref(pq[0])
        a, b, c = LaurentFrac(ps), LaurentFrac(qs), LaurentFrac(pq[0])
        _assert_unit_result(a * b, _ref_mul(p, q))
        _assert_unit_result(a * c, _ref_mul(p, g))
        _assert_unit_result(c * a, _ref_mul(g, p))
        if len(q) == 1:
            _assert_unit_result(c / b, _ref_mul(g, _ref_inverse(q)))
            _assert_unit_result(a / b, _ref_mul(p, _ref_inverse(q)))

    @pytest.mark.parametrize("other", [GaussianRational(1), GaussianRational(0),
                                       GaussianRational(2, 1), 1.0])
    def test_other_operands_are_refused(self, other):
        t = LaurentFrac.symbol("t")
        for op in (lambda: t * other, lambda: other * t, lambda: t / other):
            with pytest.raises(TypeError):
                op()

    def test_division_by_one_skips_normalize(self):
        # a rational 1 returns the dividend before _normalize; a monomial,
        # a constant polynomial and any other rational still reach it
        t = LaurentFrac.symbol("t")
        s = LaurentFrac.symbol("s")
        p = (t + Fraction(2, 3)) * s
        with mock.patch.object(scalars, "_normalize",
                               wraps=scalars._normalize) as normalize:
            assert p / 1 is p and p / Fraction(1) is p
            assert normalize.call_count == 0
            _assert_unit_result(p / (t * s), _ref({(): 1, (("t", -1),): Fraction(2, 3)}))
            _assert_unit_result(p / (-s), _ref({(("t", 1),): -1, (): Fraction(-2, 3)}))
            _assert_unit_result(p / LaurentFrac(1), p.terms)
            _assert_unit_result(p / 2, _ref({(("s", 1), ("t", 1)): Fraction(1, 2),
                                             (("s", 1),): Fraction(1, 3)}))
            assert normalize.call_count == 4


def _load_tracing():
    """perfbench/tracing.py, loaded from its file without touching it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerHooks:
    """The bench tracer wraps LaurentFrac's operators from the class dict and
    scalars._normalize by name; each operator counts once and reaches no
    other counted operator, and uninstall puts the originals back."""

    def test_tracer_counts_laurent_ops_and_restores_them(self):
        tracing = _load_tracing()
        ops = {name: LaurentFrac.__dict__[name] for name in tracing.SCALAR_OPS}
        normalize = scalars._normalize
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert all(LaurentFrac.__dict__[name] is not fn
                       for name, fn in ops.items())
            assert scalars._normalize is not normalize
            t = LaurentFrac.symbol("t")
            value = ((t + 1) * t) / t
        finally:
            tracer.uninstall()
        assert value == t + 1
        assert tracer.counts["scalars.laurent_ops"] == 3
        assert tracer.counts["scalars.normalize_calls"] == 1
        assert all(LaurentFrac.__dict__[name] is fn for name, fn in ops.items())
        assert scalars._normalize is normalize


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)),
        ("-5/7", Fraction(-5, 7)),
        ("1/2+3/4 i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4 i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("-2 i", GaussianRational(0, -2)),
        ("i", GaussianRational(0, 1)),
        # spaces around the imaginary part's sign and before "i"
        ("1/2 + 3/4 i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("2 -i", GaussianRational(2, -1)),
        ("- 2i", GaussianRational(0, -2)),
        ("3i", GaussianRational(0, 3)),
        ("+i", GaussianRational(0, 1)),
    ])
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    def test_symbol_parse(self):
        v = parse_scalar("t1")
        assert isinstance(v, LaurentFrac)
        assert v == LaurentFrac.symbol("t1")

    # a space inside a number is no digit separator: "1 2" is not 12, nor
    # "1 2+i" 12+i, nor "1+2 3i" 1+23i; decimals, exponents, "_" separators
    # and non-ASCII digits are no tokens of the grammar
    @pytest.mark.parametrize("text", ["", "2//3", "1+2j", "t-1", "1 2",
                                      "1 2+i", "1+2 3i", "1.5", "1e3",
                                      "1_000", "\u0661", "1.5+2i",
                                      "\uff13", "1/0", "1+1/0 i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ScalarError):
            parse_scalar(text)

    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "\u0661",
                                      " 1", "+1/2", "1/2/3"])
    def test_integer_token_is_strict(self, text):
        with pytest.raises(ScalarError):
            read_integer(text)

    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "\u0661", "i",
                                      "x", "1/-2", "1/0"])
    def test_rational_token_is_strict(self, text):
        with pytest.raises(ScalarError):
            read_rational(text)

    def test_tokens(self):
        assert read_integer("-007") == -7 and read_integer("+3") == 3
        assert read_rational("-2/4") == Fraction(-1, 2)

    def test_list_reader(self):
        assert read_list(" 1 , -2/3 ", ",", read_rational) == \
            [Fraction(1), Fraction(-2, 3)]
        assert read_list("a;b", ";") == ["a", "b"]
        for text in ("", " ", "1,,2", ",1", "1,", "1, ,2"):
            with pytest.raises(ScalarError):
                read_list(text, ",")

    def test_content_lines_reader(self):
        text = "\n  # note\nx 1 \n\n\t#\ny\n"
        assert list(read_lines(text)) == [(3, "x 1"), (6, "y")]

    @given(rationals)
    @settings(max_examples=40, deadline=None)
    def test_rational_round_trip(self, q):
        assert parse_scalar(format_scalar(q)) == q

    @given(rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_gaussian_round_trip(self, re, im):
        z = GaussianRational(re, im)
        assert parse_scalar(format_scalar(z)) == z


class TestModes:
    def test_mode_of(self):
        assert mode_of(Fraction(1)) == "rational"
        assert mode_of(GaussianRational(1)) == "gaussian"
        assert mode_of(LaurentFrac.symbol("t")) == "laurent"

    def test_join_rejects_gaussian_laurent(self):
        with pytest.raises(ScalarError):
            join_mode(["gaussian", "laurent"])

    def test_cross_mode_equality_is_transitive(self):
        # each equals Fraction(2), so they equal each other, both ways round
        g, lf = GaussianRational(2), LaurentFrac(2)
        assert g == lf and lf == g
        assert not (g != lf) and not (lf != g)
        assert len({GaussianRational(2), LaurentFrac(2), Fraction(2)}) == 1

    def test_cross_mode_inequality(self):
        t = LaurentFrac.symbol("t")
        for g, lf in ((GaussianRational(2, 1), LaurentFrac(2)),
                      (GaussianRational(3), LaurentFrac(2)),
                      (GaussianRational(2), t + 2)):
            assert g != lf and lf != g
            assert not (g == lf) and not (lf == g)
