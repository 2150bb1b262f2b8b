"""Exact scalar arithmetic: rationals, Gaussian rationals, Laurent polynomials.

Three scalar modes, never any floating point:

* ``rational``  -- :class:`fractions.Fraction` (always in lowest terms,
  positive denominator; the stdlib guarantees this).
* ``gaussian``  -- :class:`GaussianRational`, a pair of canonical Fractions
  modelling Q(i).  Every identity in scope has integer structure constants,
  so validity on a Q(i) grid certifies it over C.
* ``laurent``   -- :class:`LaurentFrac`, the one class of the ring of sparse
  multivariate Laurent polynomials over Q in named parameter symbols.  Used
  by the symbolic verification regime: an identity that holds as an
  equality of Laurent polynomials holds for every nonzero parameter value.

Laurent canonical form: a dict from sorted monomial keys with nonzero
exponents to nonzero Fraction coefficients, so equality is dict equality.
The ring divides only by a monomial, which is a unit; any other divisor is a
ScalarError, since the quotient would leave the ring.

One hash rule: equal values hash alike.  A real ``GaussianRational`` and a
constant ``LaurentFrac`` hash like their ``Fraction``; a cache keys on the
mode as well.
"""

from __future__ import annotations

import re
from fractions import Fraction


RATIONAL = "rational"
GAUSSIAN = "gaussian"
LAURENT = "laurent"


class ScalarError(ValueError):
    """Bad scalar construction, parse failure, or mode mismatch."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

# the imaginary part of a rational embedded in Q(i)
_ZERO = Fraction(0)


def _power(x, k, one):
    """x ** k by square-and-multiply; a negative k inverts x first."""
    if k < 0:
        x, k = one / x, -k
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


class GaussianRational:
    """Element of Q(i) with canonical Fraction real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _raw(cls, re, im):
        # fast constructor for internal arithmetic; parts already Fractions
        obj = object.__new__(cls)
        object.__setattr__(obj, "re", re)
        object.__setattr__(obj, "im", im)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, Fraction):
            return GaussianRational._raw(other, _ZERO)
        if isinstance(other, int):
            return GaussianRational._raw(Fraction(other), _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational._raw(a * c - b * d, a * d + b * c)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational._raw(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conjugate(self):
        return GaussianRational._raw(self.re, -self.im)

    def norm(self):
        """Field norm re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = self * o.conjugate()
        return GaussianRational._raw(c.re / n, c.im / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, GaussianRational(1))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, LaurentFrac):
                # a constant of the other mode compares through its Fraction;
                # LaurentFrac.__eq__ returns NotImplemented and lands here
                return not self.im and other == self.re
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        return format_scalar(self)


# ---------------------------------------------------------------------------
# Sparse multivariate Laurent polynomials
# ---------------------------------------------------------------------------
# A monomial key is a tuple of (name, exponent) pairs, sorted by name, with
# all exponents nonzero (possibly negative).  A polynomial is a dict from
# monomial keys to nonzero Fraction coefficients.


def _key_mul(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    merged = dict(k1)
    for name, e in k2:
        e2 = merged.get(name, 0) + e
        if e2:
            merged[name] = e2
        else:
            del merged[name]
    return tuple(sorted(merged.items()))


def _key_str(key):
    if not key:
        return "1"
    return "*".join(name if e == 1 else "%s^%d" % (name, e) for name, e in key)


def _merge(terms, other, negate):
    """terms + other, or terms - other if negate, as a new term dict; every
    key comes from an operand, so it is already canonical, and each zero
    coefficient is pruned as it appears."""
    out = dict(terms)
    for k, c in other.items():
        if negate:
            c = -c
        c2 = out.get(k)
        if c2 is None:
            out[k] = c
        else:
            c2 = c2 + c
            if c2:
                out[k] = c2
            else:
                del out[k]
    return out


def _normalize(num, den):
    """num / den in the Laurent-polynomial ring: the ring's one division.

    Only a monomial c * key, a unit of the ring, divides; distinct keys
    stay distinct, so the quotient is canonical.  Any other nonzero divisor
    is a ScalarError.
    """
    if len(den.terms) != 1:
        if not den:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        raise ScalarError("cannot divide by %s: only a monomial is a unit of "
                          "the Laurent-polynomial ring" % _poly_str(den))
    (key, c), = den.terms.items()
    inv = tuple((name, -e) for name, e in key)
    if c == 1:
        # a unit coefficient only shifts the keys
        return LaurentFrac._raw({_key_mul(k, inv): v
                                 for k, v in num.terms.items()})
    return LaurentFrac._raw({_key_mul(k, inv): v / c
                             for k, v in num.terms.items()})


class LaurentFrac:
    """Element of the Laurent-polynomial ring over Q in named symbols.

    ``terms`` is the canonical term dict.  ``+``, ``-``, ``*``, ``==`` and
    ``hash`` work on the term dicts alone; ``/`` takes only a monomial
    divisor (see ``_normalize``).  A unit costs no arithmetic: times or over
    a rational 1 is the operand itself, and a coefficient 1 in a product or
    a divisor multiplies or divides nothing.
    """

    __slots__ = ("terms",)

    def __init__(self, value):
        # public constructor: a constant, or a dict from monomial keys to
        # coefficients, canonicalized (sorted names, nonzero exponents,
        # duplicates merged, zero coefficients dropped)
        if isinstance(value, (int, Fraction)):
            c = Fraction(value)
            object.__setattr__(self, "terms", {(): c} if c else {})
            return
        clean = {}
        for key, c in dict(value).items():
            key = tuple(sorted((n, int(e)) for n, e in key if e))
            clean[key] = clean.get(key, 0) + Fraction(c)
        object.__setattr__(self, "terms",
                           {k: c for k, c in clean.items() if c})

    @classmethod
    def _raw(cls, terms):
        # internal fast path: keys already canonical, zeros already pruned
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("LaurentFrac is immutable")

    @staticmethod
    def symbol(name):
        return LaurentFrac._raw({((name, 1),): Fraction(1)})

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentFrac):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentFrac(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFrac._raw(_merge(self.terms, o.terms, False))

    __radd__ = __add__

    def __neg__(self):
        return LaurentFrac._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFrac._raw(_merge(self.terms, o.terms, True))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFrac._raw(_merge(o.terms, self.terms, True))

    def __mul__(self, other):
        if not isinstance(other, LaurentFrac):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 1:
                return self
            if not other:
                return LaurentFrac._raw({})
            return LaurentFrac._raw({k: c * other
                                     for k, c in self.terms.items()})
        out = {}
        for k1, c1 in self.terms.items():
            unit = c1 == 1
            for k2, c2 in other.terms.items():
                k = _key_mul(k1, k2)
                prod = c2 if unit else c1 if c2 == 1 else c1 * c2
                c = out.get(k)
                if c is None:
                    out[k] = prod
                else:
                    c = c + prod
                    if c:
                        out[k] = c
                    else:
                        del out[k]
        return LaurentFrac._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other == 1:
            return self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalize(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _normalize(o, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, LaurentFrac(1))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(_ZERO)
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    def evaluate(self, point):
        """Evaluate at Fraction/GaussianRational values; exact."""
        total = None
        for k, c in self.terms.items():
            term = c
            for name, e in k:
                if name not in point:
                    raise ScalarError("no value supplied for symbol %r" % name)
                v = point[name]
                if e < 0 and not v:
                    raise ZeroDivisionError("evaluation at zero of %s^%d" % (name, e))
                term = term * v if e == 1 else term * (v ** e)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def is_canonical(self):
        """The public constructor keeps the terms (used by the exactness
        suite): sorted keys, nonzero exponents and Fraction coefficients."""
        terms = self.terms
        return LaurentFrac(terms).terms == terms and \
            all(type(c) is Fraction for c in terms.values())

    def __repr__(self):
        return "LaurentFrac(%s)" % _poly_str(self)

    def __str__(self):
        return format_scalar(self)


# ---------------------------------------------------------------------------
# Mode helpers, parsing, formatting
# ---------------------------------------------------------------------------

def mode_of(x):
    if isinstance(x, (int, Fraction)):
        return RATIONAL
    if isinstance(x, GaussianRational):
        return GAUSSIAN
    if isinstance(x, LaurentFrac):
        return LAURENT
    raise ScalarError("not an exact scalar: %r" % (x,))


def coerce(x, mode):
    """Embed x into the given mode; only widening embeddings are allowed."""
    m = mode_of(x)
    if m == mode:
        return Fraction(x) if isinstance(x, int) else x
    if m == RATIONAL:
        if mode == GAUSSIAN:
            return GaussianRational(x)
        if mode == LAURENT:
            return LaurentFrac(x)
    raise ScalarError("cannot embed %s scalar into %s mode" % (m, mode))


def join_mode(modes):
    """Widest mode among the arguments; gaussian+laurent is unsupported."""
    ms = set(modes)
    ms.discard(RATIONAL)
    if not ms:
        return RATIONAL
    if ms == {GAUSSIAN}:
        return GAUSSIAN
    if ms == {LAURENT}:
        return LAURENT
    raise ScalarError("gaussian and laurent scalars cannot be mixed")


# The text grammar of every reader in the package, over ASCII digits D:
#   integer   [+-]?D
#   rational  [+-]?D(/D)?
#   gaussian  [rational] ± [unsigned rational] i, where spaces may stand
#             only around the imaginary part's sign and before "i"
#   symbol    [A-Za-z_][A-Za-z0-9_]*
# so decimals, exponents, "_" separators and non-ASCII digits are errors.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_GAUSSIAN = re.compile(r"(?:([+-]?[0-9]+(?:/[0-9]+)?)\s*(?=[+-]))?"
                       r"\s*([+-]?)\s*([0-9]+(?:/[0-9]+)?)?\s*i")
_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def read_list(text, sep, item=None):
    """The items of text separated by sep, each read by item (or kept as
    text).  Whitespace may stand around a separator; no item is empty."""
    parts = [p.strip() for p in text.split(sep)]
    if not all(parts):
        raise ScalarError("empty item in %r" % text)
    return parts if item is None else [item(p) for p in parts]


def read_lines(text):
    """(1-based line number, stripped line) for each line of text that is
    neither blank nor a "#" comment."""
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    return [(n, line) for n, line in lines if line and line[0] != "#"]


def read_integer(text):
    """An integer token, as an int."""
    if _INTEGER.fullmatch(text) is None:
        raise ScalarError("bad integer %r" % text)
    return int(text)


def read_rational(text):
    """A rational token, as a Fraction."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ScalarError("bad rational %r" % text)
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if not int(den):
        raise ScalarError("zero denominator in %r" % text)
    return Fraction(int(num), int(den))


def parse_scalar(text):
    """A rational, Gaussian or symbol token, outer spaces dropped, in the
    token's mode: a Fraction, a GaussianRational or a LaurentFrac."""
    s = text.strip()
    if _RATIONAL.fullmatch(s):
        return read_rational(s)
    # "i" is the imaginary unit, never a symbol
    match = _GAUSSIAN.fullmatch(s)
    if match is not None:
        re_part, sign, im_part = match.groups()
        return GaussianRational(read_rational(re_part) if re_part else _ZERO,
                                read_rational(sign + (im_part or "1")))
    if _SYMBOL.fullmatch(s) is None:
        raise ScalarError("bad scalar %r" % text)
    return LaurentFrac.symbol(s)


def format_scalar(x):
    """Inverse of parse_scalar on rationals/gaussians; readable for laurent."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        sign = "+" if x.im >= 0 else "-"
        return "%s%s%s i" % (x.re, sign, abs(x.im))
    if isinstance(x, LaurentFrac):
        return _poly_str(x)
    raise ScalarError("not an exact scalar: %r" % (x,))


def _poly_str(p):
    if not p.terms:
        return "0"
    bits = []
    for k in sorted(p.terms, reverse=True):
        c = p.terms[k]
        if not k:
            bits.append(str(c))
        elif c == 1:
            bits.append(_key_str(k))
        elif c == -1:
            bits.append("-" + _key_str(k))
        else:
            bits.append("%s*%s" % (c, _key_str(k)))
    out = bits[0]
    for b in bits[1:]:
        out += ("-" + b[1:]) if b.startswith("-") else ("+" + b)
    return out
