"""Exact scalar arithmetic: rationals, Gaussian rationals, Laurent fractions.

Three scalar modes, never any floating point:

* ``rational``  -- :class:`fractions.Fraction` (always in lowest terms,
  positive denominator; the stdlib guarantees this).
* ``gaussian``  -- :class:`GaussianRational`, a pair of canonical Fractions
  modelling Q(i).  Every identity in scope has integer structure constants,
  so validity on a Q(i) grid certifies it over C.
* ``laurent``   -- :class:`LaurentFrac`, a ratio of sparse multivariate
  Laurent polynomials over Q in named parameter symbols.  Used by the
  symbolic verification regime: an identity that holds as a canonical
  Laurent-fraction equality holds for every parameter value with nonzero
  denominators.

Laurent canonical form: numerator and denominator share no monomial factor,
their integer contents are coprime, and the denominator's lex-leading
coefficient is positive.  A denominator that is a monomial (the only kind any
operation path in this package produces) is folded into the numerator, and an
exact polynomial division is attempted otherwise.  Equality is decided by
cross-multiplication, which is sound independently of gcd reduction.

One hash rule: equal values hash alike.  A real ``GaussianRational`` and a
constant ``LaurentPoly`` or ``LaurentFrac`` hash like their ``Fraction``, and a
``LaurentFrac`` over 1 like its numerator; a cache keys on the mode as well.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


I_UNIT = GaussianRational(0, 1)


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


class LaurentPoly:
    """Sparse Laurent polynomial over Q in named symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # public constructor: canonicalize keys (sorted names, nonzero
        # exponents), merge duplicates, drop zero coefficients
        clean = {}
        if terms:
            for key, c in dict(terms).items():
                c = Fraction(c)
                if not c:
                    continue
                key = tuple(sorted((n, int(e)) for n, e in key if e))
                cur = clean.get(key)
                if cur is None:
                    clean[key] = c
                else:
                    cur = cur + c
                    if cur:
                        clean[key] = cur
                    else:
                        del clean[key]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, terms):
        # internal fast path: keys already canonical, zeros already pruned
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c):
        c = Fraction(c)
        return LaurentPoly._raw({(): c} if c else {})

    @staticmethod
    def symbol(name, exponent=1):
        if not exponent:
            return LaurentPoly.const(1)
        return LaurentPoly._raw({((name, int(exponent)),): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(_ZERO)
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    # Arithmetic results skip the public constructor: every key comes from
    # _key_mul or an operand, so it is already canonical, and each zero
    # coefficient is pruned as it appears.

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            c2 = out.get(k)
            if c2 is None:
                out[k] = c
            else:
                c2 = c2 + c
                if c2:
                    out[k] = c2
                else:
                    del out[k]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return LaurentPoly()
            return LaurentPoly._raw({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _key_mul(k1, k2)
                c = out.get(k)
                if c is None:
                    out[k] = c1 * c2
                else:
                    c = c + c1 * c2
                    if c:
                        out[k] = c
                    else:
                        del out[k]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def shift(self, key):
        """Multiply by the monomial with the given key."""
        if not key:
            return self
        return LaurentPoly({_key_mul(k, key): c for k, c in self.terms.items()})

    def min_exponents(self):
        """Per-variable minimum exponent over all terms (0 for absent vars)."""
        mins = {}
        first = True
        for k in self.terms:
            seen = dict(k)
            if first:
                mins = dict(seen)
                first = False
            else:
                for v in set(mins) | set(seen):
                    mins[v] = min(mins.get(v, 0), seen.get(v, 0))
        return {v: e for v, e in mins.items() if e}

    def variables(self):
        out = set()
        for k in self.terms:
            for name, _e in k:
                out.add(name)
        return out

    def content(self):
        """Positive rational c with self/c integer-primitive; 0-poly gives 1."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def lead_key(self):
        """Lexicographically largest monomial key (by sorted var/exp tuple)."""
        return max(self.terms)

    def lead_coeff(self):
        return self.terms[self.lead_key()]

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

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            bits.append("%s*%s" % (c, _key_str(k)) if k else str(c))
        return "LaurentPoly(%s)" % " + ".join(bits)


# the denominator of every Laurent polynomial, shared: see LaurentFrac
_ONE = LaurentPoly.const(1)


def _div_monomial(p, key, c):
    """p divided by the monomial c * key; distinct keys stay distinct."""
    inv = tuple((name, -e) for name, e in key)
    return LaurentPoly._raw({_key_mul(k, inv): v / c for k, v in p.terms.items()})


def _poly_divmod_exact(num, den):
    """Exact multivariate division num/den; returns quotient or None.

    Both arguments must be ordinary polynomials (no negative exponents).
    Lead-term reduction in graded-lex order over the joint variable list;
    any nonzero remainder step aborts with None.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    varlist = sorted(num.variables() | den.variables())

    def rank(key):
        exps = dict(key)
        vec = tuple(exps.get(v, 0) for v in varlist)
        return (sum(vec), vec)

    q = {}
    rem = dict(num.terms)
    dlk = max(den.terms, key=rank)
    dlc = den.terms[dlk]
    dneg = dict(dlk)
    while rem:
        rlk = max(rem, key=rank)
        # candidate quotient monomial = rlk / dlk
        qk = dict(rlk)
        for name, e in dneg.items():
            e2 = qk.get(name, 0) - e
            if e2:
                qk[name] = e2
            else:
                qk.pop(name, None)
        if any(e < 0 for e in qk.values()):
            return None
        qk = tuple(sorted(qk.items()))
        qc = rem[rlk] / dlc
        q[qk] = qc
        for k, c in den.terms.items():
            k2 = _key_mul(k, qk)
            c2 = rem.get(k2, Fraction(0)) - qc * c
            if c2:
                rem[k2] = c2
            else:
                rem.pop(k2, None)
    return LaurentPoly(q)


class LaurentFrac:
    """Ratio of Laurent polynomials, canonicalized on construction.

    A denominator of 1 is always the shared ``_ONE``, so ``den is _ONE``
    tells a Laurent polynomial.  When every operand is one, ``+``, ``-``,
    ``*``, ``==`` and ``/`` by a monomial work on the numerators alone:
    ``_normalize`` would hand such a numerator back unchanged.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if den is None:
            den = _ONE
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Laurent fraction")
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _poly(cls, num):
        # internal fast path: num is the canonical numerator over _ONE
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", _ONE)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("LaurentFrac is immutable")

    @staticmethod
    def symbol(name):
        return LaurentFrac._poly(LaurentPoly.symbol(name))

    def _coerce(self, other):
        if isinstance(other, LaurentFrac):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentFrac._poly(LaurentPoly.const(other))
        if isinstance(other, LaurentPoly):
            return LaurentFrac(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return LaurentFrac._poly(self.num + o.num)
        if self.den == o.den:
            return LaurentFrac(self.num + o.num, self.den)
        return LaurentFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        f = LaurentFrac.__new__(LaurentFrac)
        object.__setattr__(f, "num", -self.num)
        object.__setattr__(f, "den", self.den)
        return f

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return LaurentFrac._poly(self.num * o.num)
        return LaurentFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero Laurent fraction")
        if self.den is _ONE and o.den is _ONE and len(o.num.terms) == 1:
            (dk, dc), = o.num.terms.items()
            return LaurentFrac._poly(_div_monomial(self.num, dk, dc))
        return LaurentFrac(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, LaurentFrac(1))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return self.num.terms == o.num.terms
        # cross-multiplication: exact regardless of gcd reduction
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        if self.den is _ONE:
            return hash(self.num)
        return hash((frozenset(self.num.terms.items()),
                     frozenset(self.den.terms.items())))

    def evaluate(self, point):
        den = self.den.evaluate(point)
        if not den:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / den

    def variables(self):
        return self.num.variables() | self.den.variables()

    def is_canonical(self):
        """Re-normalization is the identity (used by the exactness suite)."""
        n2, d2 = _normalize(self.num, self.den)
        return n2.terms == self.num.terms and d2.terms == self.den.terms

    def __repr__(self):
        if self.den is _ONE:
            return "LaurentFrac(%r)" % (self.num,)
        return "LaurentFrac(%r / %r)" % (self.num, self.den)

    def __str__(self):
        return format_scalar(self)


def _normalize(num, den):
    if not num:
        return LaurentPoly(), _ONE
    # strip any common monomial factor so both sides are honest polynomials
    mn = num.min_exponents()
    md = den.min_exponents()
    joint = {}
    for v in set(mn) | set(md):
        m = min(mn.get(v, 0), md.get(v, 0))
        if m:
            joint[v] = -m
    if joint:
        key = tuple(sorted(joint.items()))
        num = num.shift(key)
        den = den.shift(key)
    if len(den.terms) == 1:
        # monomial denominator folds into the numerator
        (dk, dc), = den.terms.items()
        return _div_monomial(num, dk, dc), _ONE
    q = _poly_divmod_exact(num, den)
    if q is not None:
        return q, _ONE
    # scale so the denominator is integer-primitive with positive lex-leading
    # coefficient; the numerator carries the remaining rational factor
    scale = den.content()
    if den.lead_coeff() < 0:
        scale = -scale
    if scale != 1:
        num = num * (1 / scale)
        den = den * (1 / scale)
    return num, den


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


_SYMBOL_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789"


def parse_scalar(text, mode=None):
    """Parse "p/q", "p/q+r/s i", or a symbol name (laurent mode).

    With mode=None the mode is inferred: presence of "i" as the imaginary
    tail gives gaussian, a leading letter gives laurent, else rational.
    """
    s = text.strip()
    if not s:
        raise ScalarError("empty scalar")
    if s in ("i", "-i", "+i"):
        if mode not in (None, GAUSSIAN):
            raise ScalarError("imaginary unit not allowed in %s mode" % mode)
        return GaussianRational(0, -1 if s[0] == "-" else 1)
    if (s[0].isalpha() or s[0] == "_") and s != "i":
        if mode not in (None, LAURENT):
            raise ScalarError("symbol %r not allowed in %s mode" % (s, mode))
        if any(ch not in _SYMBOL_OK for ch in s):
            raise ScalarError("bad symbol name %r" % s)
        return LaurentFrac.symbol(s)
    compact = s.replace(" ", "")
    if compact.endswith("i"):
        body = compact[:-1]
        # split into real and imaginary at the last +/- not at position 0
        # and not part of an exponent (exponents never occur in this format)
        split = None
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "+-/":
                split = idx
                break
        if split is None:
            re_part, im_part = "0", body or "1"
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        try:
            g = GaussianRational(Fraction(re_part), Fraction(im_part))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError("bad gaussian scalar %r" % text) from exc
        if mode in (None, GAUSSIAN):
            return g
        raise ScalarError("gaussian value %r not allowed in %s mode" % (text, mode))
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError("bad rational %r" % text) from exc
    if mode == GAUSSIAN:
        return GaussianRational(q)
    if mode == LAURENT:
        return LaurentFrac(q)
    return q


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
        num = _poly_str(x.num)
        if x.den is _ONE:
            return num
        return "(%s)/(%s)" % (num, _poly_str(x.den))
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
