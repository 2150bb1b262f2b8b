"""Formal Steinberg-symbol engine over a finite multiplicative universe.

A symbol expression is a formal product prod {s_k, t_k}^{e_k} with the pair
arguments drawn from a finite universe U of nonzero rationals (or Gaussian
rationals).  The axiom families are

* bilinearity in either slot:  {t1*t2, t3} = {t1,t3}{t2,t3} (and mirrored),
  instantiated whenever all three arguments and the product lie in U;
* antisymmetry:                {t1,t2} = {t2,t1}^{-1};
* one-minus:                   {t, 1-t} = 1  (t != 1, 1-t in U);
* minus-self:                  {t, -t} = 1.

Written additively in the exponent lattice Z^(U x U), an expression is a
consequence of the axioms iff its exponent vector lies in the integer row
span of the axiom instance vectors.  Membership is decided by Hermite-style
integer elimination; every reduced row carries its provenance combination,
so a positive answer returns an exact integer certificate that replays to
the empty expression.  The elimination runs on integer column ranks (the
lattice's pairs numbered in ``_pair_key`` order) and is built once per
``AxiomLattice``, on its first query; every later query only reduces.
``replay_certificate`` is the check that tests a certificate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .scalars import GaussianRational, format_scalar

AXIOM_BILINEAR_LEFT = "bilinear-left"
AXIOM_BILINEAR_RIGHT = "bilinear-right"
AXIOM_ANTISYMMETRY = "antisymmetry"
AXIOM_ONE_MINUS = "one-minus"
AXIOM_MINUS_SELF = "minus-self"
ALL_AXIOMS = (AXIOM_BILINEAR_LEFT, AXIOM_BILINEAR_RIGHT, AXIOM_ANTISYMMETRY,
              AXIOM_ONE_MINUS, AXIOM_MINUS_SELF)
BILINEAR_ONLY = (AXIOM_BILINEAR_LEFT, AXIOM_BILINEAR_RIGHT)


class SymbolError(ValueError):
    pass


def _canon(value):
    """One key per value: a real Gaussian rational becomes its Fraction."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, GaussianRational):
        return value if value.im else value.re
    if isinstance(value, Fraction):
        return value
    raise SymbolError("universe elements must be exact scalars: %r" % (value,))


@dataclass(frozen=True)
class SymbolExpr:
    """Formal product of symbol pairs with integer exponents.

    Canonical: pairs deduplicated and sorted, zero exponents dropped.
    """

    pairs: tuple  # tuple of ((s, t), exponent)

    @staticmethod
    def from_pairs(items):
        acc = {}
        for (s, t), e in items:
            key = (_canon(s), _canon(t))
            if not key[0] or not key[1]:
                raise SymbolError("symbol arguments must be nonzero")
            if type(e) is not int:
                raise SymbolError("exponents must be integers, got %r" % (e,))
            acc[key] = acc.get(key, 0) + e
        cleaned = tuple(sorted(((k, e) for k, e in acc.items() if e),
                               key=lambda item: _pair_key(item[0])))
        return SymbolExpr(cleaned)

    @staticmethod
    def single(s, t, e=1):
        return SymbolExpr.from_pairs([((s, t), e)])

    def vector(self):
        return {k: e for k, e in self.pairs}

    def __mul__(self, other):
        return SymbolExpr.from_pairs(list(self.pairs) + list(other.pairs))

    def inverse(self):
        return SymbolExpr(tuple((k, -e) for k, e in self.pairs))

    def describe(self):
        return [[format_scalar(s), format_scalar(t), e]
                for (s, t), e in self.pairs]

    def __str__(self):
        if not self.pairs:
            return "1"
        bits = []
        for (s, t), e in self.pairs:
            head = "{%s,%s}" % (format_scalar(s), format_scalar(t))
            bits.append(head if e == 1 else "%s^%d" % (head, e))
        return "*".join(bits)


def _pair_key(pair):
    return tuple(_scalar_key(x) for x in pair)


def _scalar_key(x):
    if isinstance(x, Fraction):
        return (0, x.numerator, x.denominator)
    return (1, x.re.numerator, x.re.denominator, x.im.numerator,
            x.im.denominator)


@dataclass(frozen=True)
class AxiomInstance:
    kind: str
    args: tuple
    vector: tuple  # frozen dict items: ((s,t), coefficient)

    def describe(self):
        return {"kind": self.kind,
                "args": [format_scalar(a) for a in self.args],
                "pairs": [[format_scalar(s), format_scalar(t), c]
                          for (s, t), c in self.vector]}


@dataclass(frozen=True)
class AxiomLattice:
    universe: tuple
    kinds: tuple
    instances: tuple

    def describe(self):
        return {"universe": [format_scalar(u) for u in self.universe],
                "kinds": list(self.kinds),
                "instances": len(self.instances)}

    @cached_property
    def _echelon(self):
        """(pair columns in ``_pair_key`` order, their ranks, the echelon of
        every instance).  Built on the first query and kept on the object;
        it is no field, so equality and hashing never see it."""
        columns = sorted({k for inst in self.instances for k, _c in inst.vector},
                         key=_pair_key)
        rank = {c: k for k, c in enumerate(columns)}
        ech = _Echelon()
        for idx, inst in enumerate(self.instances):
            ech.insert({rank[k]: c for k, c in inst.vector}, {idx: 1})
        return columns, rank, ech


MAX_UNIVERSE = 32


def build_axiom_lattice(universe, kinds=ALL_AXIOMS):
    """Enumerate every axiom instance whose arguments stay inside U."""
    u_set = []
    for v in universe:
        c = _canon(v)
        if not c:
            raise SymbolError("0 is not a unit; universe must avoid it")
        if c not in u_set:
            u_set.append(c)
    if len(u_set) > MAX_UNIVERSE:
        raise SymbolError("universe capped at %d elements" % MAX_UNIVERSE)
    u_sorted = tuple(sorted(u_set, key=_scalar_key))
    members = set(u_sorted)
    for kind in kinds:
        if kind not in ALL_AXIOMS:
            raise SymbolError("unknown axiom kind %r" % kind)
    instances = []
    seen = set()

    def emit(kind, args, items):
        acc = {}
        for key, c in items:
            acc[key] = acc.get(key, 0) + c
        vec = tuple(sorted(((k, c) for k, c in acc.items() if c),
                           key=lambda item: _pair_key(item[0])))
        if not vec:
            return
        if vec in seen:
            return
        seen.add(vec)
        instances.append(AxiomInstance(kind, args, vec))

    if AXIOM_BILINEAR_LEFT in kinds:
        for t1 in u_sorted:
            for t2 in u_sorted:
                prod = _canon(t1 * t2)
                if prod not in members:
                    continue
                for t3 in u_sorted:
                    emit(AXIOM_BILINEAR_LEFT, (t1, t2, t3),
                         [((prod, t3), 1), ((t1, t3), -1), ((t2, t3), -1)])
    if AXIOM_BILINEAR_RIGHT in kinds:
        for t2 in u_sorted:
            for t3 in u_sorted:
                prod = _canon(t2 * t3)
                if prod not in members:
                    continue
                for t1 in u_sorted:
                    emit(AXIOM_BILINEAR_RIGHT, (t1, t2, t3),
                         [((t1, prod), 1), ((t1, t2), -1), ((t1, t3), -1)])
    if AXIOM_ANTISYMMETRY in kinds:
        for t1 in u_sorted:
            for t2 in u_sorted:
                emit(AXIOM_ANTISYMMETRY, (t1, t2),
                     [((t1, t2), 1), ((t2, t1), 1)])
    if AXIOM_ONE_MINUS in kinds:
        one = Fraction(1)
        for t in u_sorted:
            if t == one:
                continue
            om = one - t
            if om in members:
                emit(AXIOM_ONE_MINUS, (t,), [((t, om), 1)])
    if AXIOM_MINUS_SELF in kinds:
        for t in u_sorted:
            if -t in members:
                emit(AXIOM_MINUS_SELF, (t,), [((t, -t), 1)])
    return AxiomLattice(u_sorted, tuple(kinds), tuple(instances))


# ---------------------------------------------------------------------------
# Integer lattice membership with certificates
# ---------------------------------------------------------------------------

class _Echelon:
    """Hermite-style row echelon over Z with provenance tracking.

    Rows are sparse dicts over integer column ranks, numbered in the
    ``_pair_key`` order of the lattice's pairs, so a row's lead column is its
    least rank.  Each row remembers the integer combination of original
    instances that produced it.  An ``AxiomLattice`` builds one on its first
    query and reuses it for every later one.
    """

    def __init__(self):
        self.pivots = {}  # rank -> (row dict, combo dict)

    def insert(self, row, combo):
        """Eliminate ``row`` into the pivots.  Its provenance stays a list of
        (multiplier, combo) terms, expanded only when the row becomes or
        changes a pivot: most instance rows reduce to zero and never need
        it.  Stored combos are never mutated, so the terms can share them."""
        row = dict(row)
        terms = [(1, combo)]
        while row:
            lead = min(row)
            if lead not in self.pivots:
                combo = _expand(terms)
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                    combo = {i: -v for i, v in combo.items()}
                self.pivots[lead] = (row, combo)
                return
            prow, pcombo = self.pivots[lead]
            a, b = prow[lead], row[lead]
            if b % a == 0:
                q = b // a
                _add_multiple(row, -q, prow.items())
                terms.append((-q, pcombo))
                continue
            # replace pivot by gcd combination (extended Euclid step)
            combo = _expand(terms)
            g, x, y = _xgcd(a, b)
            self.pivots[lead] = (_row_comb(prow, x, row, y),
                                 _row_comb(pcombo, x, combo, y))
            row = _row_comb(prow, b // g, row, -(a // g))
            terms = [(b // g, pcombo), (-(a // g), combo)]

    def reduce(self, vector, stop):
        """Reduce a target vector while its lead rank is below ``stop``;
        returns (residue, combo) with the combo expressing the removed part
        as an instance combination."""
        res = dict(vector)
        combo = {}
        while res:
            lead = min(res)
            if lead >= stop or lead not in self.pivots:
                break
            prow, pcombo = self.pivots[lead]
            a, b = prow[lead], res[lead]
            if b % a != 0:
                break
            q = b // a
            _add_multiple(res, -q, prow.items())
            _add_multiple(combo, q, pcombo.items())
        return res, combo


def _add_multiple(row, q, items):
    """row += q * items in place, for a sparse integer row given as a dict
    and (column, value) items; zero entries are dropped.  The one row update
    of the echelon, its reductions and certificate replay."""
    for c, v in items:
        w = row.get(c, 0) + q * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)
    return row


def _row_comb(r1, c1, r2, c2):
    """The new row c1*r1 + c2*r2."""
    return _expand(((c1, r1), (c2, r2)))


def _expand(terms):
    """The new row sum q*r over the (q, r) terms."""
    out = {}
    for q, r in terms:
        _add_multiple(out, q, r.items())
    return out


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class ConsequenceResult:
    is_consequence: bool
    certificate: tuple | None   # ((instance_index, coefficient), ...)
    residue: tuple              # leftover vector if not a consequence

    def describe(self, lattice):
        out = {"consequence": self.is_consequence}
        if self.certificate is not None:
            out["certificate"] = [
                {"coefficient": c, **lattice.instances[i].describe()}
                for i, c in self.certificate]
        if self.residue:
            out["residue"] = [[format_scalar(s), format_scalar(t), e]
                              for (s, t), e in self.residue]
        return out


def is_consequence(expr, lattice):
    """Decide lattice membership of the expression's exponent vector.

    Returns a ConsequenceResult whose certificate satisfies
    sum_i c_i * instance_i = expr (as exponent vectors).
    """
    columns, rank, ech = lattice._echelon
    vector, foreign = {}, []
    for pair, e in expr.pairs:
        k = rank.get(pair)
        if k is None:
            foreign.append((pair, e))
        else:
            vector[k] = e
    # No pivot row touches a pair that no instance uses, so such a pair only
    # ends the reduction once it is the lead: at the first lattice column
    # that sorts after it.
    stop = min((bisect_left(columns, _pair_key(pair), key=_pair_key)
                for pair, _e in foreign), default=len(columns))
    residue, combo = ech.reduce(vector, stop)
    if residue or foreign:
        leftover = [(columns[k], e) for k, e in residue.items()] + foreign
        return ConsequenceResult(False, None,
                                 tuple(sorted(leftover,
                                              key=lambda kv: _pair_key(kv[0]))))
    cert = tuple(sorted(combo.items()))
    return ConsequenceResult(True, cert, ())


def replay_certificate(result, lattice):
    """Re-apply the certificate; returns the combined exponent vector."""
    if not result.is_consequence:
        raise SymbolError("no certificate to replay")
    acc = {}
    for idx, coeff in result.certificate:
        _add_multiple(acc, coeff, lattice.instances[idx].vector)
    return acc
