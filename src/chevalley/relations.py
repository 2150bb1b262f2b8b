"""Exact verification of the generating relations and conjugation identities.

Families (reports carry these ids):

* ``additivity``            x_r(a) x_r(b) = x_r(a+b)
* ``commutator``            [x_r(a), x_p(b)] = prod_{ir+jp in Phi} x_{ir+jp}(g_ij(a,b))
* ``trivial-commutator``    [x_r(a), x_p(b)] = id when r+p is outside the system
* ``h-multiplicativity``    h_{L1-L2}(a) h_{L1-L2}(b) = h_{L1-L2}(ab)
* ``h-involution``          h_{2Ln}(-1)^2 = id, with the explicit diagonal form
* ``h-diagonal-form``       h_{L1-L2} diagonal displays
* ``h-literal-form``        the literal h(t) = w(t) w(-ref) is the normalized
                            w(t) w(ref)^{-1}, checked as h(t) w(ref) = w(t)
* ``weyl-conj-1..6``        conjugation of w/h letters by w elements (sp)
* ``weyl-w-conj-1..3``      w-by-w conjugation displays (sl)
* ``w-inversion``           w_g(t1,t2) = w_{-g}(-1/t1, -1/t2) and variants
* ``weyl-component-conj``   w x^delta_beta(v) w^{-1} through w's monomial
                            form: per w-form, that form is the one the SL2
                            blocks of w predict, every target lies in the
                            component table and w(-t) = w(t)^{-1} (sl;
                            Carter's signs eta are not yet the oracle)
* ``h-decomposition-*``     long-root h decomposition through the short torus (sp)
* ``monomial-form-1..7``    w's word at each display's root and slot pattern
                            is its SL2-block form (tests pin the displays)

Two regimes, and Designs builds every parameter tuple of both: ``grid``
evaluates over a deterministic grid in Q, or Q(i) for sl-c (the default has
11 values; relations in scope are Laurent-polynomial of total degree <= 8
per parameter, and the README lists which designs sweep every grid value per
slot and which only sample); ``symbolic`` gives each slot its own Laurent
symbol and decides by canonical equality, which certifies the identity for
all parameter values at once.

Both commutator families check [X, Y] = F, for X = x_r(a), Y = x_p(b) and F
the product of the structure factors (id for a trivial pair), as
X Y = F Y X.  In any group the two statements are equivalent, and the second
multiplies the letters as they are, with no inverse letter.

Every suite builds one Relation record per report, and _sweep, the only place
a report is built, sweeps each record's tuples, passes a ``proven`` record
unevaluated, or fails one whose ``error`` says why it could not be built.

Every relation works on sparse "identity plus delta" dictionaries
{(row, col): scalar}; every generator's nilpotent part squares to zero, so
x-letters are exactly I + f and products stay tiny.  No dense matrix is
built here: the ExactMatrix route is the tests' independent oracle.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .generators import (GeneratorError, GroupModel, MonomialForm,
                         h_reference, letter_positions,
                         position_component_table, root_entry_positions,
                         w_factors, with_mode)
from .roots import (Root, RootError, build_root_system, positive_combinations,
                    root_at)
from .scalars import LaurentFrac, format_scalar, join_mode, mode_of

GRID = "grid"
SYMBOLIC = "symbolic"
REGIMES = (GRID, SYMBOLIC)

DEFAULT_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
                Fraction(2, 3), Fraction(-2, 3), Fraction(5, 7))


# an empty scalar slot in every mode: equal values compare and hash alike
_ZERO = Fraction(0)
# an absent entry of a symbolic delta; LaurentFrac is immutable, so one serves
_LAURENT_ZERO = LaurentFrac(0)


class RelationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sparse identity+delta arithmetic
# ---------------------------------------------------------------------------

def delta_mul(a, b):
    """Delta of (I+a)(I+b): a + b + a*b, zero entries pruned.

    The product a*b scans the entries of b in b's order for each entry of
    a in a's order.  Every caller's right operand is a letter or a short
    product of letters (at most 8 entries on every command's workload), so
    the scan costs less than indexing b's rows first.
    """
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
        for (i, k), va in a.items():
            for (kb, j), vb in b.items():
                if kb != k:
                    continue
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


def delta_word(deltas):
    """Delta of the ordered product; a new dict, never one of the inputs."""
    deltas = iter(deltas)
    out = dict(next(deltas, {}))
    for d in deltas:
        out = delta_mul(out, d)
    return out


def x_delta(model, root, params):
    """Delta of the x-letter: the root-space element itself (f^2 = 0)."""
    positions = root_entry_positions(model, root.untagged())
    out = {}
    if root.restricted_tag is not None:
        r, c, _s = positions[root.restricted_tag - 1]
        if params[0]:
            out[(r, c)] = params[0]
        return out
    if len(params) == 1:
        t = params[0]
        if t:
            for (r, c, s) in positions:
                out[(r, c)] = t if s == 1 else -t
    else:
        for p, (r, c, _s) in zip(params, positions):
            if p:
                out[(r, c)] = p
    return out


@lru_cache(maxsize=65536)
def _w_delta_cached(model, root, params, mode):
    return _freeze(delta_word([x_delta(model, r, p)
                               for r, p in w_factors(root, params)]))


@lru_cache(maxsize=65536)
def _h_delta_cached(model, root, params, mode):
    w_t = w_delta(model, root, params)
    w_ref_inv = w_delta(model, root, tuple(-p for p in h_reference(params)))
    return _freeze(delta_mul(w_t, w_ref_inv))


def _freeze(d):
    return tuple(sorted(d.items()))


def w_delta(model, root, params):
    return dict(_w_delta_cached(model, root, *with_mode(params)))


def h_delta(model, root, params):
    return dict(_h_delta_cached(model, root, *with_mode(params)))


def commutator_delta(model, r, p, a, b):
    """Delta of [x_r(a), x_p(b)] = x_r(a) x_p(b) x_r(-a) x_p(-b)."""
    return delta_word([x_delta(model, r, a), x_delta(model, p, b),
                       x_delta(model, r, tuple(-t for t in a)),
                       x_delta(model, p, tuple(-t for t in b))])


def _letter_memo(model, root):
    """x_delta(model, root, .) memoized for the life of one memo scope.

    A sweep meets each slot tuple of a letter many times, so each letter's
    delta is built once and shared; delta_mul and delta_word never mutate
    their arguments, which makes the sharing safe.  The commutator records
    check x_r(a) x_p(b) = F x_p(b) x_r(a), which in any group is
    [x_r(a), x_p(b)] = F, so they need these letters and no inverse letter.
    The memo is keyed by the slot tuple's identity, so a lookup hashes no
    scalar: a commutator suite keeps one memo per root for all its pairs,
    and its letter designs hold one object per distinct slot tuple (the
    rule stated in Designs), so x_r(a) is built once per (root, slot
    tuple); an equal tuple held in another object only costs a rebuild.
    Each entry keeps its tuple alive, so no other object can take its id.

    Returns (letter, inside): letter(params) is the delta, and
    inside(params) says whether it lies on the root's _support; each entry
    decides that once, when its letter is built.
    """
    support = _support(model, root)
    memo = {}

    def letter(params):
        hit = memo.get(id(params))
        if hit is None:
            d = x_delta(model, root, params)
            hit = memo[id(params)] = (params, d, d.keys() <= support)
        return hit[1]

    def inside(params):
        letter(params)
        return memo[id(params)][2]
    return letter, inside


def _support(model, root):
    """The fixed support of x_root: the positions letter_positions gives."""
    return frozenset((i, j) for i, j, _s in letter_positions(model, root))


def _law_memo(law, values):
    """law.evaluate memoized in ``values`` for the life of one memo scope.

    ``values`` maps a compiled form to its values by (id(a), id(b)), so laws
    of one compiled form share them: evaluate is a pure function of the form
    and the point, and each grid point is evaluated once per form.  As in
    _letter_memo, a lookup hashes no scalar, which relies on the identity
    rule stated in Designs, and each entry keeps a and b alive, so no other
    object can take their ids.
    """
    memo = values.setdefault(law.compiled, {})

    def value(a, b):
        key = (id(a), id(b))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (a, b, law.evaluate(a, b))
        return hit[2]
    return value


# ---------------------------------------------------------------------------
# Reports and the sweep engine
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one relation family on one root datum."""

    relation_id: str
    model: GroupModel
    roots: tuple
    regime: str
    verdict: str                 # "pass" | "fail"
    instances: int
    params: str = ""             # description of the parameter sweep
    witness: dict | None = None  # failing params / entry / both sides
    note: str = ""

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json_dict(self):
        out = {
            "relation_id": self.relation_id,
            "model": self.model.family,
            "n": self.model.n,
            "roots": [str(r) for r in self.roots],
            "params": self.params,
            "regime": self.regime,
            "verdict": self.verdict,
            "instances": self.instances,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def _delta_witness(params, lhs, rhs):
    keys = sorted(set(lhs) | set(rhs))
    for k in keys:
        l = lhs.get(k)
        r = rhs.get(k)
        if (l is None) != (r is None) or (l is not None and l != r):
            zero = "0"
            return {
                "params": [format_scalar(p) for p in params],
                "entry": [k[0], k[1]],
                "lhs": format_scalar(l) if l is not None else zero,
                "rhs": format_scalar(r) if r is not None else zero,
            }
    return None


@dataclass(frozen=True)
class Relation:
    """One relation family on one root datum, as data.

    ``sides(*params)`` returns the (lhs, rhs) deltas of one instance; the
    instance holds when they are equal.  ``shown(*params)`` gives the
    parameters a failure witness prints (default: the instance's scalars,
    flattened), and ``params`` labels a passing report (default: the tuple
    count).  ``proven`` marks a record an argument covers at every tuple;
    ``error`` one that could not be built, and is its failing report's note.
    """

    relation_id: str
    roots: tuple
    tuples: list
    sides: object
    shown: object = None
    params: str = ""
    proven: bool = False
    error: str = ""


def _flat(params):
    return tuple(x for p in params for x in (p if isinstance(p, tuple) else (p,)))


def _sweep(model, regime, rel):
    """rel's one report: an error fails it with 0 instances, a proven record
    passes unevaluated, and any other stops at its first mismatching tuple."""
    if rel.error:
        return VerificationReport(rel.relation_id, model, rel.roots,
                                  regime, "fail", 0, note=rel.error)
    if not rel.proven:
        for count, tup in enumerate(rel.tuples, 1):
            lhs, rhs = rel.sides(*tup)
            if lhs != rhs:
                shown = rel.shown(*tup) if rel.shown else _flat(tup)
                return VerificationReport(
                    rel.relation_id, model, rel.roots, regime, "fail", count,
                    witness=_delta_witness(shown, lhs, rhs))
    return VerificationReport(
        rel.relation_id, model, rel.roots, regime, "pass", len(rel.tuples),
        params=rel.params or "%d parameter tuples" % len(rel.tuples))


def _sweep_all(model, regime, relations):
    return [_sweep(model, regime, rel) for rel in relations]


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

def grid_for_model(model, grid=None):
    """The grid-regime values (default DEFAULT_GRID), checked to lie in the
    model's field, so no symbol; a real value stays a Fraction on sl-c as
    well."""
    if grid is None:
        return DEFAULT_GRID
    grid = model.check_params(None, grid)
    if any(isinstance(g, LaurentFrac) for g in grid):
        raise GeneratorError("a grid holds no symbols")
    if len(set(grid)) < 9 or any(not g for g in grid):
        raise RelationError("grid must hold at least 9 distinct nonzero values")
    return grid


def pair_sweep(grid):
    """30+ two-slot values: joint diagonal plus both axis embeddings.

    Each scalar slot ranges over the full grid within the sweep.
    """
    return (list(zip(grid, grid[3:] + grid[:3])) + [(g, _ZERO) for g in grid]
            + [(_ZERO, g) for g in grid])


def unit_tuples(grid):
    """Two-slot parameter tuples for letters that need units: no zero slots."""
    return (list(zip(grid, grid[3:] + grid[:3]))
            + list(zip(grid, grid[7:] + grid[:7])))


def symbolic_params(arity, prefix):
    if arity == 1:
        return (LaurentFrac.symbol(prefix),)
    return tuple(LaurentFrac.symbol("%s%d" % (prefix, k)) for k in (1, 2))


@dataclass(frozen=True)
class Designs:
    """Every parameter design of one run_suite call.  Beside regime_for,
    which picks the regime, and run_suite's input checks, this is the one
    place in the module that reads the regime; the suites read ``regime``
    only to label their reports.  Each
    design is a list of parameter tuples:

    * ``letters[arity_a, arity_b]``: the (a, b) slot tuples for a pair of
      x-letters x_r(a), x_p(b) with those slot counts (additivity and both
      commutator families);
    * ``singles`` (t,), ``units`` (t1, t2) with no zero slot, and
      ``products`` (a, b) for relations in scalar slots;
    * ``minus_one`` (-1,) for the involution and the h decomposition;
    * ``split`` (s, z) with s = +-1 for h-decomposition-split;
    * ``w_by_w`` (a, t1, t2) for weyl-w-conj-1..3;
    * ``component``, the one (v, u, u2) of weyl-component-conj.

    The symbolic regime gives each slot its own symbol (a, b, a1, a2, b1,
    b2, c, u, v), so a pass holds for every value.  The grid regime gives
    every grid value per slot where a design certifies, and a sample
    elsewhere (the README lists which).  For x-letter pairs, up to two
    slots get the full Cartesian product, three slots cross the two-slot
    sweep (pair_sweep) with the full grid, and four slots use an anchored
    design: each letter sweeps against a pinned partner, plus a joint
    diagonal.

    Across the letter designs, each distinct slot tuple is one object:
    _letter_memo and _law_memo key on slot-tuple identity, so x_r(a) is
    built once per (root, slot tuple) and each law once per (a, b).
    """

    regime: str
    letters: dict
    singles: list
    units: list
    products: list
    minus_one: list
    split: list
    w_by_w: list
    component: list

    @classmethod
    def of(cls, regime, grid=None):
        """The designs of ``regime``; the grid regime samples ``grid``."""
        one = Fraction(1)
        if regime == SYMBOLIC:
            a1, a2, b1, b2 = (symbolic_params(k, side)
                              for side in "ab" for k in (1, 2))
            (a,), (b,) = a1, b1
            a_side, b_side = {1: [a1], 2: [a2]}, {1: [b1], 2: [b2]}
            anchored = [(a2, b2)]
            units = products = [(a, b)]
            zs = [b]
            w_by_w = [(a, *b2)]
            component = [tuple(LaurentFrac.symbol(x) for x in "cuv")]
        else:
            singles, ps = [(g,) for g in grid], pair_sweep(grid)
            a_side = b_side = {1: singles, 2: ps}
            pinned_a, pinned_b = (grid[2], grid[4]), (grid[4], grid[6])
            anchored = ([(pa, pinned_b) for pa in ps]
                        + [(pinned_a, pb) for pb in ps]
                        + list(zip(ps, ps[7:] + ps[:7])))
            units = unit_tuples(grid)
            products = [(x, y) for x in grid for y in grid]
            zs = grid
            w_by_w = [(a, t1, t2) for a in grid for t1, t2 in units[:11]]
            component = [(grid[6], grid[2], grid[4])]   # v = 1/2 by default
        letters = {(i, j): [(x, y) for x in a_side[i] for y in b_side[j]]
                   for i, j in ((1, 1), (2, 1), (1, 2))}
        letters[2, 2] = anchored
        return cls(regime, letters, a_side[1], units, products, [(-one,)],
                   [(s, z) for s in (one, -one) for z in zs], w_by_w,
                   component)


# ---------------------------------------------------------------------------
# Structure functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureFunction:
    """Exact parameter law of one commutator factor x_{i r + j p}.

    Each output slot is a homogeneous polynomial of bidegree exactly (i, j)
    in the slot variables of (a, b); for sp it is a single integer monomial.
    ``evaluate`` reads each law in a form compiled once: per term, the
    coefficient (the int 1 or -1 for a unit, applied with no multiplication)
    and its (slot index, exponent) factors over the slot values a + b.
    """

    i: int
    j: int
    target: Root
    slot_laws: tuple          # one LaurentFrac per output slot
    a_vars: tuple
    b_vars: tuple
    compiled: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        slot = {name: k for k, name in enumerate(self.a_vars + self.b_vars)}
        object.__setattr__(self, "compiled", tuple(
            tuple((int(c) if c in (1, -1) else c,
                   tuple((slot[name], e) for name, e in key))
                  for key, c in law.terms.items())
            for law in self.slot_laws))

    def retargeted(self, target):
        """This law with another target; the compiled form is shared."""
        out = copy(self)
        object.__setattr__(out, "target", target)
        return out

    def evaluate(self, a, b):
        point = (*a, *b)
        return tuple(_evaluate_compiled(form, point) for form in self.compiled)

    def bidegree_ok(self):
        for law in self.slot_laws:
            for key in law.terms:
                exps = dict(key)
                da = sum(exps.get(v, 0) for v in self.a_vars)
                db = sum(exps.get(v, 0) for v in self.b_vars)
                if law.terms[key] and (da, db) != (self.i, self.j):
                    return False
        return True

    def describe(self):
        return {
            "i": self.i,
            "j": self.j,
            "target": str(self.target),
            "laws": [format_scalar(law) for law in self.slot_laws],
        }


def _evaluate_compiled(form, point):
    """One compiled law at the slot values ``point``, summed in term order;
    the same value and class as LaurentFrac.evaluate."""
    total = None
    for c, factors in form:
        term = None
        for k, e in factors:
            v = point[k] if e == 1 else point[k] ** e
            term = v if term is None else term * v
        if term is None:
            term = Fraction(c)
        elif c == -1:
            if total is not None:
                total = total - term
                continue
            term = -term
        elif c != 1:
            term = c * term
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def _peel(model, combos, comm):
    """Read each factor's params off a commutator delta.

    Returns [(i, j, q, params)] in the order of ``combos``, or None unless
    the factor word x_q1(params1) x_q2(params2) ... equals ``comm`` exactly.
    """
    factors = []
    for i, j, q in combos:
        # one support position per parameter slot of x_q, with sp signs
        slots = root_entry_positions(model, q)[:model.param_arity(q)]
        vals = []
        for (row, col, s) in slots:
            v = comm.get((row, col), _LAURENT_ZERO)
            vals.append(v if s == 1 else -v)
        factors.append((i, j, q, tuple(vals)))
    rhs = delta_word([x_delta(model, q, vals) for _i, _j, q, vals in factors])
    return factors if rhs == comm else None


@lru_cache(maxsize=None)
def fit_structure_functions(model, r, p):
    """Symbolically extract the g-laws of [x_r(a), x_p(b)]; cached.

    The laws are fitted once per index shape.  Let idx be the sorted union
    of the supports of r and p, and k = max(2, len(idx)).  The pair is
    compressed onto idx at rank k, fitted there (_fit_shape), and each law's
    target is mapped back by i -> idx[i]; i, j, the slot laws and the slot
    variables are kept.  This is sound because the order-preserving index
    embedding iota, i -> idx[i] and i+k -> idx[i]+n on rows and columns, is
    multiplicative on identity-plus-delta matrices, and the letters are
    iota-equivariant: x_delta and w_delta at rank n are the iota-images of
    the rank-k ones.  So the rank-n commutator delta is the iota-image of
    the rank-k one, and every law reads the same entries.  When k = n, idx
    is the identity and the call is the same.

    Raises RelationError if the factors do not reassemble, if a law has a
    negative exponent (so evaluating a law never divides), violates its
    bidegree or (sp) is not a single integer monomial; the text names the
    caller's roots; RootError unless r and p have the model's rank.
    """
    if r.n != model.n or p.n != model.n:
        raise RootError("rank mismatch")
    idx = sorted(set(r.support) | set(p.support))
    k = max(2, len(idx))
    try:
        laws = _fit_shape(model.family, k, _onto(r, idx, k), _onto(p, idx, k))
    except _ShapeError as exc:
        raise RelationError(exc.template % tuple(
            _into(q, idx, model.n) for q in exc.roots)) from None
    return tuple(law.retargeted(_into(law.target, idx, model.n))
                 for law in laws)


class _ShapeError(RelationError):
    """A fit failure at a pair's shape; ``template % roots`` is its text."""

    def __init__(self, template, *roots):
        super().__init__(template % roots)
        self.template, self.roots = template, roots


def _onto(root, idx, k):
    """root read on the indices idx, as a root of rank k."""
    c = root.coeffs
    return _root(tuple(c[i - 1] for i in idx) + (0,) * (k - len(idx)),
                 root.restricted_tag)


def _into(root, idx, n):
    """The rank-n image of a root on the first len(idx) indices: i -> idx[i]."""
    c = [0] * n
    for i, x in zip(idx, root.coeffs):
        c[i - 1] = x
    return _root(tuple(c), root.restricted_tag)


def _root(coeffs, tag):
    """The root with these coefficients and tag: the root system's own
    object when untagged, so that no root is validated again."""
    root = root_at(coeffs)
    return root if tag is None else Root(coeffs, tag)


@lru_cache(maxsize=None)
def _fit_shape(family, n, r, p):
    """The laws of [x_r(a), x_p(b)] fitted on GroupModel(family, n)."""
    model = GroupModel(family, n)
    a_vars = ("a",) if model.param_arity(r) == 1 else ("a1", "a2")
    b_vars = ("b",) if model.param_arity(p) == 1 else ("b1", "b2")
    a = tuple(LaurentFrac.symbol(v) for v in a_vars)
    b = tuple(LaurentFrac.symbol(v) for v in b_vars)
    comm = commutator_delta(model, r, p, a, b)
    combos = positive_combinations(r, p)
    used = set()
    for _i, _j, q in combos:
        for (row, col, _s) in root_entry_positions(model, q):
            if (row, col) in used:
                raise _ShapeError("overlapping factor supports for %s,%s",
                                  r, p)
            used.add((row, col))
    factors = _peel(model, combos, comm)
    if factors is None:
        raise _ShapeError("structure-law reassembly failed for %s,%s", r, p)
    laws = []
    for i, j, q, vals in factors:
        if any(e < 0 for v in vals for key in v.terms for _name, e in key):
            raise _ShapeError("structure law with a negative exponent "
                              "for %s,%s", r, p)
        sf = StructureFunction(i, j, q, vals, a_vars, b_vars)
        if not sf.bidegree_ok():
            raise _ShapeError("bidegree violation at %s for pair %s,%s",
                              q, r, p)
        if model.is_sp:
            terms = vals[0].terms
            if len(terms) > 1 or any(c.denominator != 1 for c in terms.values()):
                raise _ShapeError("sp law is not a single integer monomial")
        laws.append(sf)
    return tuple(laws)


def decompose_commutator(model, r, p, a, b):
    """[x_r(a), x_p(b)] as root-ordered factors: the fitted laws at (a, b).

    Returns (factors, laws) where factors is a list of (root, params) in the
    positive-combination order and laws are the fitted StructureFunctions.
    """
    a, b = _pair_params(model, r, p, a, b)
    laws = fit_structure_functions(model, r, p)
    return [(law.target, law.evaluate(a, b)) for law in laws], laws


def _pair_params(model, r, p, a, b):
    """Checked (a, b) for x_r(a), x_p(b): one scalar mode, r + p nonzero."""
    a = model.check_params(r, a)
    b = model.check_params(p, b)
    join_mode(mode_of(x) for x in a + b)
    if not any(r + p):
        raise RelationError("antipodal pair rejected")
    return a, b


# ---------------------------------------------------------------------------
# Generating relations: records, single-instance verifiers, suites
# ---------------------------------------------------------------------------

def _additivity(model, r, tuples):
    """x_r(a) x_r(b) = x_r(a+b)."""
    return Relation("additivity", (r,), tuples, lambda a, b: (
        delta_mul(x_delta(model, r, a), x_delta(model, r, b)),
        x_delta(model, r, tuple(x + y for x, y in zip(a, b)))))


def _commutator(model, r, p, laws, tuples, letters=None, values=None,
                proven=False):
    """[x_r(a), x_p(b)] = F, the product of its structure factors, checked
    as x_r(a) x_p(b) = F x_p(b) x_r(a).  No laws means F = id, the
    trivial-commutator relation of a pair with r+p outside the system.

    ``letters`` (root -> _letter_memo) and ``values`` (_law_memo) are the
    memo scope the record draws on: commutator_suites passes one of each to
    all its records, and a record alone gets fresh ones.  Every instance
    of the record multiplies both sides and compares them exactly, unless
    the record is ``proven`` (a trivial pair by support).
    """
    if letters is None:
        letters = {q: _letter_memo(model, q) for q in (r, p)}
    values = {} if values is None else values
    xr, xp = letters[r][0], letters[p][0]
    factors = [(law.target, _law_memo(law, values)) for law in laws]

    def sides(a, b):
        x, y = xr(a), xp(b)
        rhs = delta_mul(y, x)
        for q, value in reversed(factors):
            rhs = delta_mul(x_delta(model, q, value(a, b)), rhs)
        return delta_mul(x, y), rhs
    return Relation("commutator" if laws else "trivial-commutator", (r, p),
                    tuples, sides, proven=proven)


def _single(model, rel):
    """Run a record on its one tuple; the report shows that tuple.  Its
    regime is symbolic when a parameter is a Laurent symbol, grid
    otherwise."""
    tup = rel.tuples[0]
    text = "; ".join(",".join(format_scalar(x) for x in t) for t in tup)
    regime = SYMBOLIC if any(isinstance(x, LaurentFrac) for x in _flat(tup)) \
        else GRID
    return _sweep(model, regime, replace(rel, params=text))


def verify_additivity(model, r, a, b):
    """x_r(a) x_r(b) = x_r(a+b) as one report."""
    a, b = _pair_params(model, r, r, a, b)
    return _single(model, _additivity(model, r, [(a, b)]))


def verify_commutator(model, r, p, a, b):
    """[x_r(a), x_p(b)] equals the product of its structure factors: no
    factor, the trivial-commutator report, when r+p is no root."""
    a, b = _pair_params(model, r, p, a, b)
    laws = fit_structure_functions(model, r, p)
    return _single(model, _commutator(model, r, p, laws, [(a, b)]))


def additivity_suite(model, designs):
    return _sweep_all(model, designs.regime, [
        _additivity(model, r, designs.letters[(model.param_arity(r),) * 2])
        for r in build_root_system(model.n).roots])


def _products_vanish(s, t):
    """True when every matrix supported on s times every one on t is 0: no
    column of s is a row of t."""
    return {j for _i, j in s}.isdisjoint([i for i, _j in t])


def _distinct_sides(design):
    """The distinct a and the distinct b slot-tuple objects of a design."""
    return (list({id(a): a for a, _b in design}.values()),
            list({id(b): b for _a, b in design}.values()))


def commutator_suites(model, designs):
    """Relation families (2)/(3) over every ordered root pair with r+p != 0.

    One memo scope serves every pair of the call and dies with it: each
    x_r(a) is built once per (root, slot tuple) of ``designs.letters``
    (_letter_memo) and each law once per (compiled form, a, b) (_law_memo).

    A trivial pair's record is proven by support, with no product: write
    S_q for _support(model, q).  When S_r S_p = 0 and S_p S_r = 0 as sparsity
    patterns, any f on S_r and g on S_p have fg = gf = 0, so
    (I + f)(I + g) = I + f + g = (I + g)(I + f): the equation
    x_r(a) x_p(b) = x_p(b) x_r(a) holds at every (a, b) whose letters lie
    on their supports.  So the pair is proven when both products vanish and
    every letter its design builds lies on its root's support, read once
    per distinct slot tuple of each side of the design (_letter_memo).
    Any other trivial pair, and every commutator pair, is swept in full; a
    pair whose laws do not fit carries the fit's error.
    """
    system = build_root_system(model.n)
    design = designs.letters
    letters = {q: _letter_memo(model, q) for q in system.roots}
    values = {}
    supports = {q: _support(model, q) for q in system.roots}
    sides = {}      # (arity_a, arity_b) -> the design's distinct a and b

    def by_support(r, p, arities):
        if not (_products_vanish(supports[r], supports[p])
                and _products_vanish(supports[p], supports[r])):
            return False
        if arities not in sides:
            sides[arities] = _distinct_sides(design[arities])
        a_side, b_side = sides[arities]
        return (all(map(letters[r][1], a_side))
                and all(map(letters[p][1], b_side)))

    def records():
        for r in system.roots:
            for p in system.roots:
                rsum = r + p
                if not any(rsum):
                    continue
                laws = ()
                if system.is_root(rsum):
                    try:
                        laws = fit_structure_functions(model, r, p)
                    except RelationError as exc:
                        yield Relation("commutator", (r, p), [], None,
                                       error=str(exc))
                        continue
                arities = (model.param_arity(r), model.param_arity(p))
                yield _commutator(model, r, p, laws, design[arities],
                                  letters, values,
                                  not laws and by_support(r, p, arities))

    # a generator, not a list: each record is built just before its sweep
    # and dropped after it, so the records of all pairs never live at once
    return _sweep_all(model, designs.regime, records())


def h_relation_suite(model, designs):
    """h-multiplicativity, h-involution, diagonal forms, literal agreement."""
    n = model.n
    r12 = Root.of(n, 1, 2, 1, -1)
    ln = Root.of(n, n)

    def h_params(t):
        return (t,) if model.is_sp else (t, _ZERO)

    def h12(t):
        return h_delta(model, r12, h_params(t))

    # involution: h_{2Ln}(-1) is diag(1,..,-1 at n,1,..,-1 at 2n), square id
    expected = {(n, n): Fraction(-2), (2 * n, 2 * n): Fraction(-2)}

    def involution(m):
        hm = h_delta(model, ln, (m,))
        if hm != expected:
            return hm, expected
        return delta_mul(hm, hm), {}

    def diagonal(t):
        hd = h12(t)
        tinv = 1 / t
        exp = {(1, 1): t - 1, (2, 2): tinv - 1}
        if model.is_sp:
            exp[(1 + n, 1 + n)] = tinv - 1
            exp[(2 + n, 2 + n)] = t - 1
        return hd, {k: v for k, v in exp.items() if v}

    # h(t) = w(t) w(-ref) is w(t) w(ref)^{-1}, checked with no inverse
    def literal(t):
        params = h_params(t)
        return (delta_mul(h12(t), w_delta(model, r12, h_reference(params))),
                w_delta(model, r12, params))

    return _sweep_all(model, designs.regime, [
        Relation("h-multiplicativity", (r12,), designs.products,
                 lambda a, b: (delta_mul(h12(a), h12(b)), h12(a * b))),
        Relation("h-involution", (ln,), designs.minus_one, involution,
                 params="-1"),
        Relation("h-diagonal-form", (r12,), designs.singles, diagonal),
        Relation("h-literal-form", (r12,), designs.singles[:5], literal),
    ])


# ---------------------------------------------------------------------------
# Weyl-element conjugation suites
# ---------------------------------------------------------------------------

def _conj(w, inner, w_inv):
    return delta_mul(delta_mul(w, inner), w_inv)


def weyl_conjugation_suite(model, designs):
    """Conjugation identities among w and h letters, verified as matrices."""
    parts = (_sp_weyl_records,) if model.is_sp else (
        _component_records, _sl_w_records, _w_inversion_records)
    # a generator, not a list: each part's records live only while the
    # sweep is in that part
    return _sweep_all(model, designs.regime, (
        rel for part in parts for rel in part(model, designs)))


def _sp_weyl_records(model, designs):
    """w/h conjugations, then long-root h through the short-root torus (sp)."""
    n = model.n
    short = Root.of(n, n - 1, n, 1, -1)       # L_{n-1} - L_n
    plus = Root.of(n, n - 1, n, 1, 1)         # L_{n-1} + L_n
    long_n = Root.of(n, n)                    # 2L_n
    long_n1 = Root.of(n, n - 1)               # 2L_{n-1}
    minus_one = Fraction(-1)

    def w(root, t):
        return w_delta(model, root, (t,))

    def h(root, t):
        return h_delta(model, root, (t,))

    cases = [
        ("weyl-conj-1", (long_n, short, plus),
         lambda a, t: (_conj(w(long_n, a), w(short, t), w(long_n, -a)),
                       w(plus, -(a * t)))),
        ("weyl-conj-2", (long_n, plus, short),
         lambda a, t: (_conj(w(long_n, a), w(plus, t), w(long_n, -a)),
                       w(short, t / a))),
        ("weyl-conj-3", (short, long_n, long_n1),
         lambda a, t: (_conj(w(short, t), w(long_n, a), w(short, -t)),
                       w(long_n1, a * t * t))),
        ("weyl-conj-4", (short, long_n1, long_n),
         lambda a, t: (_conj(w(short, t), w(long_n1, a), w(short, -t)),
                       w(long_n, a / (t * t)))),
        ("weyl-conj-5", (short, long_n, long_n),
         lambda a, t: (_conj(h(short, t), w(long_n, a), h(short, 1 / t)),
                       w(long_n, a / (t * t)))),
        ("weyl-conj-6", (long_n, short, plus),
         lambda a, t: (_conj(w(long_n, a), h(short, t), w(long_n, -a)),
                       delta_mul(h(plus, -(a * t)), h(plus, -(1 / a))))),
    ]
    hs = h(short, minus_one)

    # h_{L_{n-1}-L_n}(-1) h_{L_{n-1}+L_n}(-1)^{±1} = id, as h(-1)^{-1} = h(-1)
    def pair(m):
        return delta_mul(hs, h(plus, m)), {}

    # h_{2Ln}(s z^2) = h_short(1/z) w_{2Ln}(s) h_short(1/z)^{-1} w_{2Ln}(-1)
    def split(s, z):
        return h(long_n, s * z * z), delta_word(
            [h(short, 1 / z), w(long_n, s), h(short, z), w(long_n, minus_one)])

    return [
        Relation(rid, roots, designs.products, sides)
        for rid, roots, sides in cases] + [
        Relation("h-decomposition-square", (short,), designs.minus_one,
                 lambda m: (delta_mul(hs, hs), {}), params="-1"),
        Relation("h-decomposition-pair", (short, plus), designs.minus_one,
                 pair, params="-1,-1"),
        Relation("h-decomposition-pair-inverse", (short, plus),
                 designs.minus_one, pair, params="-1,-1"),
        Relation("h-decomposition-split", (long_n, short), designs.split,
                 split),
    ]


def _component_records(model, designs):
    """One weyl-component-conj record per (gamma, w-form): w x^delta_beta(v)
    w^{-1} is the component letter at the permuted support with the value
    the SL2 blocks of w predict; (u) on long roots, and (u,0), (0,u), (u,v)
    on short ones.

    The prediction is a monomial form of its own: each nonzero slot t on a
    component (r, c) of gamma is the block [[0, t], [-1/t, 0]] on rows and
    columns r, c (Steinberg's w in SL2).  For w = p(pi) diag(d),
    w e_rc w^{-1} = (d_r / d_c) e_{pi(r), pi(c)}, so when the form read off
    w equals the prediction (perm and diag exactly), every target lies in
    the component table and w(-t) is the inverse of w(t), the record is
    proven with no per-instance arithmetic.  Any other form is swept in
    full: each instance relabels v through w's form and compares it with v
    relabelled through the prediction (_monomial_conj both times), kept
    only when its target lies in the component table, so its verdict and
    witness are the instance-by-instance ones; if w(-t) is not the inverse,
    every instance fails.  A w that is not monomial has no form to relabel
    through: its record carries that error, like a law that does not fit
    in commutator_suites.  Carter's signs eta are not yet the oracle here.
    """
    n = model.n
    system = build_root_system(n)
    table = position_component_table(n)
    (v, u, u2), = designs.component
    tuples = [(beta, d) for beta in system.roots
              for d in ((1,) if beta.is_long else (1, 2))]
    cells = [root_entry_positions(model, beta)[d - 1][:2] for beta, d in tuples]

    def relation(gamma, wparams, label):
        wd = w_delta(model, gamma, wparams)
        inverse = delta_mul(wd, w_delta(model, gamma,
                                        tuple(-x for x in wparams)))
        predicted = _sl2_block_form(model, gamma, wparams)
        perm = predicted.perm
        try:
            form = MonomialForm.from_delta(wd, model.size)
        except GeneratorError as exc:
            return Relation("weyl-component-conj", (gamma,), tuples, None,
                            params=label, error=str(exc))

        def sides(beta, d):
            row, col, _s = root_entry_positions(model, beta)[d - 1]
            if inverse:
                return inverse, {}
            inner = {(row, col): v}
            rhs = _monomial_conj(predicted, inner)
            return (_monomial_conj(form, inner),
                    rhs if rhs.keys() <= table.keys() else {})

        proven = not inverse and form == predicted and all(
            (perm[row - 1], perm[col - 1]) in table for row, col in cells)
        return Relation("weyl-component-conj", (gamma,), tuples, sides,
                        shown=lambda beta, d: (v,), params=label,
                        proven=proven)

    records = []
    for gamma in system.roots:
        forms = [((u,), "u")] if gamma.is_long else \
            [((u, _ZERO), "(u,0)"), ((_ZERO, u), "(0,u)"), ((u, u2), "(u,v)")]
        records += [relation(gamma, *form) for form in forms]
    return records


def _monomial_conj(form, inner):
    """Delta of w (I + inner) w^{-1} for w = p(pi) diag(d), the MonomialForm
    form: w e_rc w^{-1} = (d_r / d_c) e_{pi(r), pi(c)}."""
    perm, diag = form.perm, form.diag
    return {(perm[r - 1], perm[c - 1]): diag[r - 1] * x / diag[c - 1]
            for (r, c), x in inner.items()}


def _sl2_block_form(model, gamma, params):
    """The MonomialForm that w_gamma(params) should have on sl, and on sp's
    long roots: each nonzero slot t on a component (r, c) is the block
    [[0, t], [-1/t, 0]] on rows and columns r, c; every other column is the
    identity's.  monomial-form-1..7 and weyl-component-conj both read it."""
    perm = list(range(1, model.size + 1))
    diag = [1] * model.size
    for (r, c, _s), t in zip(root_entry_positions(model, gamma), params):
        if t:
            perm[c - 1], diag[c - 1] = r, t
            perm[r - 1], diag[r - 1] = c, -(1 / t)
    return MonomialForm(tuple(perm), tuple(diag))


def _sl_w_records(model, designs):
    """The three w-by-w conjugation displays for the sl families."""
    n = model.n
    tuples = designs.w_by_w

    def w(root, *params):
        return w_delta(model, root, params)

    def relations(i, j):
        rsum = Root.of(n, i, j, 1, 1)
        rdiff = Root.of(n, i, j, 1, -1)
        rdiff_op = Root.of(n, j, i, 1, -1)   # L_j - L_i
        li2 = Root.of(n, i)
        lj2neg = Root.of(n, j, si=-1)

        def conj_1(a, t1, t2):
            return (_conj(w(rsum, a, _ZERO), w(rdiff, t1, t2),
                          w(rsum, -a, _ZERO)),
                    delta_mul(w(lj2neg, -(t1 / a)), w(li2, a * t2)))

        def conj_3(a, t1, t2):
            return (_conj(w(li2, a), w(rsum, t1, _ZERO), w(li2, -a)),
                    w(rdiff_op, _ZERO, -(t1 / a)))

        return [
            Relation("weyl-w-conj-1", (rsum, rdiff), tuples, conj_1),
            Relation("weyl-w-conj-2", (li2, rsum), tuples, lambda a, t1, t2: (
                _conj(w(li2, a), w(rsum, t1, t2), w(li2, -a)),
                w(rdiff_op, t2 / a, -(t1 / a)))),
            Relation("weyl-w-conj-3", (li2, rsum), tuples, conj_3,
                     shown=lambda a, t1, t2: (a, t1)),
        ]

    return [rel for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for rel in relations(i, j)]


def _w_inversion_records(model, designs):
    """w_g(t1,t2) = w_{-g}(-1/t1,-1/t2), also with either slot zero; w_g(t)
    = w_{-g}(-1/t) on long roots."""

    def variants(t1, t2=None):
        if t2 is None:
            return ((t1,),)
        return ((t1, t2), (t1, _ZERO), (_ZERO, t2))

    def relation(gamma):
        def first_failing(*ts):
            for params in variants(*ts):
                lhs = w_delta(model, gamma, params)
                rhs = w_delta(model, *w_factors(gamma, params)[1])
                if lhs != rhs:
                    break
            return params, lhs, rhs

        return Relation("w-inversion", (gamma,),
                        designs.singles if gamma.is_long else designs.units,
                        lambda *ts: first_failing(*ts)[1:],
                        shown=lambda *ts: first_failing(*ts)[0])

    return [relation(g) for g in build_root_system(model.n).roots]


# ---------------------------------------------------------------------------
# Monomial-form suite
# ---------------------------------------------------------------------------

# The seven displays w = p(pi) diag(...), whose right side _sl2_block_form
# gives.  Each row: id, root (Li-Lj, Li+Lj or 2Li) and the w-letter's slots
# (1 -> t1, 2 -> t2, 0 -> zero).
_MONOMIAL_FORMS = (
    ("monomial-form-1", "diff", (1, 2)),
    ("monomial-form-2", "diff", (1, 0)),
    ("monomial-form-3", "diff", (0, 2)),
    ("monomial-form-4", "sum", (1, 2)),
    ("monomial-form-5", "sum", (0, 2)),
    ("monomial-form-6", "sum", (1, 0)),
)
_LONG_FORM = ("monomial-form-7", "long", (1,))


def _monomial_relation(model, form, i, j, tuples):
    """w at the display's root and slot pattern equals its SL2-block form."""
    rid, kind, slots = form
    n = model.n
    root = Root.of(n, i) if kind == "long" else \
        Root.of(n, i, j, 1, -1 if kind == "diff" else 1)

    def sides(*ts):
        params = tuple(ts[s - 1] if s else _ZERO for s in slots)
        return (w_delta(model, root, params),
                _sl2_block_form(model, root, params).delta())

    return Relation(rid, (root,), tuples, sides,
                    shown=lambda *ts: tuple(ts[s - 1] for s in slots if s))


def monomial_form_suite(model, designs):
    """The seven explicit w displays; sl gets all, sp gets the long-root one."""
    n = model.n
    relations = [_monomial_relation(model, _LONG_FORM, i, i, designs.singles)
                 for i in range(1, n + 1)]
    if not model.is_sp:
        relations += [_monomial_relation(model, form, i, j, designs.units)
                      for i in range(1, n + 1) for j in range(i + 1, n + 1)
                      for form in _MONOMIAL_FORMS]
    return _sweep_all(model, designs.regime, relations)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

SUITES = ("relations", "weyl", "monomial", "all")


def regime_for(regime, grid):
    """The regime run_suite runs: the named one, else grid when a grid is
    given, else symbolic, the proof for all parameters."""
    if regime is not None:
        return regime
    return SYMBOLIC if grid is None else GRID


def run_suite(model, suite="all", regime=None, grid=None):
    """Run the selected suites in regime_for(regime, grid); deterministic
    report order.

    Only the grid regime reads a grid, grid_for_model(model, grid).  Symbolic
    constants are rational: integer-coefficient identities hold over Q(i).
    """
    regime = regime_for(regime, grid)
    if regime not in REGIMES:
        raise RelationError("unknown regime %r" % regime)
    if suite not in SUITES:
        raise RelationError("unknown suite %r" % suite)
    if regime == SYMBOLIC and grid is not None:
        raise RelationError("a grid applies to the grid regime only")
    designs = Designs.of(regime, grid_for_model(model, grid)
                         if regime == GRID else None)
    reports = []
    if suite in ("relations", "all"):
        reports += additivity_suite(model, designs)
        reports += commutator_suites(model, designs)
        reports += h_relation_suite(model, designs)
    if suite in ("weyl", "all"):
        reports += weyl_conjugation_suite(model, designs)
    if suite in ("monomial", "all"):
        reports += monomial_form_suite(model, designs)
    return reports
