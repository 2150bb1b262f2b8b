"""Lyapunov hyperplane arrangements: genericity, stable elements, chambers.

A hyperplane is the kernel of a root functional, stored as a primitive
integer normal (first nonzero entry positive) with the originating roots as
labels; antipodal and proportional functionals merge.  A plane (or a higher
dimensional region) is a rational subspace given by a basis or by ambient
equations.

Strict feasibility (all listed functionals negative somewhere on the region)
is decided by exact Fourier-Motzkin elimination on the scaled system
l(y) <= -1; the homogeneity of the system makes the two formulations
equivalent.  The elimination runs on integer rows and merges parallel
ones, keeping the tightest: only dominated rows go, so the merging changes
no witness point.  Eliminations track provenance, so infeasibility returns
a Farkas certificate: nonnegative rational weights whose functional
combination vanishes identically on the region.  A certificate is some
valid one, not a canonical or minimal one.

Chambers are enumerated by a sign-vector search in which a child inherits
its parent's sample point when that point already lies strictly on the
child's side of the next hyperplane; only the other children are solved.
A chamber's sample is therefore some strictly regular point of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .matrices import row_reduce
from .roots import CartanVector, Root


class ArrangementError(ValueError):
    pass


def _as_vector(v):
    if isinstance(v, Root):
        return tuple(Fraction(c) for c in v.coeffs)
    if isinstance(v, CartanVector):
        return tuple(v.coords)
    return tuple(Fraction(x) for x in v)


def _primitive(vec):
    """Scale to a primitive integer vector with positive first nonzero entry."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ArrangementError("zero functional has no kernel hyperplane")
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


@dataclass(frozen=True)
class Hyperplane:
    """ker of a functional; normal is primitive, labels are source roots."""

    normal: tuple
    labels: tuple

    def __str__(self):
        return ",".join(str(c) for c in self.normal)


def lyapunov_hyperplanes(roots, ambient_dim=None):
    """Deduplicated kernel hyperplanes of the given functionals.

    Proportional normals (in particular r and -r) merge, labels accumulate.
    """
    out = []
    index = {}
    for r in roots:
        vec = _as_vector(r)
        if ambient_dim is not None and len(vec) != ambient_dim:
            raise ArrangementError("functional %s has dimension %d, expected %d"
                                   % (r, len(vec), ambient_dim))
        normal = _primitive(vec)
        label = r if isinstance(r, Root) else Root(normal) if _rootish(normal) else None
        if normal in index:
            k = index[normal]
            labels = out[k].labels + ((label,) if label is not None else ())
            out[k] = Hyperplane(normal, labels)
        else:
            index[normal] = len(out)
            out.append(Hyperplane(normal,
                                  (label,) if label is not None else ()))
    return out


def _rootish(vec):
    vals = sorted(abs(v) for v in vec if v)
    return vals == [1, 1] or vals == [2]


@dataclass(frozen=True)
class Plane:
    """Rational subspace: basis vectors satisfying optional ambient equations."""

    ambient_dim: int
    basis: tuple
    constraints: tuple = ()

    def __post_init__(self):
        basis = tuple(tuple(Fraction(x) for x in b) for b in self.basis)
        constraints = tuple(tuple(Fraction(x) for x in c)
                            for c in self.constraints)
        for b in basis:
            if len(b) != self.ambient_dim:
                raise ArrangementError("basis vector dimension mismatch")
        for c in constraints:
            if len(c) != self.ambient_dim:
                raise ArrangementError("constraint dimension mismatch")
        if _rank(basis) != len(basis):
            raise ArrangementError("basis vectors are linearly dependent")
        for b in basis:
            for c in constraints:
                if _dot(b, c) != 0:
                    raise ArrangementError("basis vector violates a constraint")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "constraints", constraints)

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def from_equations(ambient_dim, equations):
        """The solution space of the homogeneous equations, with a basis."""
        eqs = [tuple(Fraction(x) for x in e) for e in equations]
        if any(len(e) != ambient_dim for e in eqs):
            raise ArrangementError("constraint dimension mismatch")
        basis = _nullspace(eqs, ambient_dim)
        return Plane(ambient_dim, tuple(basis), tuple(eqs))

    @staticmethod
    def full(ambient_dim):
        basis = tuple(tuple(Fraction(1 if i == j else 0)
                            for j in range(ambient_dim))
                      for i in range(ambient_dim))
        return Plane(ambient_dim, basis)

    def point_from_local(self, ys):
        coords = [Fraction(0)] * self.ambient_dim
        for y, b in zip(ys, self.basis):
            for k in range(self.ambient_dim):
                coords[k] += y * b[k]
        return CartanVector(tuple(coords))

    def contains(self, point):
        coords = _as_vector(point)
        rows = [list(b) for b in self.basis]
        return _rank(tuple(tuple(r) for r in rows + [list(coords)])) == self.dim


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _rank(rows):
    return len(row_reduce(rows, len(rows[0]))[1]) if rows else 0


def _nullspace(eqs, dim):
    """Basis of the solution space of homogeneous rational equations."""
    rref, pivots, _det = row_reduce(eqs, dim)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    reason: str = ""                      # "", "contained", "shared-line"
    witness_pair: tuple | None = None     # offending hyperplane(s)
    shared_line: tuple | None = None      # primitive ambient direction

    def describe(self):
        out = {"generic": self.generic}
        if not self.generic:
            out["reason"] = self.reason
            out["witness"] = [str(h) for h in self.witness_pair]
            if self.shared_line is not None:
                out["line"] = [str(c) for c in self.shared_line]
        return out


def is_generic(plane, hyperplanes):
    """A 2-plane is generic iff it meets distinct hyperplanes in distinct lines.

    Verdicts carry a witness: the containing hyperplane, or the first pair
    sharing an intersection line together with that line's primitive ambient
    direction.
    """
    if plane.dim != 2:
        raise ArrangementError("genericity is defined for 2-planes; got dim %d"
                               % plane.dim)
    b1, b2 = plane.basis
    restricted = []
    for h in hyperplanes:
        a = _dot(h.normal, b1)
        b = _dot(h.normal, b2)
        if a == 0 and b == 0:
            return GenericityVerdict(False, "contained", (h,), None)
        restricted.append((h, a, b))
    for k in range(len(restricted)):
        h1, a1, c1 = restricted[k]
        for l in range(k + 1, len(restricted)):
            h2, a2, c2 = restricted[l]
            if a1 * c2 - a2 * c1 == 0:
                # shared line direction: kernel of (a1, c1) inside the plane
                y = (-c1, a1)
                ambient = tuple(y[0] * u + y[1] * v for u, v in zip(b1, b2))
                return GenericityVerdict(False, "shared-line", (h1, h2),
                                         _primitive(ambient))
    return GenericityVerdict(True)


# ---------------------------------------------------------------------------
# Strict feasibility via Fourier-Motzkin with certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableSearchResult:
    point: CartanVector | None
    certificate: tuple | None   # ((root_index, weight), ...) Farkas weights

    @property
    def feasible(self):
        return self.point is not None

    def describe(self, roots=None):
        if self.feasible:
            return {"feasible": True, "point": [str(c) for c in self.point]}
        cert = [{"index": i, "weight": str(w)} for i, w in self.certificate]
        if roots is not None:
            for entry in cert:
                entry["root"] = str(roots[entry["index"]])
        return {"feasible": False, "certificate": cert}


def _local_rows(vecs, region, ambient_dim):
    """(rows, dim, lift): the functionals in the region's local coordinates,
    the region's dimension, and the map from a local point to an ambient
    CartanVector.  With no region the local coordinates are the ambient ones
    (of dimension ambient_dim, else that of the first functional), so the
    rows are the functionals themselves and the lift is the identity."""
    if region is None:
        if ambient_dim is None:
            ambient_dim = len(vecs[0])
        dim, basis, lift = ambient_dim, None, CartanVector
    else:
        ambient_dim, dim, basis = region.ambient_dim, region.dim, region.basis
        lift = region.point_from_local
    rows = []
    for k, v in enumerate(vecs):
        if len(v) != ambient_dim:
            raise ArrangementError("functional %d has wrong dimension" % k)
        rows.append(list(v) if basis is None else [_dot(v, b) for b in basis])
    return rows, dim, lift


def _functional(v):
    """A functional as the solvers take it.  The coefficients of a Root or
    of an all-int sequence stay ints, which Fourier-Motzkin takes as they
    are; any other vector is converted by _as_vector."""
    if isinstance(v, Root):
        return v.coeffs
    if not isinstance(v, CartanVector):
        v = tuple(v)
        if all(type(x) is int for x in v):
            return v
    return _as_vector(v)


def find_stable_element(roots, region=None, ambient_dim=None):
    """A rational point of the region with every functional strictly negative.

    Either a point (re-validated exactly against every functional before
    returning) or a Farkas certificate: nonnegative weights, not all zero,
    whose weighted functional sum vanishes identically on the region.
    """
    roots = list(roots)
    if not roots:
        raise ArrangementError("need at least one functional")
    vecs = [_functional(r) for r in roots]
    local, dim, lift = _local_rows(vecs, region, ambient_dim)
    one = Fraction(1)
    rows = [(c, {k: one}) for k, c in enumerate(local)]
    feasible, point_or_cert = _strict_feasible(rows, dim)
    if feasible:
        point = lift(point_or_cert)
        # the values at den * point, den > 0, have the signs of those at point
        den = lcm(*(x.denominator for x in point.coords))
        nums = [x.numerator * (den // x.denominator) for x in point.coords]
        for k, v in enumerate(vecs):
            if sum(c * y for c, y in zip(v, nums) if c) >= 0:
                raise ArrangementError("internal error: point fails check %d" % k)
        return StableSearchResult(point, None)
    cert = tuple(sorted((k, w) for k, w in _weights(point_or_cert).items()
                        if w))
    return StableSearchResult(None, cert)


def _keep(kept, coeffs, prov, rhs):
    """Add the integer row coeffs . y <= rhs to kept, which maps each
    primitive coefficient vector to the tightest row along it.  Returns
    False when the row is the contradiction 0 <= rhs < 0.

    A kept row is (coeffs, provenance, rhs, content of coeffs), divided by
    the content of coeffs and rhs together, so that it stays integral; its
    bound along the primitive vector is rhs / content.  An all-zero row
    with rhs >= 0 says nothing and is dropped.
    """
    gc = gcd(*coeffs)
    if gc == 0:
        return rhs >= 0
    key = tuple(c // gc for c in coeffs)
    old = kept.get(key)
    if old is None or rhs * old[3] < old[2] * gc:
        g = gcd(gc, rhs)
        if g != 1:
            coeffs = [c // g for c in coeffs]
            prov = (g, prov)
            rhs //= g
            gc //= g
        kept[key] = (coeffs, prov, rhs, gc)
    return True


def _weights(prov):
    """The weight dict of a provenance: a dict already, (g, p) for p / g,
    or (b, p, a, n) for b*p + a*n."""
    if isinstance(prov, dict):
        return prov
    if len(prov) == 2:
        g, p = prov
        return {k: Fraction(w, g) for k, w in _weights(p).items()}
    b, pp, a, pn = prov
    out = {k: b * w for k, w in _weights(pp).items()}
    for k, w in _weights(pn).items():
        out[k] = out.get(k, 0) + a * w
    return out


def _bound(row, var, point):
    """The bound that row puts on y[var]; a row of the stage of var is zero
    before var, and the coordinates after var are already set."""
    coeffs, _prov, rhs, _content = row
    total = rhs
    for c, y in zip(coeffs[var + 1:], point[var + 1:]):
        if c and y:
            total -= c * y
    if type(total) is int:
        return Fraction(total, coeffs[var])
    return total / coeffs[var]


def _strict_feasible(rows, dim):
    """Feasibility of {coeffs . y <= -1} via Fourier-Motzkin.

    rows: (coeffs, provenance) pairs; provenance maps original indices to
    nonnegative weights.  Returns (True, y) or (False, provenance), where
    the provenance is built lazily and ``_weights`` expands it.

    Each input row is scaled once, by a positive factor, to integer
    coefficients and rhs, so the elimination runs on ints.  Rows are merged
    as they are made: among rows whose coefficients are positive multiples
    of one another only the one of least bound is kept (see ``_keep``), and
    an all-zero row with rhs < 0 ends the elimination at once.  Only
    dominated rows go, so every stage's bounds, and hence the
    back-substituted point, are those of the unmerged elimination.
    """
    kept = {}
    for coeffs, prov in rows:
        den = lcm(*(x.denominator for x in coeffs))
        ints = [x.numerator * (den // x.denominator) for x in coeffs]
        if den != 1:
            prov = {k: w * den for k, w in prov.items()}
        if not _keep(kept, ints, prov, -den):
            return (False, prov)
    stages = []
    for var in range(dim):
        system, kept = kept, {}
        pos, neg = [], []
        for key, row in system.items():
            cv = row[0][var]
            if cv > 0:
                pos.append(row)
            elif cv < 0:
                neg.append(row)
            else:
                kept[key] = row
        stages.append((var, pos, neg))
        for cp, pp, rp, _gp in pos:
            for cn, pn, rn, _gn in neg:
                a, b = cp[var], -cn[var]
                # b*row_pos + a*row_neg eliminates var; weights stay >= 0
                prov = (b, pp, a, pn)
                if not _keep(kept, [b * x + a * y for x, y in zip(cp, cn)],
                             prov, b * rp + a * rn):
                    return (False, prov)
    # back-substitute a point, last stage first
    point = [Fraction(0)] * dim
    for var, pos, neg in reversed(stages):
        # coeffs.y <= rhs bounds y[var] above if its coefficient is positive
        hi = min(_bound(row, var, point) for row in pos) if pos else None
        lo = max(_bound(row, var, point) for row in neg) if neg else None
        if lo is None and hi is None:
            continue   # y[var] stays 0
        if lo is None:
            point[var] = hi - 1
        elif hi is None:
            point[var] = lo + 1
        else:
            if lo > hi:
                raise ArrangementError("internal error: empty interval")
            point[var] = (lo + hi) / 2
    return (True, point)


# ---------------------------------------------------------------------------
# Weyl chambers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChamberMap:
    """Realizable full sign vectors with exact sample points."""

    hyperplanes: tuple
    chambers: tuple   # ((sign, ...), CartanVector) pairs

    def __len__(self):
        return len(self.chambers)

    def describe(self):
        return [{"signs": list(signs), "sample": [str(c) for c in pt]}
                for signs, pt in self.chambers]


def weyl_chambers(hyperplanes, region=None, ambient_dim=None):
    """Enumerate all realizable chambers of the arrangement on the region.

    Recursive sign-vector search with Fourier-Motzkin pruning; every chamber
    comes with a strictly-regular rational sample point.  Each node carries
    a point of its cone; a child on whose side of the next hyperplane that
    point strictly lies takes it without a solve, so a sample is the point
    found by the deepest solve on its path.
    """
    hyperplanes = list(hyperplanes)
    if not hyperplanes:
        raise ArrangementError("need at least one hyperplane")
    restricted, dim, lift = _local_rows(
        [_functional(h.normal) for h in hyperplanes], region, ambient_dim)
    if dim < 1:
        raise ArrangementError("region must have dimension at least 1")
    # sign s demands s*h(x) > 0, i.e. (-s)*h(x) < 0 for the solver
    signed = [{1: [-c for c in row], -1: row} for row in restricted]
    one = Fraction(1)
    chambers = []

    def recurse(prefix, point):
        k = len(prefix)
        if k == len(hyperplanes):
            chambers.append((tuple(prefix), lift(point)))
            return
        value = _dot(restricted[k], point)
        for s in (1, -1):
            child = prefix + [s]
            if s * value > 0:
                recurse(child, point)
                continue
            rows = [(signed[i][t], {i: one}) for i, t in enumerate(child)]
            feasible, payload = _strict_feasible(rows, dim)
            if feasible:
                recurse(child, payload)

    # the empty sign vector is the whole region, and the origin lies in it
    recurse([], [Fraction(0)] * dim)
    return ChamberMap(tuple(hyperplanes), tuple(chambers))
