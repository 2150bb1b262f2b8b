"""Root systems of type C_n shape {±L_i±L_j, ±2L_i} and root functionals.

Roots are integer coefficient vectors over the L-basis; the same type also
carries the standard special-linear functionals L_k - L_l used by the
arrangement module (any vector of shape ±L_i±L_j or ±2L_i is accepted).
Ordering is height-then-lexicographic so every enumeration in the package is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .scalars import ScalarError, read_integer, read_list


class RootError(ValueError):
    pass


@dataclass(frozen=True)
class Root:
    """Integer vector c over the L-basis, i.e. the functional sum(c_i * t_i).

    restricted_tag, when present, selects one of the two components of a
    2-dimensional restricted root space (special-linear models only; long
    roots ±2L_i never carry a tag).
    """

    coeffs: tuple
    restricted_tag: int | None = None

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        if c != tuple(self.coeffs):
            raise RootError("root coefficients must be integers: %r"
                            % (self.coeffs,))
        object.__setattr__(self, "coeffs", c)
        nz = [(i, v) for i, v in enumerate(c) if v]
        if not nz:
            raise RootError("zero vector is not a root")
        vals = sorted(abs(v) for _i, v in nz)
        if not (vals == [1, 1] or vals == [2]):
            raise RootError("not of shape ±L_i±L_j or ±2L_i: %r" % (c,))
        if self.restricted_tag is not None:
            if self.restricted_tag not in (1, 2):
                raise RootError("restricted tag must be 1 or 2")
            if self.is_long:
                raise RootError("long roots ±2L_i carry no restricted tag")

    # -- constructors --------------------------------------------------

    @staticmethod
    def of(n, i, j=None, si=1, sj=1, tag=None):
        """si*L_i + sj*L_j (i != j), or si*2L_i when j is None; 1-based."""
        c = [0] * n
        if j is None:
            c[i - 1] = 2 * si
        else:
            if i == j:
                raise RootError("need distinct indices")
            c[i - 1] += si
            c[j - 1] += sj
        return Root(tuple(c), tag)

    @staticmethod
    def parse(text):
        """Parse the integer list "c1,...,cn", tagged ":1", ":2" or not."""
        try:
            coeffs, *tag = read_list(text, ":")
            if tag not in ([], ["1"], ["2"]):
                raise RootError("the tag of %r is not :1 or :2" % text)
            return Root(tuple(read_list(coeffs, ",", read_integer)),
                        read_integer(tag[0]) if tag else None)
        except ScalarError as exc:
            raise RootError("bad root %r: %s" % (text, exc)) from None

    # -- structure -------------------------------------------------------

    @property
    def n(self):
        return len(self.coeffs)

    @property
    def is_long(self):
        return any(abs(v) == 2 for v in self.coeffs)

    @property
    def support(self):
        """1-based indices with nonzero coefficient."""
        return tuple(i + 1 for i, v in enumerate(self.coeffs) if v)

    def untagged(self):
        if self.restricted_tag is None:
            return self
        return Root(self.coeffs)

    def __neg__(self):
        return Root(tuple(-v for v in self.coeffs), self.restricted_tag)

    def __add__(self, other):
        return tuple(a + b for a, b in zip(self.coeffs, other.coeffs))

    def height(self):
        """Coefficient sum over the simple basis {L_i-L_{i+1}} u {2L_n}."""
        c = self.coeffs
        n = len(c)
        idx = self.support
        if self.is_long:
            i = idx[0]
            h = 2 * (n - i) + 1
            return h if c[i - 1] > 0 else -h
        i, j = idx
        si, sj = c[i - 1], c[j - 1]
        if si == -sj:  # ±(L_i - L_j)
            return (j - i) * si
        h = (j - i) + 2 * (n - j) + 1  # ±(L_i + L_j)
        return h if si > 0 else -h

    def sort_key(self):
        return (self.height(), self.coeffs, self.restricted_tag or 0)

    def eval(self, t):
        """Exact value of the functional at a rational vector."""
        coords = getattr(t, "coords", t)
        if len(coords) != len(self.coeffs):
            raise RootError("dimension mismatch: root has %d, point has %d"
                            % (len(self.coeffs), len(coords)))
        total = Fraction(0)
        for c, x in zip(self.coeffs, coords):
            if c:
                total += c * Fraction(x)
        return total

    def format(self):
        base = ",".join(str(v) for v in self.coeffs)
        if self.restricted_tag is not None:
            base += ":%d" % self.restricted_tag
        return base

    def __str__(self):
        return self.format()


@dataclass(frozen=True)
class CartanVector:
    """Exact point in the (t_1, ..., t_d) coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(x if type(x) is Fraction else Fraction(x)
                                 for x in self.coords))

    @property
    def ambient_dim(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, k):
        return self.coords[k]

    def __str__(self):
        return ",".join(str(x) for x in self.coords)


@dataclass(frozen=True)
class RootSystem:
    """Full root list with positive/simple subsets, deterministically ordered."""

    n: int
    roots: tuple
    positive: tuple
    simple: tuple

    def is_root(self, coeffs):
        return coeffs in self._index

    @property
    def _index(self):
        return _membership_index(self.n)


@lru_cache(maxsize=None)
def _membership_index(n):
    """Every root of rank n by its coefficients, unordered: a lookup needs
    no height order, so it is built without one."""
    if n < 2:
        raise RootError("rank must be at least 2, got %d" % n)
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(Root.of(n, i, j, si, sj))
        roots.append(Root.of(n, i))
        roots.append(Root.of(n, i, si=-1))
    return {r.coeffs: r for r in roots}


def root_at(coeffs):
    """The root with these coefficients, of rank len(coeffs): the object
    that root system holds, found without building the system."""
    coeffs = tuple(coeffs)
    try:
        return _membership_index(len(coeffs))[coeffs]
    except KeyError:
        raise RootError("%r is not a root for n=%d"
                        % (coeffs, len(coeffs))) from None


@lru_cache(maxsize=None)
def build_root_system(n):
    """All roots ±L_i±L_j (i<j) and ±2L_i, ordered height-then-lex.

    It takes a rank n: the root data is the same for every family, so a
    group model passes its ``n``.  Positive roots are
    {L_i-L_j}_{i<j} u {L_i+L_j}_{i<j} u {2L_i}; simple roots are
    {L_i-L_{i+1}} u {2L_n}.
    """
    keyed = sorted(((r.sort_key(), r) for r in _membership_index(n).values()),
                   key=itemgetter(0))
    roots = tuple(r for _key, r in keyed)
    positive = tuple(r for key, r in keyed if key[0] > 0)
    simple = tuple([Root.of(n, i, i + 1, 1, -1) for i in range(1, n)]
                   + [Root.of(n, n)])
    return RootSystem(n, roots, positive, simple)


def positive_combinations(r, p):
    """All (i, j, i*r+j*p) with i, j >= 1 landing in the root system.

    Ordered by i+j then i; the antipodal pair r = -p is rejected.  Root
    strings here are short: i+j never exceeds 3.
    """
    if r.n != p.n:
        raise RootError("rank mismatch")
    if not any(r + p):
        raise RootError("antipodal pair has no commutator decomposition")
    index = _membership_index(r.n)
    out = []
    for i in range(1, 4):
        for j in range(1, 4):
            q = index.get(tuple(i * a + j * b
                                for a, b in zip(r.coeffs, p.coeffs)))
            if q is not None:
                out.append((i, j, q))
    out.sort(key=lambda t: (t[0] + t[1], t[0]))
    return out


def standard_sl_roots(size):
    """The functionals L_k - L_l (k != l) on an ambient of the given size."""
    out = []
    for k in range(1, size + 1):
        for l in range(1, size + 1):
            if k != l:
                out.append(Root.of(size, k, l, 1, -1))
    out.sort(key=Root.sort_key)
    return tuple(out)
