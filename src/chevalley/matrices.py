"""Dense exact matrices: deltas, products, inverses, exponentials, membership.

Matrices are 2n x 2n grids of scalars sharing one mode (see
:mod:`chevalley.scalars`).  The :class:`ExactMatrix` constructor is the one
place that decides a matrix's mode: it takes the join of its entries' modes
unless a mode is given, and embeds every entry (ints included) into it; the
builders hand it raw entries.  All operations are pure and exact; row
supports are precomputed so products of near-identity matrices skip zero
work.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import (LAURENT, RATIONAL, coerce, format_scalar, join_mode,
                      mode_of)


class MatrixError(ValueError):
    """Size or mode mismatch."""


class SingularMatrixError(ZeroDivisionError):
    """Inversion of a singular matrix; carries the rank found."""

    def __init__(self, rank):
        super().__init__("matrix is singular (rank %d)" % rank)
        self.rank = rank


class ExactMatrix:
    """Immutable 2n x 2n matrix over one exact scalar mode."""

    __slots__ = ("size", "mode", "rows", "_support")

    def __init__(self, rows, mode=None):
        rows = [list(r) for r in rows]
        size = len(rows)
        if size == 0 or size % 2 != 0:
            raise MatrixError("matrix size must be even and positive, got %d" % size)
        for r in rows:
            if len(r) != size:
                raise MatrixError("matrix must be square")
        if mode is None:
            mode = join_mode(mode_of(x) for r in rows for x in r
                             if not isinstance(x, int))
        # each distinct int is embedded once and shared by its entries
        ints = {x for r in rows for x in r if isinstance(x, int)}
        embed = {x: coerce(x, mode) for x in ints}
        rows = [[embed[x] if isinstance(x, int) else coerce(x, mode) for x in r]
                for r in rows]
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_support",
                           tuple(tuple(j for j, x in enumerate(r) if x)
                                 for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sparse(size, entries, mode=None):
        """Build from {(i, j): value} with 1-based indices, zeros elsewhere;
        the mode is the constructor's, inferred unless given."""
        rows = [[0] * size for _ in range(size)]
        for (i, j), v in entries.items():
            rows[i - 1][j - 1] = v
        return ExactMatrix(rows, mode)

    @staticmethod
    def identity(size, mode=None):
        return ExactMatrix.sparse(size, {(i, i): 1 for i in range(1, size + 1)},
                                  mode)

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.size != other.size or self.mode != other.mode:
            return False
        return all(self.rows[i][j] == other.rows[i][j]
                   for i in range(self.size) for j in range(self.size))

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def is_diagonal(self):
        return all(sup in ((), (i,)) for i, sup in enumerate(self._support))

    def transpose(self):
        n = self.size
        return ExactMatrix([[self.rows[j][i] for j in range(n)] for i in range(n)],
                           self.mode)

    def evaluate(self, point):
        """Evaluate a laurent-mode matrix at a rational/gaussian point."""
        if self.mode != LAURENT:
            return self
        return ExactMatrix([[x.evaluate(point) for x in r] for r in self.rows])

    def __repr__(self):
        return "ExactMatrix(%d, %s)" % (self.size, self.mode)

    def __str__(self):
        return format_matrix(self)


def delta_to_matrix(delta, size, mode=None):
    """The matrix I + delta of a sparse delta {(i, j): scalar}, 1-based, by
    default over the join of the entry modes."""
    entries = {(i, i): 1 for i in range(1, size + 1)}
    for (i, j), v in delta.items():
        entries[(i, j)] = 1 + v if i == j else v
    return ExactMatrix.sparse(size, entries, mode)


def matrix_to_delta(m):
    """The sparse delta M - I of a matrix, zero entries pruned."""
    out = {}
    for i, row in enumerate(m.rows, start=1):
        for j, v in enumerate(row, start=1):
            v = v - 1 if i == j else v
            if v:
                out[(i, j)] = v
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _check_pair(a, b):
    if a.size != b.size:
        raise MatrixError("size mismatch: %d vs %d" % (a.size, b.size))
    if a.mode != b.mode:
        raise MatrixError("mode mismatch: %s vs %s" % (a.mode, b.mode))


def mat_mul(a, b):
    """Exact matrix product."""
    _check_pair(a, b)
    n = a.size
    zero = coerce(0, a.mode)
    arows = a.rows
    brows = b.rows
    bsup = b._support
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        arow = arows[i]
        orow = out[i]
        for k in a._support[i]:
            v = arow[k]
            brow = brows[k]
            for j in bsup[k]:
                orow[j] = orow[j] + v * brow[j]
    return ExactMatrix(out, a.mode)


def mat_prod(matrices, size=None, mode=None):
    """Ordered product; identity for the empty sequence (needs size then)."""
    result = None
    for m in matrices:
        result = m if result is None else mat_mul(result, m)
    if result is None:
        if size is None:
            raise MatrixError("empty product needs an explicit size")
        return ExactMatrix.identity(size, mode)
    return result


def mat_add(a, b):
    _check_pair(a, b)
    n = a.size
    return ExactMatrix([[a.rows[i][j] + b.rows[i][j] for j in range(n)]
                        for i in range(n)], a.mode)


def mat_scale(a, c):
    c = coerce(c, a.mode)
    return ExactMatrix([[x * c for x in r] for r in a.rows], a.mode)


def row_reduce(rows, ncols):
    """Gauss-Jordan elimination over an exact field; the one pivoting loop.

    Column by column over the first ncols columns, the pivot is the first
    nonzero entry at or below the current rank; later columns (an augmented
    block) ride along.  The pivot row is scaled to a leading one and its
    column is cleared in every other row.  Returns (rref, pivots, det): the
    reduced rows, the pivot column of each of the first len(pivots) rows,
    and the product of the pivots signed by the row swaps, which is the
    determinant of a square input; det is zero when the input is singular
    or not square.
    """
    work = [list(r) for r in rows]
    m = len(work)
    mode = mode_of(work[0][0]) if m and ncols else RATIONAL
    det = coerce(1, mode)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == m:
            break
        piv = None
        for r in range(rank, m):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
            det = -det
        pval = work[rank][col]
        det = det * pval
        if pval != 1:
            work[rank] = [x / pval for x in work[rank]]
        prow = work[rank]
        for r in range(m):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], prow)]
        pivots.append(col)
    if len(pivots) < ncols or m != ncols:
        det = coerce(0, mode)
    return work, tuple(pivots), det


def mat_inv(a):
    """Exact inverse: row_reduce of the block [a | I].

    Raises SingularMatrixError (with the rank) on singular input.
    """
    n = a.size
    rows = [r + e for r, e in zip(a.rows, ExactMatrix.identity(n, a.mode).rows)]
    rref, pivots, _det = row_reduce(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    return ExactMatrix([r[n:] for r in rref], a.mode)


def mat_det(a):
    """Exact determinant, by row_reduce."""
    return row_reduce(a.rows, a.size)[2]


class NotNilpotentError(ValueError):
    pass


def exp_nilpotent(n_mat):
    """exp of a nilpotent matrix as the finite sum sum_j N^j / j!.

    Nilpotency (N^k = 0 for some k <= size) is checked; semisimple input is
    rejected.  Factorials are absorbed exactly by rational division.
    """
    size = n_mat.size
    term = ExactMatrix.identity(size, n_mat.mode)
    total = term
    power = n_mat
    j = 1
    while any(power._support):
        if j > size:
            raise NotNilpotentError("matrix is not nilpotent (N^%d != 0)" % j)
        term = mat_scale(power, Fraction(1, factorial(j)))
        total = mat_add(total, term)
        power = mat_mul(power, n_mat)
        j += 1
    return total


# ---------------------------------------------------------------------------
# Group membership
# ---------------------------------------------------------------------------

def symplectic_form(size, mode=None):
    """Gram matrix J of the standard skew form: J[i, i+n] = 1, J[i+n, i] = -1."""
    n = size // 2
    entries = {}
    for i in range(1, n + 1):
        entries[(i, i + n)] = 1
        entries[(i + n, i)] = -1
    return ExactMatrix.sparse(size, entries, mode)


def check_membership(m, model):
    """True iff m lies in the model's group: m^T J m = J (sp) or det = 1 (sl)."""
    if m.size != 2 * model.n:
        raise MatrixError("matrix size %d does not match model size %d"
                          % (m.size, 2 * model.n))
    if model.family == "sp":
        j = symplectic_form(m.size, m.mode)
        return mat_mul(mat_mul(m.transpose(), j), m) == j
    return mat_det(m) == 1


def check_lie_membership(x, model):
    """Lie-algebra membership: X^T J + J X = 0 (sp) or trace 0 (sl)."""
    if x.size != 2 * model.n:
        raise MatrixError("matrix size %d does not match model size %d"
                          % (x.size, 2 * model.n))
    if model.family == "sp":
        j = symplectic_form(x.size, x.mode)
        lhs = mat_add(mat_mul(x.transpose(), j), mat_mul(j, x))
        return all(not v for row in lhs.rows for v in row)
    return not sum(x.rows[i][i] for i in range(x.size))


# ---------------------------------------------------------------------------
# Text format: row-major, semicolon-separated rows, comma-separated entries
# ---------------------------------------------------------------------------

def format_matrix(m):
    return ";".join(",".join(format_scalar(x) for x in r) for r in m.rows)
