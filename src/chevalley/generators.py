"""Chevalley-style generators for Sp(2n,R) and SL(2n,K), K = R or C.

The symplectic family takes one parameter per root; the special-linear
families take two parameters on the short roots ±L_i±L_j (whose restricted
root spaces are 2-dimensional, components delta = 1, 2) and one on ±2L_i.

Root-space entry tables (1-based matrix positions, e_{k,l}):

  sp:  f_{L_i+L_j}  = e_{i,j+n} + e_{j,i+n}      (i < j)
       f_{L_i-L_j}  = e_{i,j}   - e_{j+n,i+n}    (i != j)
       f_{-L_i-L_j} = e_{j+n,i} + e_{i+n,j}      (i < j)
       f_{2L_i}     = e_{i,i+n}
       f_{-2L_i}    = e_{i+n,i}
  sl:  component 1 / component 2 of the same positions, with the
       L_i-L_j second component carrying + sign: t1*e_{i,j} + t2*e_{j+n,i+n}.

The -2L_i space sits at the transpose position e_{i+n,i} of the 2L_i space;
this is forced by Lie-algebra membership (the lower-left block of sp(2n) is
symmetric) and by the -2L_i weight under the torus.

Every f here squares to zero, so x_r = exp f_r = I + f_r exactly; w and h
are built from the standard words w_r(t) = x_r(t) x_{-r}(-1/t) x_r(t) and
h_r(t) = w_r(t) w_r(ref)^{-1} with ref the all-ones parameter of the same
zero pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .matrices import (ExactMatrix, exp_nilpotent, mat_inv, mat_mul, mat_prod,
                       matrix_to_delta)
from .roots import Root, build_root_system
from .scalars import (GAUSSIAN, coerce, format_scalar, join_mode, mode_of,
                      parse_scalar, read_list)

FAMILIES = ("sp", "sl-r", "sl-c")


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GroupModel:
    """Group family and rank; matrices are 2n x 2n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GeneratorError("unknown family %r" % (self.family,))
        if self.n < 2:
            raise GeneratorError("rank must be at least 2, got %d" % self.n)

    @property
    def size(self):
        return 2 * self.n

    @property
    def is_sp(self):
        return self.family == "sp"

    def param_arity(self, root):
        """Number of scalar parameters an x-letter on this root takes."""
        if self.is_sp or root.restricted_tag is not None or root.is_long:
            return 1
        return 2

    def check_params(self, root, params):
        """Check and normalize the parameters of an x-letter on root.

        The one parameter validator.  The root's rank must be the model's.
        Arity: one on sp, long and tagged roots, two on sl short roots;
        root=None checks a value list (a grid).
        ints become Fractions; no mode is widened.  Domain: rationals and
        Laurent polynomials over Q on every model, Gaussian values on sl-c
        only.  A tuple never mixes Gaussian values with symbols.
        """
        if not isinstance(params, tuple):
            params = tuple(params) if isinstance(params, list) else (params,)
        if root is not None:
            if root.n != self.n:
                raise GeneratorError("root rank %d does not match model rank %d"
                                     % (root.n, self.n))
            if root.restricted_tag is not None and self.is_sp:
                raise GeneratorError("restricted tags only on sl x-letters")
            arity = self.param_arity(root)
            if len(params) != arity:
                raise GeneratorError("root %s takes %d parameter(s) in %s, got %d"
                                     % (root, arity, self.family, len(params)))
        for p in params:
            if type(p) is not Fraction:
                break
        else:
            return params
        params = tuple(Fraction(p) if isinstance(p, int) else p for p in params)
        if join_mode(mode_of(p) for p in params) == GAUSSIAN and \
                self.family != "sl-c":
            raise GeneratorError("%s parameters cannot be gaussian scalars"
                                 % self.family)
        return params

    def __str__(self):
        return "%s n=%d" % (self.family, self.n)


def _canonical_indices(root):
    """(kind, i, j) with kind in {'diff', 'sum', 'negsum', 'long', 'neglong'}.

    'diff' means L_i - L_j (any order of magnitude, i != j); the paired-sign
    kinds use i < j.
    """
    c = root.coeffs
    idx = root.support
    if root.is_long:
        i = idx[0]
        return ("long", i, None) if c[i - 1] > 0 else ("neglong", i, None)
    i, j = idx
    si, sj = c[i - 1], c[j - 1]
    if si == 1 and sj == -1:
        return ("diff", i, j)
    if si == -1 and sj == 1:
        return ("diff", j, i)
    if si == 1 and sj == 1:
        return ("sum", i, j)
    return ("negsum", i, j)


@lru_cache(maxsize=None)
def root_entry_positions(model, root):
    """Entry positions of the root space, with signs.

    Returns a list of (row, col, sign) triples; for sp the signs scale the
    single parameter, for sl each triple is one restricted component (the
    sl signs are all +1).
    """
    n = model.n
    kind, i, j = _canonical_indices(root)
    if kind == "long":
        return [(i, i + n, 1)]
    if kind == "neglong":
        return [(i + n, i, 1)]
    if kind == "diff":
        sign2 = -1 if model.is_sp else 1
        return [(i, j, 1), (j + n, i + n, sign2)]
    if kind == "sum":
        return [(i, j + n, 1), (j, i + n, 1)]
    return [(j + n, i, 1), (i + n, j, 1)]


def letter_positions(model, root):
    """The (row, col, sign) triples of root_entry_positions that f_r fills:
    all of them, or the one tagged component on a tagged root."""
    positions = root_entry_positions(model, root.untagged())
    tag = root.restricted_tag
    return positions if tag is None else positions[tag - 1:tag]


def gen_f(model, root, params):
    """The root-space element f_r(params), one component on a tagged root."""
    params = model.check_params(root, params)
    positions = letter_positions(model, root)
    entries = {}
    if len(params) == 1:
        t = params[0]
        for (r, c, s) in positions:
            entries[(r, c)] = t if s == 1 else -t
    else:
        for p, (r, c, _s) in zip(params, positions):
            entries[(r, c)] = p
    return ExactMatrix.sparse(model.size, entries)


@dataclass(frozen=True)
class MonomialForm:
    """Permutation-times-diagonal decomposition p(pi) * diag(d).

    perm[j-1] = pi(j), 1-based; the matrix has column j equal to
    d_j * e_{pi(j)} ("the i,j entry of p(pi) is 1 if i = pi(j)").
    """

    perm: tuple
    diag: tuple

    def to_matrix(self, mode=None):
        return ExactMatrix.sparse(
            len(self.perm),
            {(pj, j): dj for j, (pj, dj) in enumerate(zip(self.perm, self.diag),
                                                      start=1)}, mode)

    def delta(self):
        """The sparse delta M - I, zero entries pruned, read off the form
        with no dense matrix."""
        out = {}
        for j, (i, d) in enumerate(zip(self.perm, self.diag), start=1):
            if i != j:
                out[(i, j)], out[(j, j)] = d, Fraction(-1)
            elif d != 1:
                out[(j, j)] = d - 1
        return out

    @staticmethod
    def from_delta(delta, size):
        """The form of I + delta, read off the sparse entries with no dense
        matrix.  Raises GeneratorError unless I + delta is monomial."""
        one = Fraction(1)
        cols = [{j: one} for j in range(1, size + 1)]
        for (i, j), v in delta.items():
            v = v + 1 if i == j else v
            if v:
                cols[j - 1][i] = v
            else:
                cols[j - 1].pop(i, None)
        if any(len(col) != 1 for col in cols) or \
                len({i for col in cols for i in col}) != size:
            raise GeneratorError("I + delta is not monomial")
        perm, diag = zip(*(entry for col in cols for entry in col.items()))
        return MonomialForm(perm, diag)


# ---------------------------------------------------------------------------
# Letters
# ---------------------------------------------------------------------------

_LETTER = re.compile(r"\s*(\S+)\s+([^()]*)\(([^()]*)\)\s*\Z")


def read_letter(text):
    """(kind, root, params) of the letter text "kind root (p1, ..., pk)".

    The one reader of the letter format: one pair of parentheses closes
    the text around a list (read_list) of scalars.  Any other text, blank
    text included, raises GeneratorError, RootError or ScalarError; the
    caller checks kind and arity.
    """
    match = _LETTER.match(text)
    if match is None:
        raise GeneratorError("want 'kind root (p1, ..., pk)', got %r" % text)
    kind, root_txt, params_txt = match.groups()
    return kind, Root.parse(root_txt), tuple(read_list(params_txt, ",",
                                                       parse_scalar))


@dataclass(frozen=True)
class GeneratorLetter:
    """One generator occurrence: kind x/w/h, root, parameter tuple.

    A restricted tag on the root of an x-letter selects one component of a
    2-dimensional sl root space; the letter then takes a single parameter.
    """

    model: GroupModel
    kind: str
    root: Root
    params: tuple

    def __post_init__(self):
        if self.kind not in ("x", "w", "h"):
            raise GeneratorError("letter kind must be x, w or h")
        if self.kind != "x" and self.root.restricted_tag is not None:
            raise GeneratorError("restricted tags only on sl x-letters")
        params = self.model.check_params(self.root, self.params)
        if self.kind != "x":
            if not any(params):
                raise GeneratorError("w/h letters need a nonzero parameter")
        object.__setattr__(self, "params", params)

    def matrix(self):
        return _letter_matrix(self.model, self.kind, self.root,
                              *with_mode(self.params))

    def inverse(self):
        if self.kind in ("x", "w"):
            return GeneratorLetter(self.model, self.kind, self.root,
                                   tuple(-p for p in self.params))
        inv = tuple((1 / p) if p else p for p in self.params)
        return GeneratorLetter(self.model, self.kind, self.root, inv)

    def format(self):
        return "%s %s (%s)" % (self.kind, self.root.format(),
                               ", ".join(format_scalar(p) for p in self.params))

    @staticmethod
    def parse(text, model):
        return GeneratorLetter(model, *read_letter(text))

    def __str__(self):
        return self.format()


def w_factors(root, params):
    """The x-factors (root, params) of w_r(t) = x_r(t) x_{-r}(-1/t) x_r(t).

    The one definition of the w-word; a zero slot stays zero.
    """
    neg_inv = tuple((-(1 / p)) if p else p for p in params)
    return ((root, params), (-root, neg_inv), (root, params))


def h_reference(params):
    """The all-ones parameter with the zero pattern of params, the ref of
    h_r(t) = w_r(t) w_r(ref)^{-1}; w_r(ref)^{-1} = w_r(-ref)."""
    return tuple(coerce(1, mode_of(p)) if p else p for p in params)


def with_mode(params):
    """(params, their joined mode): the key of every letter cache, since
    params equal across modes hash alike but cached entries keep a mode."""
    params = tuple(params)
    return params, join_mode(mode_of(p) for p in params)


@lru_cache(maxsize=65536)
def _letter_matrix(model, kind, root, params, mode):
    if kind == "x":
        return exp_nilpotent(gen_f(model, root, params))
    if kind == "w":
        return _w_word_matrix(model, root, params)
    return mat_mul(_w_word_matrix(model, root, params),
                   mat_inv(_w_word_matrix(model, root, h_reference(params))))


def _w_word_matrix(model, root, params):
    return mat_prod(_letter_matrix(model, "x", r, *with_mode(p))
                    for r, p in w_factors(root, params))


def gen_x(model, root, params):
    """Unipotent generator x_r(params) = exp f_r(params)."""
    return GeneratorLetter(model, "x", root, params).matrix()


def gen_w(model, root, params):
    """Weyl representative w_r(params) with its monomial decomposition."""
    letter = GeneratorLetter(model, "w", root, params)
    m = letter.matrix()
    form = MonomialForm.from_delta(matrix_to_delta(m), m.size)
    if form.to_matrix(m.mode) != m:
        raise GeneratorError("monomial decomposition failed to round-trip")
    return m, form


def gen_h(model, root, params):
    """Torus element h_r(params) = w_r(params) w_r(reference)^{-1}."""
    letter = GeneratorLetter(model, "h", root, params)
    m = letter.matrix()
    if not m.is_diagonal():
        raise GeneratorError("h element is not diagonal")
    return m


def gen_h_literal(model, root, params):
    """h via the literal two-factor displays: w(params) * w(-reference).

    Provided for comparison with gen_h; the two coincide exactly because
    w_r(-ref) = w_r(ref)^{-1}.
    """
    params = model.check_params(root, params)
    neg_ref = tuple(-p for p in h_reference(params))
    return mat_mul(_w_word_matrix(model, root, params),
                   _w_word_matrix(model, root, neg_ref))


def h_word_letters(model, root, params):
    """The defining word of h_r(params) as six x-letters."""
    params = model.check_params(root, params)
    return w_word_letters(model, root, params) + \
        w_word_letters(model, root, tuple(-p for p in h_reference(params)))


def w_word_letters(model, root, params):
    """The defining word of w_r(params) as three x-letters."""
    params = model.check_params(root, params)
    return [GeneratorLetter(model, "x", r, p)
            for r, p in w_factors(root, params)]


# ---------------------------------------------------------------------------
# Matrix-position <-> restricted-component lookup (sl models)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def position_component_table(n):
    """Map (row, col), row != col, to (root, delta) for rank n (size 2n):
    the inverse of the sl root_entry_positions over all roots."""
    model = GroupModel("sl-r", n)
    return {(row, col): (root, delta)
            for root in build_root_system(n).roots
            for delta, (row, col, _s) in enumerate(
                root_entry_positions(model, root), start=1)}
