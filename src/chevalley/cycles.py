"""Words over generator letters, stability, and reduction to the trivial word.

A word is an ordered sequence of x-letters; its evaluation is the ordered
matrix product, and a word is a cycle when that product is the identity.
Reduction rewrites a cycle to the empty word through moves that preserve the
evaluation exactly:

* free cancellation of adjacent inverse letters;
* relation substitutions (additivity merges, commutator/trivial-commutator
  swaps, and the h-multiplicativity template, which recognizes the 12-letter
  word h(t1) h(t2) h(t1*t2)^{-1} collapses to: the w-words
  x_r(t) x_{-r}(-1/t) x_r(t) at t = A, -1, B, -AB);
* conjugation pushes: when an inner subword between inverse letters is
  itself a cycle, the conjugating pair cancels and the inner subword stays
  for later moves, implementing the inductive conjugation cancellation.

Every move carries a stability tag: Stable(witness) when the roots it
touches admit a common strictly-contracting element on the given region,
found by the arrangement solver, else Unstable (the h-multiplicativity
template always is, since it touches an antipodal pair).  A conjugation push
touches its conjugator's root; every other move touches the roots of the
letters it removes and inserts.  reduce_cycle returns one ReductionTrace of
these moves, which names its reason when it stops short of the empty word.

Two letter systems share the engine: the restricted root system of a group
model, and the standard special-linear system of elementary matrices
I + t e_{k,l} on an even-size ambient (used for bracket decompositions of
non-stable generators).  The engine asks a system only these questions:

* ``size``/``ambient_dim``: the matrix size and the dimension functionals
  (a letter's untagged root) act on;
* ``letter(root, params)`` and ``parse_letter(line)``: build one x-letter;
* ``letter_delta(letter)``: the sparse delta M - I of a letter;
* ``unit_params(root)``: the all-ones parameters, whose length is the arity;
* ``summand_pairs(target)``: the root pairs (p, q) with p + q = target;
* a letter's ``inverse()``: ``commutator_value`` builds [x_p, x_q] with it;
* ``single_letter(k, l, v)``: the letter I + v e_{k,l}, or None where no
  single letter sits (sp short roots, the diagonal);
* ``swap_factors(a, b)``: the factors of x_a x_b = [x_a, x_b] x_b x_a as
  letters ([] when the pair commutes), or None when the commutator is no
  product of letters the system can name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import find_stable_element
from .generators import (GeneratorLetter, h_reference,
                         position_component_table, read_letter, w_factors)
from .matrices import ExactMatrix, delta_to_matrix, mat_prod, row_reduce
from .relations import (delta_mul, delta_word, fit_structure_functions,
                        h_delta, w_delta, x_delta)
from .roots import CartanVector, Root, build_root_system, root_at
from .scalars import format_scalar, join_mode, mode_of, read_lines


class CycleError(ValueError):
    pass


class NonCycleError(CycleError):
    pass


# ---------------------------------------------------------------------------
# Letter systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryLetter:
    """Elementary unipotent I + t e_{k,l} of the standard linear system."""

    size: int
    k: int
    l: int
    param: object

    kind = "x"

    def __post_init__(self):
        if not (1 <= self.k <= self.size and 1 <= self.l <= self.size):
            raise CycleError("indices out of range")
        if self.k == self.l:
            raise CycleError("elementary letters need distinct indices")
        p = self.param
        object.__setattr__(self, "param",
                           Fraction(p) if isinstance(p, int) else p)

    @property
    def root(self):
        return Root.of(self.size, self.k, self.l, 1, -1)

    @property
    def params(self):
        return (self.param,)

    def matrix(self):
        return delta_to_matrix(self.delta(), self.size)

    def delta(self):
        return {(self.k, self.l): self.param} if self.param else {}

    def inverse(self):
        return ElementaryLetter(self.size, self.k, self.l, -self.param)

    def format(self):
        return "x %s (%s)" % (self.root.format(), format_scalar(self.param))

    def __str__(self):
        return self.format()


class StandardSystem:
    """Elementary letters x_{k,l}(t) with roots L_k - L_l on an even ambient."""

    def __init__(self, size):
        if size < 2 or size % 2:
            raise CycleError("ambient size must be even and at least 2")
        self.size = size
        self.ambient_dim = size

    def letter(self, root, params):
        if root.n != self.size:
            raise CycleError("root %s is not of ambient size %d" % (root, self.size))
        k, l = _diff_indices(root)
        (t,) = params
        return ElementaryLetter(self.size, k, l, t)

    def parse_letter(self, line):
        kind, root, params = read_letter(line)
        if kind != "x" or len(params) != 1 or root.restricted_tag is not None:
            raise CycleError("want 'x <untagged root> (<param>)'")
        return self.letter(root, params)

    def letter_delta(self, letter):
        return letter.delta()

    def summand_pairs(self, target):
        """(p, q) with p + q = target, ordered by the middle index."""
        k, l = _diff_indices(target)
        out = []
        for m in range(1, self.size + 1):
            if m in (k, l):
                continue
            out.append((Root.of(self.size, k, m, 1, -1),
                        Root.of(self.size, m, l, 1, -1)))
        return out

    def unit_params(self, root):
        return (Fraction(1),)

    def single_letter(self, k, l, v):
        return ElementaryLetter(self.size, k, l, v) if k != l else None

    def swap_factors(self, a, b):
        return _single_entry_factors(self, a, b)


def _diff_indices(root):
    pos = [i + 1 for i, c in enumerate(root.coeffs) if c == 1]
    neg = [i + 1 for i, c in enumerate(root.coeffs) if c == -1]
    if len(pos) != 1 or len(neg) != 1 or any(abs(c) > 1 for c in root.coeffs):
        raise CycleError("%s is not an L_k - L_l functional" % root)
    return pos[0], neg[0]


class RestrictedSystem:
    """x-letters of a group model over its restricted root system."""

    def __init__(self, model):
        self.model = model
        self.ambient_dim = model.n
        self.system = build_root_system(model.n)

    @property
    def size(self):
        return self.model.size

    def letter(self, root, params):
        return GeneratorLetter(self.model, "x", root, tuple(params))

    def parse_letter(self, line):
        return GeneratorLetter.parse(line, self.model)

    def letter_delta(self, letter):
        if letter.kind == "w":
            return w_delta(self.model, letter.root, letter.params)
        if letter.kind == "h":
            return h_delta(self.model, letter.root, letter.params)
        return x_delta(self.model, letter.root, letter.params)

    def summand_pairs(self, target):
        out = []
        for p in self.system.roots:
            q = tuple(t - a for t, a in zip(target.coeffs, p.coeffs))
            if any(q) and self.system.is_root(q):
                out.append((p, root_at(q)))
        return out

    def unit_params(self, root):
        return (Fraction(1),) * self.model.param_arity(root)

    def single_letter(self, k, l, v):
        root, delta = position_component_table(self.model.n).get((k, l),
                                                                  (None, 1))
        if root is None or (self.model.is_sp and not root.is_long):
            return None  # sp short-root letters occupy two positions
        if not root.is_long:
            root = Root(root.coeffs, delta)
        return self.letter(root, (v,))

    def swap_factors(self, a, b):
        """Structure-law factors; component letters read the commutator."""
        ra = a.root.untagged()
        rb = b.root.untagged()
        if not self.system.is_root(ra + rb):
            return []
        if a.root.restricted_tag is not None or b.root.restricted_tag is not None:
            return _single_entry_factors(self, a, b)
        return [self.letter(law.target, law.evaluate(a.params, b.params))
                for law in fit_structure_functions(self.model, ra, rb)]


def commutator_value(system, p, p_params, q, q_params):
    """The delta of [x_p, x_q] = x_p x_q x_p^{-1} x_q^{-1} on a letter system."""
    lp, lq = system.letter(p, p_params), system.letter(q, q_params)
    return Word(system, (lp, lq, lp.inverse(), lq.inverse())).delta()


def _single_entry_factors(system, a, b):
    """[x_a, x_b] as at most one letter: [] when trivial, else the letter
    I + v e_{k,l} of a single-entry commutator; None otherwise."""
    comm = commutator_value(system, a.root, a.params, b.root, b.params)
    if not comm:
        return []
    if len(comm) == 1:
        ((k, l), v), = comm.items()
        letter = system.single_letter(k, l, v)
        if letter is not None:
            return [letter]
    return None


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """Ordered x-letter sequence; evaluation is the ordered product."""

    system: object
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def delta(self):
        return delta_word([self.system.letter_delta(l) for l in self.letters])

    def mode(self):
        """The join of the letters' parameter modes, which both evaluation
        routes use; a ScalarError when they do not join."""
        return join_mode(mode_of(p) for l in self.letters for p in l.params)

    def eval(self):
        mode = self.mode()
        return delta_to_matrix(self.delta(), self.system.size, mode)

    def eval_dense(self):
        """Independent dense-product route (oracle for the delta path); each
        letter's matrix is widened to the word's mode."""
        mode = self.mode()
        mats = [l.matrix() for l in self.letters]
        return mat_prod([m if m.mode == mode else ExactMatrix(m.rows, mode)
                         for m in mats], size=self.system.size, mode=mode)

    def is_cycle(self):
        return not self.delta()

    def format(self):
        return "\n".join(l.format() for l in self.letters)

    @staticmethod
    def parse(text, system):
        letters = []
        for lineno, line in read_lines(text):
            try:
                letters.append(system.parse_letter(line))
            except ValueError as exc:
                raise CycleError("bad letter on line %d: %s" % (lineno, exc))
        word = Word(system, tuple(letters))
        try:
            word.mode()
        except ValueError as exc:
            raise CycleError("word mixes scalar modes: %s" % exc)
        return word


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stability:
    stable: bool
    witness: object = None   # CartanVector when stable

    def describe(self):
        if self.stable:
            return {"stable": True, "witness": [str(c) for c in self.witness]}
        return {"stable": False}


def is_stable_word(word, region=None):
    """Common strictly-negative element for all letter roots on the region."""
    return _stability({}, word.system, region,
                      [l.root.untagged() for l in word.letters])


def _stability(memo, system, region, roots):
    """Stability of a list of functionals on the region, memoized in the
    caller's dict on the set of functionals, so duplicates and order drop
    out; a root is read as its coefficients, so a restricted tag drops out
    too.  The set is solved in sorted order; the witness does not depend on
    that order, since the row-merged elimination keeps one canonical row per
    direction."""
    key = frozenset(r.coeffs for r in roots)
    st = memo.get(key)
    if st is None:
        if not key:
            dim = (region.ambient_dim if region is not None
                   else system.ambient_dim)
            st = Stability(True, CartanVector((Fraction(0),) * dim))
        else:
            res = find_stable_element(sorted(key), region=region,
                                      ambient_dim=system.ambient_dim)
            st = Stability(True, res.point) if res.feasible \
                else Stability(False)
        memo[key] = st
    return st


# ---------------------------------------------------------------------------
# Moves and traces
# ---------------------------------------------------------------------------

def _letter_texts():
    """A map from a letter tuple to the letters' texts that formats each
    letter object once.  Moves insert and remove the same letter objects,
    so one map across a trace formats each of them once."""
    seen = {}   # id -> (letter, text); holding the letter pins its id

    def texts(letters):
        out = []
        for l in letters:
            hit = seen.get(id(l))
            if hit is None:
                hit = seen[id(l)] = (l, l.format())
            out.append(hit[1])
        return out
    return texts


@dataclass(frozen=True)
class ReductionMove:
    kind: str                 # free-cancellation | relation-substitution
    #                         | conjugation-push
    relation_id: str | None
    position: int
    removed: tuple
    inserted: tuple
    stability: Stability

    def apply(self, letters):
        pos = self.position
        if tuple(letters[pos:pos + len(self.removed)]) != self.removed:
            raise CycleError("move does not match the word at position %d" % pos)
        return letters[:pos] + self.inserted + letters[pos + len(self.removed):]

    def describe(self, texts=None):
        """The move as a dict; texts, when given, maps a letter tuple to
        the letters' texts (ReductionTrace.describe shares one)."""
        texts = texts or _letter_texts()
        out = {"kind": self.kind, "position": self.position,
               "removed": texts(self.removed),
               "inserted": texts(self.inserted),
               "stability": self.stability.describe()}
        if self.relation_id:
            out["relation"] = self.relation_id
        return out


@dataclass(frozen=True)
class ReductionTrace:
    """The moves from initial to final; reason: why final is not empty."""

    initial: Word
    moves: tuple
    final: Word
    reason: str | None = None

    @property
    def reduced_to_empty(self):
        return not self.final.letters

    def replay(self):
        """Re-apply all moves, checking evaluation constancy at every step."""
        letters = self.initial.letters
        reference = self.initial.delta()
        for move in self.moves:
            letters = move.apply(letters)
            if Word(self.initial.system, letters).delta() != reference:
                raise CycleError("move at position %d changed the evaluation"
                                 % move.position)
        if letters != self.final.letters:
            raise CycleError("trace does not end at the recorded final word")
        return True

    def describe(self):
        texts = _letter_texts()
        out = {"initial": texts(self.initial.letters),
               "moves": [m.describe(texts) for m in self.moves],
               "final": texts(self.final.letters),
               "reduced": self.reduced_to_empty}
        if self.reason is not None:
            out["failure"] = self.reason
        return out


# ---------------------------------------------------------------------------
# The reduction engine
# ---------------------------------------------------------------------------

def reduce_cycle(word, region=None, budget=10000):
    """Reduce an identity-evaluating word to the empty word.

    Deterministic stable-first greedy strategy in one forward pass:
    length-reducing moves (zero drops, free cancellations, the
    h-multiplicativity template, additivity merges) fire unconditionally;
    when none applies, the first choice move does.  Choice moves are
    commutator swaps and conjugation pushes, ordered stable first, then by
    position; at one position the pushes come before the swap, those with
    the farthest partner first, so a conjugator u ... u^{-1} around a cycle
    is removed before the swaps inside it are tried.  Candidates are built
    and tagged on demand, only up to the first stable one.  Every applied
    move is in the trace.  The pass stops with "budget exhausted" once the
    trace holds ``budget`` moves, and with "no applicable move" when no move
    applies.  Either way it returns the ReductionTrace, whose reason is None
    exactly when it reached the empty word.  A negative budget is an error.
    """
    if budget < 0:
        raise CycleError("budget must be at least 0, got %d" % budget)
    for l in word.letters:
        if l.kind != "x":
            raise CycleError("cycle mode takes x-letters only; got %r"
                             % l.format())
    word.mode()   # a ScalarError on mixed modes, before the delta's TypeError
    if not word.is_cycle():
        raise NonCycleError("word does not evaluate to the identity")
    state = _Reducer(word.system, region, budget)
    final = Word(word.system, state.run(word.letters))
    return ReductionTrace(word, tuple(state.moves), final, state.stuck_reason)


class _Reducer:
    def __init__(self, system, region, budget):
        self.system = system
        self.region = region
        self.budget = budget
        self.moves = []
        self.stuck_reason = None
        # adjacent pair (a, b) -> (relation id, factor letters) or None
        self.swaps = {}
        # root set -> Stability, for this reduction only
        self.stabilities = {}

    def run(self, letters):
        while letters:
            if len(self.moves) >= self.budget:
                self.stuck_reason = "budget exhausted"
                break
            move = self._forced(letters)
            if move is None:
                move = next(self._choice_moves(letters), None)
            if move is None:
                self.stuck_reason = "no applicable move"
                break
            self.moves.append(move)
            letters = move.apply(letters)
        return letters

    def _move(self, kind, relation_id, i, removed, inserted, touched):
        """The move at position i, tagged with the stability of the roots
        of the letters it touches."""
        return ReductionMove(kind, relation_id, i, removed, inserted,
                             _stability(self.stabilities, self.system,
                                        self.region,
                                        [l.root for l in touched]))

    def _forced(self, letters):
        """The first length-reducing move, in priority order: a zero drop,
        a free cancellation, the h-multiplicativity template, an additivity
        merge; None when none applies."""
        for i, l in enumerate(letters):
            if not any(l.params):
                return self._move("relation-substitution", "additivity", i,
                                  (l,), (), (l,))
        merge = None
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a.root == b.root:
                if _params_negate(a, b):
                    return self._move("free-cancellation", None, i, (a, b),
                                      (), (a, b))
                if merge is None:
                    merge = i
        i = _match_h_mult(letters)
        if i is not None:
            window = letters[i:i + _H_MULT_SPAN]
            return self._move("relation-substitution", "h-multiplicativity",
                              i, window, (), window)
        if merge is not None:
            a, b = letters[merge], letters[merge + 1]
            merged = self.system.letter(
                a.root, tuple(x + y for x, y in zip(a.params, b.params)))
            return self._move("relation-substitution", "additivity", merge,
                              (a, b), (merged,), (a, b, merged))
        return None

    def _choice_moves(self, letters):
        """Commutator swaps and conjugation pushes, generated on demand:
        stable moves as the walk meets them, unstable ones after it."""
        unstable = []
        for move in self._choice_walk(letters):
            if move.stability.stable:
                yield move
            else:
                unstable.append(move)
        yield from unstable

    def _choice_walk(self, letters):
        """Positions left to right: pushes in descending j, then the swap."""
        at_root = {}
        for k, l in enumerate(letters):
            at_root.setdefault(l.root, []).append(k)
        before = _PrefixProducts(self.system, letters)
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            for j in reversed(at_root[a.root]):
                if j <= i + 1:
                    break
                c = letters[j]
                # letters[i+1:j] is the identity iff the products before
                # i+1 and before j agree
                if not _params_negate(a, c) or before[i + 1] != before[j]:
                    continue
                inner = letters[i + 1:j]
                yield self._move("conjugation-push", None, i,
                                 (a,) + inner + (c,), inner, (a, c))
            swap = self._swap(a, b)
            if swap is not None:
                relation_id, factors = swap
                yield self._move("relation-substitution", relation_id, i,
                                 (a, b), factors + (b, a), (a, b) + factors)

    def _swap(self, a, b):
        """x_a x_b -> [x_a, x_b] x_b x_a at an inversion, memoized per pair:
        (relation id, the commutator's factor letters), or None."""
        key = (a, b)
        if key in self.swaps:
            return self.swaps[key]
        out = None
        ra, rb = a.root, b.root
        # only pairs out of root order swap; antipodal pairs are blocked
        if ra.sort_key() > rb.sort_key() and any(ra + rb):
            factors = self.system.swap_factors(a, b)
            if factors is not None:
                out = ("commutator" if factors else "trivial-commutator",
                       tuple(factors))
        self.swaps[key] = out
        return out


class _PrefixProducts:
    """before[k] is the delta of letters[:k]; each is built on demand with
    one delta_mul from the one before it."""

    def __init__(self, system, letters):
        self.system = system
        self.letters = letters
        self.deltas = [{}]

    def __getitem__(self, k):
        deltas = self.deltas
        while len(deltas) <= k:
            l = self.letters[len(deltas) - 1]
            deltas.append(delta_mul(deltas[-1], self.system.letter_delta(l)))
        return deltas[k]


def _params_negate(a, b):
    return all(x + y == 0 for x, y in zip(a.params, b.params))


_H_MULT_SPAN = 12


def _match_h_mult(letters):
    """The start of the first 12-letter h(t1) h(t2) h(t1 t2)^{-1} window,
    or None.

    The w-words w_r(t) = x_r(t) x_{-r}(-1/t) x_r(t) at t = A, -1, B, -AB over
    an untagged root r; sl letters carry the value in one slot with the other
    slot zero throughout.  A window is rejected on its roots before any value
    is computed, and on its values before any is inverted: t must be a unit,
    t * (-1/t) = -1, so a merged sum such as a+b never matches.
    """
    for i in range(len(letters) - _H_MULT_SPAN + 1):
        r = letters[i].root
        if r.restricted_tag is not None or letters[i + 2].root != r:
            continue
        neg = letters[i + 1].root
        if neg.restricted_tag is not None or any(neg + r):
            continue
        window = letters[i:i + _H_MULT_SPAN]
        if any(w.root != pr for w, pr in zip(window, (r, neg, r) * 4)):
            continue
        params = window[0].params
        slots = [k for k, p in enumerate(params) if p]
        if len(slots) != 1:
            continue
        slot = slots[0]
        a_val = params[slot]
        b_val = window[6].params[slot]
        if a_val * window[1].params[slot] != -1 or \
                b_val * window[7].params[slot] != -1:
            continue
        neg_ref = tuple(-p for p in h_reference(params))
        b_params, ab_params = (params[:slot] + (v,) + params[slot + 1:]
                               for v in (b_val, -(a_val * b_val)))
        expect = [p for t in (params, neg_ref, b_params, ab_params)
                  for _r, p in w_factors(r, t)]
        if [w.params for w in window] == expect:
            return i
    return None


# ---------------------------------------------------------------------------
# Bracket decomposition of non-stable generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketDecomposition:
    """target = [x_p(params_p), x_q(units)], with stability witnesses for
    {p} u companions and {q} u companions on the region."""

    target: object
    left: object
    right: object
    witness_left: object
    witness_right: object

    def describe(self):
        return {"target": self.target.format(),
                "left": self.left.format(),
                "right": self.right.format(),
                "witness_left": [str(c) for c in self.witness_left],
                "witness_right": [str(c) for c in self.witness_right]}


def enumerate_bracket_decompositions(system, target_letter, region=None,
                                     companions=()):
    """All pairs (p, q), p+q = target root, with [x_p(.), x_q(1)] equal to
    the target matrix exactly and both sides stabilizable with companions."""
    target_root = target_letter.root
    target_delta = system.letter_delta(target_letter)
    companions = [c if isinstance(c, Root) else Root(tuple(c))
                  for c in companions]
    memo = {}
    for p, q in system.summand_pairs(target_root):
        q_params = system.unit_params(q)
        solved = _solve_left_params(system, p, q, q_params, target_delta)
        if solved is None:
            continue
        left = system.letter(p, solved)
        right = system.letter(q, q_params)
        st_left = _stability(memo, system, region,
                             [p.untagged()] + companions)
        st_right = _stability(memo, system, region,
                              [q.untagged()] + companions)
        if not (st_left.stable and st_right.stable):
            continue
        yield BracketDecomposition(target_letter, left, right,
                                   st_left.witness, st_right.witness)


def bracket_decompose(system, target_letter, region=None, companions=()):
    """First decomposition in enumeration order; raises CycleError listing
    the exhausted pairs when none works."""
    for dec in enumerate_bracket_decompositions(system, target_letter,
                                                region, companions):
        return dec
    pairs = system.summand_pairs(target_letter.root)
    raise CycleError("no bracket decomposition of %s over %d candidate pairs"
                     % (target_letter.format(), len(pairs)))


def _solve_left_params(system, p, q, q_params, target_delta):
    """Parameters a with [x_p(a), x_q(q_params)] matching the target delta.

    The top structure law is linear in a, so a solves one linear system:
    one row per matrix entry, the commutators at the unit probes a = e_k as
    its columns and the target as its right-hand side.  One row_reduce
    solves it; free slots stay 0 and an inconsistent system has no
    solution.  The commutator is then checked exactly, which also rules out
    spill into other string factors."""
    if not target_delta:
        return None
    arity = len(system.unit_params(p))
    zero, one = Fraction(0), Fraction(1)
    basis = [commutator_value(system, p, tuple(one if t == k else zero
                                               for t in range(arity)),
                              q, q_params) for k in range(arity)]
    rows = [[b.get(e, zero) for b in basis] + [target_delta.get(e, zero)]
            for e in sorted(set(target_delta).union(*basis))]
    rref, pivots, _det = row_reduce(rows, arity)
    if any(row[arity] for row in rref[len(pivots):]):
        return None
    a = [zero] * arity
    for row, col in zip(rref, pivots):
        a[col] = row[arity]
    a = tuple(a)
    return a if commutator_value(system, p, a, q, q_params) == target_delta \
        else None
