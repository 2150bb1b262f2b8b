"""Words over generator letters, stability, and reduction to the trivial word.

A word is an ordered sequence of x-letters; its evaluation is the ordered
matrix product, and a word is a cycle when that product is the identity.
Reduction rewrites a cycle to the empty word through moves that preserve the
evaluation exactly:

* free cancellation of adjacent inverse letters;
* relation substitutions (additivity merges, commutator/trivial-commutator
  swaps, and the h-multiplicativity template, which recognizes the 12-letter
  word h(t1) h(t2) h(t1*t2)^{-1} collapses to);
* conjugation pushes: when an inner subword between inverse letters is
  itself a cycle, it is reduced recursively and the conjugating pair
  cancels, implementing the inductive conjugation cancellation.

Every move carries a stability tag: Stable(witness) when the roots it
touches admit a common strictly-contracting element on the given region,
found by the arrangement solver, else Unstable (the h-multiplicativity
template always is, since it touches an antipodal pair).

Two letter systems share the engine: the restricted root system of a group
model, and the standard special-linear system of elementary matrices
I + t e_{k,l} on an even-size ambient (used for bracket decompositions of
non-stable generators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangements import find_stable_element
from .generators import GeneratorLetter
from .matrices import mat_prod
from .relations import (delta_to_matrix, delta_word,
                        fit_structure_functions, h_delta, w_delta, x_delta)
from .roots import Root, build_root_system
from .scalars import format_scalar, parse_scalar


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
        k, l = _diff_indices(root)
        (t,) = params
        return ElementaryLetter(self.size, k, l, t)

    def letter_delta(self, letter):
        return letter.delta()

    def functional(self, letter):
        return letter.root

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

    def commutator_value(self, p, p_params, q, q_params):
        lp = self.letter(p, p_params)
        lq = self.letter(q, q_params)
        return delta_word([lp.delta(), lq.delta(),
                           lp.inverse().delta(), lq.inverse().delta()])


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

    def letter_delta(self, letter):
        if letter.kind == "w":
            return w_delta(self.model, letter.root, letter.params)
        if letter.kind == "h":
            return h_delta(self.model, letter.root, letter.params)
        return x_delta(self.model, letter.root, letter.params)

    def functional(self, letter):
        return letter.root.untagged()

    def summand_pairs(self, target):
        out = []
        for p in self.system.roots:
            q = tuple(t - a for t, a in zip(target.coeffs, p.coeffs))
            if any(q) and self.system.is_root(q):
                out.append((p, self.system.root_at(q)))
        return out

    def unit_params(self, root):
        one = Fraction(1)
        return (one,) * self.model.param_arity(root)

    def commutator_value(self, p, p_params, q, q_params):
        from .relations import commutator_delta
        return commutator_delta(self.model, p, q,
                                tuple(p_params), tuple(q_params))


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

    def eval(self):
        return delta_to_matrix(self.delta(), self.system.size)

    def eval_dense(self):
        """Independent dense-product route (oracle for the delta path)."""
        return mat_prod([l.matrix() for l in self.letters],
                        size=self.system.size)

    def is_cycle(self):
        return not self.delta()

    def format(self):
        return "\n".join(l.format() for l in self.letters)

    @staticmethod
    def parse(text, system):
        letters = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if isinstance(system, RestrictedSystem):
                    letters.append(GeneratorLetter.parse(line, system.model))
                else:
                    bits = line.split(None, 1)
                    if len(bits) != 2 or bits[0] != "x" or "(" not in bits[1]:
                        raise CycleError("want 'x <root> (<param>)'")
                    root_txt, param_txt = bits[1].split("(", 1)
                    root = Root.parse(root_txt)
                    k, l = _diff_indices(root)
                    t = parse_scalar(param_txt.rstrip().rstrip(")"))
                    letters.append(ElementaryLetter(system.size, k, l, t))
            except (ValueError, IndexError) as exc:
                raise CycleError("bad letter on line %d: %s" % (lineno, exc))
        return Word(system, tuple(letters))


def word_eval(word):
    """Exact ordered product of the letter matrices."""
    return word.eval()


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
    roots = []
    seen = set()
    for l in word.letters:
        r = word.system.functional(l)
        if r.coeffs not in seen:
            seen.add(r.coeffs)
            roots.append(r)
    if not roots:
        return Stability(True, _zero_point(word.system, region))
    res = find_stable_element(roots, region=region,
                              ambient_dim=word.system.ambient_dim)
    if res.feasible:
        return Stability(True, res.point)
    return Stability(False)


def _zero_point(system, region):
    from .roots import CartanVector
    dim = region.ambient_dim if region is not None else system.ambient_dim
    return CartanVector((Fraction(0),) * dim)


class _StabilityOracle:
    def __init__(self, system, region):
        self.system = system
        self.region = region
        self.cache = {}

    def of_roots(self, roots):
        key = frozenset(r.coeffs for r in roots)
        if key in self.cache:
            return self.cache[key]
        if not roots:
            st = Stability(True, _zero_point(self.system, self.region))
        else:
            res = find_stable_element(list(roots), region=self.region,
                                      ambient_dim=self.system.ambient_dim)
            st = Stability(True, res.point) if res.feasible else Stability(False)
        self.cache[key] = st
        return st


# ---------------------------------------------------------------------------
# Moves and traces
# ---------------------------------------------------------------------------

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

    def describe(self):
        out = {"kind": self.kind, "position": self.position,
               "removed": [l.format() for l in self.removed],
               "inserted": [l.format() for l in self.inserted],
               "stability": self.stability.describe()}
        if self.relation_id:
            out["relation"] = self.relation_id
        return out


@dataclass(frozen=True)
class ReductionTrace:
    initial: Word
    moves: tuple
    final: Word

    @property
    def reduced_to_empty(self):
        return not self.final.letters

    def replay(self):
        """Re-apply all moves, checking evaluation constancy at every step."""
        letters = self.initial.letters
        reference = self.initial.delta()
        for move in self.moves:
            letters = move.apply(letters)
            current = delta_word([self.initial.system.letter_delta(l)
                                  for l in letters])
            if current != reference:
                raise CycleError("move at position %d changed the evaluation"
                                 % move.position)
        if letters != self.final.letters:
            raise CycleError("trace does not end at the recorded final word")
        return True

    def describe(self):
        return {"initial": [l.format() for l in self.initial.letters],
                "moves": [m.describe() for m in self.moves],
                "final": [l.format() for l in self.final.letters],
                "reduced": self.reduced_to_empty}


@dataclass(frozen=True)
class ReductionFailure:
    trace: ReductionTrace
    reason: str

    reduced_to_empty = False

    def describe(self):
        out = self.trace.describe()
        out["failure"] = self.reason
        return out


# ---------------------------------------------------------------------------
# The reduction engine
# ---------------------------------------------------------------------------

def reduce_cycle(word, region=None, budget=10000):
    """Reduce an identity-evaluating word to the empty word.

    Deterministic stable-first greedy strategy with bounded backtracking:
    length-reducing moves (zero drops, free cancellations, the
    h-multiplicativity template, additivity merges) fire unconditionally;
    commutator swaps are choice points, tried stable-witness-first, and a
    stuck word rewinds to the most recent choice point with untried
    candidates.  The budget counts every applied move, including moves later
    undone.  Returns a ReductionTrace on success or a ReductionFailure with
    the stuck word and partial trace.  A negative budget is an error.
    """
    if budget < 0:
        raise CycleError("budget must be at least 0, got %d" % budget)
    for l in word.letters:
        if l.kind != "x":
            raise CycleError("cycle mode takes x-letters only; got %r"
                             % l.format())
    if not word.is_cycle():
        raise NonCycleError("word does not evaluate to the identity")
    oracle = _StabilityOracle(word.system, region)
    state = _Reducer(word.system, oracle, budget)
    letters = state.run(list(word.letters))
    final = Word(word.system, tuple(letters))
    trace = ReductionTrace(word, tuple(state.moves), final)
    if final.letters:
        return ReductionFailure(trace, state.stuck_reason or "budget exhausted")
    return trace


class _Reducer:
    def __init__(self, system, oracle, budget):
        self.system = system
        self.oracle = oracle
        self.budget = budget
        self.moves = []
        self.stuck_reason = None

    def _emit(self, letters, move):
        self.budget -= 1
        self.moves.append(move)
        return list(move.apply(tuple(letters)))

    _FORCED = ("_zero_drop", "_free_cancel", "_h_mult_template",
               "_additivity_merge")

    def run(self, letters):
        # stack of choice points: (letters, move count, candidates, next idx)
        stack = []
        while True:
            progressed = True
            while letters and self.budget > 0 and progressed:
                progressed = False
                for name in self._FORCED:
                    step = getattr(self, name)(letters)
                    if step is not None:
                        letters = step
                        progressed = True
                        break
                if progressed:
                    continue
                candidates = self._choice_moves(letters)
                if candidates:
                    stack.append((list(letters), len(self.moves),
                                  candidates, 1))
                    letters = self._emit(letters, candidates[0])
                    progressed = True
            if not letters:
                return letters
            if self.budget <= 0:
                self.stuck_reason = "budget exhausted"
                return letters
            # stuck: rewind to the last choice point with untried candidates
            rewound = False
            while stack and self.budget > 0:
                prev, nmoves, candidates, nxt = stack.pop()
                if nxt < len(candidates):
                    del self.moves[nmoves:]
                    stack.append((prev, nmoves, candidates, nxt + 1))
                    letters = self._emit(list(prev), candidates[nxt])
                    rewound = True
                    break
            if not rewound:
                self.stuck_reason = "no applicable move"
                return letters

    def _choice_moves(self, letters):
        """Commutator swaps at every admissible inversion, stable-first,
        followed by conjugation pushes."""
        out = []
        for finder in (self._commutator_sort, self._conjugation_push):
            out.extend(finder(letters))
        out.sort(key=lambda mv: (not mv.stability.stable, mv.position))
        return out

    # -- individual move finders ----------------------------------------

    def _zero_drop(self, letters):
        for i, l in enumerate(letters):
            if not any(l.params):
                move = ReductionMove(
                    "relation-substitution", "additivity", i, (l,), (),
                    self.oracle.of_roots([self.system.functional(l)]))
                return self._emit(letters, move)
        return None

    def _free_cancel(self, letters):
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if _same_root(a, b) and _params_negate(a, b):
                move = ReductionMove(
                    "free-cancellation", None, i, (a, b), (),
                    self.oracle.of_roots([self.system.functional(a)]))
                return self._emit(letters, move)
        return None

    def _additivity_merge(self, letters):
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if _same_root(a, b):
                merged = self.system.letter(
                    a.root, tuple(x + y for x, y in zip(a.params, b.params)))
                move = ReductionMove(
                    "relation-substitution", "additivity", i, (a, b), (merged,),
                    self.oracle.of_roots([self.system.functional(a)]))
                return self._emit(letters, move)
        return None

    def _commutator_sort(self, letters):
        """Swap moves at every adjacent inversion; not yet applied."""
        moves = []
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            ra, rb = a.root, b.root
            if _same_root(a, b):
                continue
            if ra.sort_key() <= rb.sort_key():
                continue
            rsum = tuple(x + y for x, y in zip(ra.coeffs, rb.coeffs))
            if not any(rsum):
                continue  # antipodal pair: blocked
            swap = self._swap_letters(a, b)
            if swap is None:
                continue
            factors, relation_id = swap
            touched = [self.system.functional(a), self.system.functional(b)]
            touched += [self.system.functional(f) for f in factors]
            moves.append(ReductionMove(
                "relation-substitution", relation_id, i, (a, b),
                tuple(factors) + (b, a), self.oracle.of_roots(touched)))
        return moves

    def _swap_letters(self, a, b):
        """x_a x_b -> [x_a, x_b] x_b x_a; factors from the relation database."""
        if isinstance(self.system, StandardSystem):
            comm = self.system.commutator_value(a.root, a.params,
                                                b.root, b.params)
            if not comm:
                return ([], "trivial-commutator")
            if len(comm) == 1:
                ((k, l), v), = comm.items()
                if k != l:
                    return ([ElementaryLetter(self.system.size, k, l, v)],
                            "commutator")
            return None
        model = self.system.model
        ra = a.root.untagged()
        rb = b.root.untagged()
        rsum = tuple(x + y for x, y in zip(ra.coeffs, rb.coeffs))
        if not self.system.system.is_root(rsum):
            return ([], "trivial-commutator")
        if a.root.restricted_tag is not None or b.root.restricted_tag is not None:
            return self._swap_tagged(a, b)
        laws = fit_structure_functions(model, ra, rb)
        factors = []
        for law in laws:
            vals = law.evaluate(a.params, b.params)
            factors.append(self.system.letter(law.target, vals))
        return (factors, "commutator")

    def _swap_tagged(self, a, b):
        """Component letters: compute the commutator delta directly."""
        comm = self.system.commutator_value(a.root, a.params, b.root, b.params)
        if not comm:
            return ([], "trivial-commutator")
        from .generators import recognize_component_letter
        m = delta_to_matrix(comm, self.system.size)
        letter = recognize_component_letter(self.system.model, m)
        if letter is None:
            return None
        return ([letter], "commutator")

    def _h_mult_template(self, letters):
        hit = _match_h_mult(self.system, letters)
        if hit is None:
            return None
        i, span, roots = hit
        move = ReductionMove(
            "relation-substitution", "h-multiplicativity", i,
            tuple(letters[i:i + span]), (), self.oracle.of_roots(roots))
        return self._emit(letters, move)

    def _conjugation_push(self, letters):
        """Cancellation of an inverse pair around an identity-evaluating
        inner subword; not yet applied."""
        moves = []
        for i in range(len(letters) - 1):
            for j in range(len(letters) - 1, i + 1, -1):
                a, b = letters[i], letters[j]
                if not (_same_root(a, b) and _params_negate(a, b)):
                    continue
                inner = letters[i + 1:j]
                inner_delta = delta_word([self.system.letter_delta(l)
                                          for l in inner])
                if inner_delta:
                    continue
                moves.append(ReductionMove(
                    "conjugation-push", None, i, (a,) + tuple(inner) + (b,),
                    tuple(inner), self.oracle.of_roots(
                        [self.system.functional(a)])))
        return moves


def _same_root(a, b):
    return a.root == b.root


def _params_negate(a, b):
    return all(x + y == 0 for x, y in zip(a.params, b.params))


def _match_h_mult(system, letters):
    """Find the 12-letter h(t1) h(t2) h(t1 t2)^{-1} pattern.

    Template over a root r and its negative (parameters shown for the
    one-parameter embedding; sl letters carry the value in one slot with the
    other slot zero throughout):

      x_r(A) x_{-r}(-1/A) x_r(A) | x_r(-1) x_{-r}(1) x_r(-1)
      | x_r(B) x_{-r}(-1/B) x_r(B) | x_r(-AB) x_{-r}(1/(AB)) x_r(-AB)
    """
    size = 12
    for i in range(len(letters) - size + 1):
        window = letters[i:i + size]
        r = window[0].root
        if getattr(r, "restricted_tag", None) is not None:
            continue
        neg = -r
        pattern_roots = [r, neg, r, r, neg, r, r, neg, r, r, neg, r]
        if any(w.root != pr for w, pr in zip(window, pattern_roots)):
            continue
        slot = _value_slot(window[0])
        if slot is None:
            continue
        vals = []
        ok = True
        for w in window:
            v = _slot_value(w, slot)
            if v is None:
                ok = False
                break
            vals.append(v)
        if not ok:
            continue
        a_val = vals[0]
        b_val = vals[6]
        if not a_val or not b_val:
            continue
        s = a_val * b_val
        one = a_val / a_val
        expect = [a_val, -(1 / a_val), a_val, -one, one, -one,
                  b_val, -(1 / b_val), b_val, -s, 1 / s, -s]
        if vals == expect:
            return (i, size, [r, neg])
    return None


def _value_slot(letter):
    nz = [k for k, p in enumerate(letter.params) if p]
    if len(nz) != 1:
        return None
    return nz[0]


def _slot_value(letter, slot):
    if len(letter.params) <= slot:
        return None
    for k, p in enumerate(letter.params):
        if k != slot and p:
            return None
    return letter.params[slot]


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

    def expression(self):
        return "%s = [%s, %s]" % (self.target.format(), self.left.format(),
                                  self.right.format())

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
    for p, q in system.summand_pairs(target_root):
        q_params = system.unit_params(q)
        solved = _solve_left_params(system, p, q, q_params, target_delta)
        if solved is None:
            continue
        left = system.letter(p, solved)
        right = system.letter(q, q_params)
        st_left = _companion_stability(system, p, companions, region)
        st_right = _companion_stability(system, q, companions, region)
        if st_left is None or st_right is None:
            continue
        yield BracketDecomposition(target_letter, left, right,
                                   st_left, st_right)


def bracket_decompose(system, target_letter, region=None, companions=()):
    """First decomposition in enumeration order; raises CycleError listing
    the exhausted pairs when none works."""
    for dec in enumerate_bracket_decompositions(system, target_letter,
                                                region, companions):
        return dec
    pairs = system.summand_pairs(target_letter.root)
    raise CycleError("no bracket decomposition of %s over %d candidate pairs"
                     % (target_letter.format(), len(pairs)))


def _companion_stability(system, root, companions, region):
    roots = [root.untagged() if hasattr(root, "untagged") else root]
    roots += [c if isinstance(c, Root) else Root(tuple(c)) for c in companions]
    res = find_stable_element(roots, region=region,
                              ambient_dim=system.ambient_dim)
    return res.point if res.feasible else None


def _solve_left_params(system, p, q, q_params, target_delta):
    """Parameters a with [x_p(a), x_q(q_params)] matching the target delta.

    Solves slot by slot using the linearity of the top structure law in a,
    then verifies the commutator exactly (which also rules out spill into
    other string factors)."""
    arity = 1
    if isinstance(system, RestrictedSystem):
        arity = system.model.param_arity(p)
    zero = Fraction(0)
    one = Fraction(1)
    basis = []
    for k in range(arity):
        probe = tuple(one if t == k else zero for t in range(arity))
        comm = system.commutator_value(p, probe, q, q_params)
        basis.append(comm)
    # target_delta must be an integer combination ... solve per support entry
    # a = sum c_k probe_k works when the law is linear in a, which holds for
    # single-string targets; verify at the end regardless.
    support = sorted(target_delta)
    if not support:
        return None
    # build candidate coefficients from the first support entry present in
    # some basis commutator
    for combo in _combo_candidates(basis, target_delta, arity):
        comm = system.commutator_value(p, combo, q, q_params)
        if comm == target_delta:
            return combo
    return None


def _combo_candidates(basis, target_delta, arity):
    """Candidate parameter tuples: single-slot solutions then a joint solve."""
    zero = Fraction(0)
    for k, bd in enumerate(basis):
        if not bd:
            continue
        key = next(iter(sorted(bd)))
        if key in target_delta:
            ratio = target_delta[key] / bd[key]
            yield tuple(ratio if t == k else zero for t in range(arity))
    if arity == 2 and basis[0] and basis[1]:
        k0 = next(iter(sorted(basis[0])))
        k1 = next(iter(sorted(basis[1])))
        if k0 != k1 and k0 in target_delta and k1 in target_delta:
            yield (target_delta[k0] / basis[0][k0],
                   target_delta[k1] / basis[1][k1])
