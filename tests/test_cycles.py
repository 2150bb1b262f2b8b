"""Cycle words: evaluation, stability, reduction traces, bracket splitting."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from chevalley import cycles
from chevalley.arrangements import Plane, find_stable_element
from chevalley.generators import (GeneratorLetter, GroupModel, gen_h, gen_x,
                                  h_word_letters)
from chevalley.matrices import ExactMatrix, delta_to_matrix, mat_mul
from chevalley.cycles import (CycleError, ElementaryLetter, NonCycleError,
                              ReductionTrace, RestrictedSystem,
                              StandardSystem, Word,
                              bracket_decompose, commutator_value,
                              enumerate_bracket_decompositions, is_stable_word,
                              reduce_cycle)
from chevalley.cycles import (ReductionMove, _match_h_mult, _PrefixProducts,
                              _Reducer, _stability)
from chevalley.relations import delta_word, fit_structure_functions, h_delta
from chevalley.roots import Root, build_root_system, standard_sl_roots
from chevalley.scalars import (GaussianRational, LaurentFrac, ScalarError,
                               parse_scalar)

F = Fraction
SP2 = GroupModel("sp", 2)
SL2 = GroupModel("sl-r", 2)
SL3 = GroupModel("sl-r", 3)


def rsys(model):
    return RestrictedSystem(model)


def hmult_word(model, r, t1, t2):
    """h(t1) h(t2) h(t1 t2)^{-1} as raw letters (18 before cancellation)."""
    if model.is_sp:
        p1, p2, p12 = (t1,), (t2,), (t1 * t2,)
    else:
        z = F(0)
        p1, p2, p12 = (t1, z), (t2, z), (t1 * t2, z)
    letters = (h_word_letters(model, r, p1) + h_word_letters(model, r, p2)
               + [l.inverse() for l in reversed(h_word_letters(model, r, p12))])
    return Word(rsys(model), tuple(letters))


class TestWordEval:
    def test_empty_word_is_identity(self):
        w = Word(rsys(SP2), ())
        assert w.eval() == ExactMatrix.identity(4)

    def test_inverse_pair(self):
        sys_ = rsys(SP2)
        l = sys_.letter(Root.of(2, 1), (F(3),))
        assert Word(sys_, (l, l.inverse())).eval() == ExactMatrix.identity(4)

    def test_h_defining_word_evaluates_to_diagonal(self):
        r = Root.of(2, 1, 2, 1, -1)
        letters = h_word_letters(SP2, r, (F(7),))
        w = Word(rsys(SP2), tuple(letters))
        assert w.eval() == gen_h(SP2, r, (F(7),))

    def test_dense_route_agrees(self):
        sys_ = rsys(SL2)
        letters = (sys_.letter(Root.of(2, 1, 2, 1, -1), (F(2), F(3))),
                   sys_.letter(Root.of(2, 1), (F(-1),)),
                   sys_.letter(Root.of(2, 1, 2, 1, 1), (F(1, 2), F(0))))
        w = Word(sys_, letters)
        assert w.eval() == w.eval_dense()

    def test_mixed_rational_and_symbolic_letters(self):
        # the matrix takes the join of every entry's mode, not the first's
        w = Word.parse("x 1,-1 (1)\nx 0,2 (a)", rsys(SP2))
        a = LaurentFrac.symbol("a")
        expected = mat_mul(gen_x(SP2, Root.of(2, 1, 2, 1, -1),
                                 (LaurentFrac(1),)),
                           gen_x(SP2, Root.of(2, 2), (a,)))
        assert w.eval() == expected
        assert expected.mode == "laurent"

    def test_dense_route_widens_mixed_letters(self):
        # the rational letter's dense matrix is widened to the word's mode
        w = Word.parse("x 1,-1 (1)\nx 0,2 (a)", rsys(SP2))
        assert w.eval_dense() == w.eval()
        assert w.eval_dense().mode == "laurent"

    @pytest.mark.parametrize("model, wide, text", [
        (SP2, (LaurentFrac.symbol("a"),), "w 1,-1 (-1)"),
        (GroupModel("sl-c", 2), (GaussianRational(2), GaussianRational(0)),
         "w 1,-1 (-1, 0)"),
    ], ids=["sp", "sl-c"])
    def test_rational_word_after_a_wider_h_delta(self, model, wide, text):
        # h_delta of wide params caches w_delta(-reference), whose params
        # equal the rational letter's; the rational word must stay rational
        h_delta(model, Root.of(2, 1, 2, 1, -1), wide)
        w = Word.parse(text, rsys(model))
        assert w.eval().mode == "rational"
        assert w.eval() == w.eval_dense()

    def test_parse_format_round_trip(self):
        sys_ = rsys(SL2)
        text = "x 1,-1 (2, 3)\nx 2,0 (-1)\n"
        w = Word.parse(text, sys_)
        assert len(w) == 2
        assert Word.parse(w.format(), sys_).letters == w.letters

    def test_symbolic_cycle_evaluates_in_laurent_mode(self):
        # the delta of a cycle is empty, so the word's mode, not the delta's
        # entries, decides the matrix: both routes give the Laurent identity
        sys_ = rsys(SP2)
        l = sys_.letter(Root.of(2, 1, 2, 1, -1), (LaurentFrac.symbol("a"),))
        w = Word(sys_, (l, l.inverse()))
        assert w.mode() == "laurent"
        assert w.eval().mode == "laurent"
        assert w.eval() == w.eval_dense()
        assert w.eval() == ExactMatrix.identity(4, "laurent")

    def test_parse_rejects_gaussian_mixed_with_symbols(self):
        with pytest.raises(CycleError, match="mixes scalar modes"):
            Word.parse("x 1,-1 (1+i, 0)\nx 1,-1 (a, 0)",
                       rsys(GroupModel("sl-c", 2)))

    def test_code_built_mixed_word_is_a_scalar_error(self):
        # a Word built without parse meets the mode check before any delta
        # work, on both evaluation routes and in the reducer
        sys_ = rsys(GroupModel("sl-c", 2))
        letters = (Word.parse("x 1,-1 (1+i, 0)", sys_).letters
                   + Word.parse("x 1,-1 (a, 0)", sys_).letters)
        w = Word(sys_, letters)
        for route in (w.eval, w.eval_dense, lambda: reduce_cycle(w)):
            with pytest.raises(ScalarError, match="cannot be mixed"):
                route()

    def test_parse_reports_bad_line(self):
        with pytest.raises(CycleError, match="line 2"):
            Word.parse("x 1,0,0,-1 (2)\nnot a letter\n", StandardSystem(4))

    def test_mixed_letter_kinds_evaluate_consistently(self):
        # w/h letters in a word evaluate through both routes identically
        from chevalley.generators import GeneratorLetter
        sys_ = rsys(SP2)
        r = Root.of(2, 1, 2, 1, -1)
        letters = (GeneratorLetter(SP2, "w", r, (F(2),)),
                   sys_.letter(Root.of(2, 1), (F(3),)),
                   GeneratorLetter(SP2, "h", r, (F(5),)))
        w = Word(sys_, letters)
        assert w.eval() == w.eval_dense()


class TestStability:
    def test_example_roots_stable(self):
        sys_ = StandardSystem(4)
        w = Word(sys_, (ElementaryLetter(4, 3, 4, F(1)),
                        ElementaryLetter(4, 2, 3, F(2))))
        st = is_stable_word(w)
        assert st.stable
        for l in w.letters:
            assert l.root.eval(st.witness) < 0

    def test_antipodal_word_unstable(self):
        sys_ = rsys(SP2)
        r = Root.of(2, 1, 2, 1, -1)
        w = Word(sys_, (sys_.letter(r, (F(1),)), sys_.letter(-r, (F(1),))))
        assert not is_stable_word(w).stable

    def test_single_letter_stable_off_kernel(self):
        sys_ = rsys(SP2)
        w = Word(sys_, (sys_.letter(Root.of(2, 1), (F(5),)),))
        assert is_stable_word(w).stable

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_ignores_root_order(self, n):
        # the stability memo solves a root set in sorted order; every order
        # gives the same witness, so the memo changes no reported point
        rng = random.Random("stability-order:%d" % n)
        roots = build_root_system(n).roots
        seen = set()
        for region in (None, Plane(n, ((1,) * n,))):
            for _ in range(30):
                sample = rng.sample(roots, rng.randint(1, 4))
                base = find_stable_element(sample, region=region,
                                           ambient_dim=n)
                seen.add(base.feasible)
                for perm in itertools.permutations(sample):
                    res = find_stable_element(perm, region=region,
                                              ambient_dim=n)
                    assert (res.feasible, res.point) == \
                        (base.feasible, base.point)
        assert seen == {True, False}

    def test_one_memo_entry_serves_a_reduction(self, monkeypatch):
        solved = []
        real = cycles.find_stable_element

        def record(roots, region=None, ambient_dim=None):
            solved.append(list(roots))
            return real(roots, region, ambient_dim)

        monkeypatch.setattr(cycles, "find_stable_element", record)
        text = "x 0,2 (2)\nx 0,2 (-2)\nx 0,2 (3)\nx 0,2 (-3)"
        trace = reduce_cycle(Word.parse(text, rsys(SP2)))
        assert isinstance(trace, ReductionTrace) and len(trace.moves) == 2
        assert solved == [[(0, 2)]]
        assert trace.moves[0].stability == trace.moves[1].stability
        # the memo lives for one call: a second reduction solves afresh
        reduce_cycle(Word.parse(text, rsys(SP2)))
        assert solved == [[(0, 2)]] * 2


def four_letter_word(system, p, a, q, b):
    lp, lq = system.letter(p, a), system.letter(q, b)
    return Word(system, (lp, lq, lp.inverse(), lq.inverse()))


class TestCommutatorValue:
    """The cycle engine's one commutator against the dense product of the
    word x_p x_q x_p^{-1} x_q^{-1}, on both letter systems."""

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_restricted_matches_dense_word(self, family):
        system = rsys(GroupModel(family, 2))
        rng = random.Random("commutator-value:" + family)
        values = [F(2), F(-1, 3), F(5), F(0)]
        if family == "sl-c":
            values.append(GaussianRational(1, -2))
        roots = list(system.system.roots)
        if family != "sp":
            roots += [Root(r.coeffs, tag) for r in system.system.roots
                      if not r.is_long for tag in (1, 2)]
        for p in roots:
            for q in roots:
                a, b = (tuple(rng.choice(values)
                              for _ in system.unit_params(r)) for r in (p, q))
                word = four_letter_word(system, p, a, q, b)
                assert delta_to_matrix(commutator_value(system, p, a, q, b),
                                       system.size, word.mode()) == \
                    word.eval_dense()

    def test_standard_matches_dense_word(self):
        system = StandardSystem(4)
        rng = random.Random("commutator-value:standard")
        roots = [Root.of(4, k, l, 1, -1) for k in range(1, 5)
                 for l in range(1, 5) if k != l]
        for p in roots:
            for q in roots:
                a, b = (rng.choice([F(3), F(-2, 5)]),), (F(7),)
                word = four_letter_word(system, p, a, q, b)
                assert delta_to_matrix(commutator_value(system, p, a, q, b),
                                       4) == word.eval_dense()

    def test_standard_letter_must_fit_the_ambient(self):
        with pytest.raises(CycleError, match="ambient size 4"):
            StandardSystem(4).letter(Root.of(6, 1, 3, 1, -1), (F(2),))


class TestLetterSystems:
    def test_single_letter_positions(self):
        # e_{1,3} on n=2: 2L1 (long) in every model; e_{1,2}: L1-L2, which
        # is one tagged component on sl and no single letter on sp
        sp, sl = rsys(SP2), rsys(SL2)
        assert sp.single_letter(1, 3, F(5)) == sp.letter(Root.of(2, 1), (F(5),))
        assert sp.single_letter(1, 2, F(5)) is None
        assert sl.single_letter(1, 2, F(5)) == \
            sl.letter(Root.of(2, 1, 2, 1, -1, tag=1), (F(5),))
        assert sl.single_letter(4, 3, F(5)) == \
            sl.letter(Root.of(2, 1, 2, 1, -1, tag=2), (F(5),))
        assert sl.single_letter(1, 1, F(5)) is None
        std = StandardSystem(4)
        assert std.single_letter(1, 4, F(2)) == ElementaryLetter(4, 1, 4, F(2))
        assert std.single_letter(2, 2, F(2)) is None

    def test_tagged_swap_factors(self):
        # [x_{L1-L2:1}(2), x_{2L2}(3)] = x_{L1+L2:1}(6); the tagged pair
        # L1-L2:1, L1+L2:1 has a root sum but commutes
        sys_ = rsys(SL2)
        a = sys_.letter(Root.of(2, 1, 2, 1, -1, tag=1), (F(2),))
        b = sys_.letter(Root.of(2, 2), (F(3),))
        assert sys_.swap_factors(a, b) == \
            [sys_.letter(Root.of(2, 1, 2, 1, 1, tag=1), (F(6),))]
        c = sys_.letter(Root.of(2, 1, 2, 1, 1, tag=1), (F(3),))
        assert sys_.swap_factors(a, c) == []

    def test_single_entry_swaps_always_name_their_factors(self):
        # a tagged sl-r pair with a root sum, and a non-antipodal standard
        # pair, has a trivial or a single-entry commutator: swap_factors
        # never gives None on them
        pairs = 0
        for n in (2, 3, 4):
            sys_ = rsys(GroupModel("sl-r", n))
            letters = []
            for r in sys_.system.roots:
                if r.is_long:
                    letters.append(sys_.letter(r, (F(2),)))
                    continue
                letters.append(sys_.letter(r, (F(2), F(-3))))
                letters += [sys_.letter(Root(r.coeffs, tag), (F(5),))
                            for tag in (1, 2)]
            for a, b in itertools.product(letters, repeat=2):
                if a.root.restricted_tag is None and \
                        b.root.restricted_tag is None:
                    continue
                if sys_.system.is_root(a.root.untagged() + b.root.untagged()):
                    pairs += 1
                    assert isinstance(sys_.swap_factors(a, b), list), (a, b)
        assert pairs == 2880
        std = StandardSystem(4)
        pairs = [(p, q) for p, q in itertools.product(standard_sl_roots(4),
                                                      repeat=2) if any(p + q)]
        assert len(pairs) == 132
        for p, q in pairs:
            a, b = std.letter(p, (F(2),)), std.letter(q, (F(-3),))
            assert isinstance(std.swap_factors(a, b), list), (a, b)

    def test_h_template_rejects_on_roots_before_values(self):
        class Letter:
            def __init__(self, root):
                self.root = root

            @property
            def params(self):
                raise AssertionError("values read before the root pattern")

        r = Root.of(2, 1, 2, 1, -1)
        window = [Letter(x) for x in (r, -r, r) * 4]
        window[4] = Letter(r)
        assert _match_h_mult(window) is None


class TestReduce:
    def test_describe_formats_each_letter_once(self, monkeypatch):
        word = seeded_words("sl-r", 3, count=1)[0]
        trace = reduce_cycle(word, budget=200)
        assert trace.reduced_to_empty and len(trace.moves) > 10
        letters = list(word.letters) + [l for m in trace.moves
                                        for l in m.removed + m.inserted]
        real = GeneratorLetter.format
        per_move = [m.describe() for m in trace.moves]
        calls = []

        def counted(letter):
            calls.append(id(letter))
            return real(letter)

        monkeypatch.setattr(GeneratorLetter, "format", counted)
        out = trace.describe()
        assert sorted(calls) == sorted({id(l) for l in letters})
        assert len(calls) < sum(len(m.removed + m.inserted)
                                for m in trace.moves)
        assert out["initial"] == [real(l) for l in word.letters]
        assert out["moves"] == per_move and out["final"] == []

    def test_additivity_word(self):
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        w = Word(sys_, (sys_.letter(r, (F(2),)), sys_.letter(r, (F(3),)),
                        sys_.letter(r, (F(-5),))))
        trace = reduce_cycle(w)
        assert trace.reduced_to_empty
        assert trace.replay()
        kinds = [(m.kind, m.relation_id) for m in trace.moves]
        assert ("relation-substitution", "additivity") in kinds

    def test_trivial_commutator_word(self):
        sys_ = rsys(SP2)
        la = sys_.letter(Root.of(2, 1), (F(2),))
        lb = sys_.letter(Root.of(2, 2), (F(3),))
        w = Word(sys_, (la, lb, la.inverse(), lb.inverse()))
        trace = reduce_cycle(w)
        assert trace.reduced_to_empty and trace.replay()
        assert any(m.relation_id == "trivial-commutator" for m in trace.moves)

    def test_commutator_word_with_factors(self):
        r, p = Root.of(2, 1, 2, 1, -1), Root.of(2, 2)
        sys_ = rsys(SP2)
        a, b = F(2), F(3)
        laws = fit_structure_functions(SP2, r, p)
        lr, lp = sys_.letter(r, (a,)), sys_.letter(p, (b,))
        factors = [sys_.letter(law.target, law.evaluate((a,), (b,)))
                   for law in laws]
        letters = [lr, lp, lr.inverse(), lp.inverse()] + \
            [f.inverse() for f in reversed(factors)]
        trace = reduce_cycle(Word(sys_, tuple(letters)))
        assert trace.reduced_to_empty and trace.replay()
        assert any(m.relation_id == "commutator" for m in trace.moves)

    @staticmethod
    def additivity_trace():
        """x_{2L2}(2) x_{2L2}(3) x_{2L2}(-5) reduced, and x_{2L2}(7), a
        letter the word does not hold."""
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        w = Word(sys_, (sys_.letter(r, (F(2),)), sys_.letter(r, (F(3),)),
                        sys_.letter(r, (F(-5),))))
        trace = reduce_cycle(w)
        assert trace.reduced_to_empty and trace.replay()
        return trace, sys_.letter(r, (F(7),))

    def test_replay_rejects_a_move_that_does_not_match(self):
        trace, other = self.additivity_trace()
        first = trace.moves[0]
        bad = replace(first, removed=(other,) + first.removed[1:])
        with pytest.raises(CycleError, match="does not match the word"):
            bad.apply(trace.initial.letters)
        with pytest.raises(CycleError, match="does not match the word"):
            replace(trace, moves=(bad,) + trace.moves[1:]).replay()

    def test_replay_rejects_a_move_that_changes_the_evaluation(self):
        trace, other = self.additivity_trace()
        first = trace.moves[0]
        bad = replace(first, inserted=first.inserted + (other,))
        with pytest.raises(CycleError, match="changed the evaluation"):
            replace(trace, moves=(bad,) + trace.moves[1:]).replay()

    def test_replay_rejects_a_wrong_final_word(self):
        trace, other = self.additivity_trace()
        wrong = Word(trace.initial.system, (other,))
        with pytest.raises(CycleError, match="recorded final word"):
            replace(trace, final=wrong).replay()

    @pytest.mark.parametrize("model", [SL2, SL3, GroupModel("sl-c", 2)])
    def test_h_multiplicativity_words(self, model):
        r = Root.of(model.n, 1, 2, 1, -1)
        w = hmult_word(model, r, F(3), F(5))
        assert len(w) == 18
        trace = reduce_cycle(w, budget=200)
        assert trace.reduced_to_empty and trace.replay()
        hmoves = [m for m in trace.moves
                  if m.relation_id == "h-multiplicativity"]
        assert len(hmoves) == 1
        assert len(hmoves[0].removed) == 12
        assert not hmoves[0].stability.stable  # antipodal roots: unstable

    def test_h_window_over_a_merged_symbol_sum(self):
        # x_r(a) x_r(b) merge into x_r(a+b), the first letter of a window
        # with the h-template's roots; no letter holds -1/(a+b), so the
        # window is no match rather than a division the ring refuses.  The
        # inverse half's first letter is split in two, so the word does not
        # free-cancel from its middle before the merge
        sys_ = rsys(SL2)
        r, z = Root.of(2, 1, 2, 1, -1), F(0)
        a, b = LaurentFrac.symbol("a"), LaurentFrac.symbol("b")
        word = [sys_.letter(r, (a, z)), sys_.letter(r, (b, z))] + \
            [sys_.letter(q, (F(k + 2), z))
             for k, q in enumerate([-r, r, r] * 3 + [-r, r])]
        inverse = [l.inverse() for l in reversed(word)]
        half = sys_.letter(r, (inverse[0].params[0] / 2, z))
        merged = [sys_.letter(r, (a + b, z))] + word[2:]
        assert _match_h_mult(merged) is None
        trace = reduce_cycle(Word(sys_, tuple(word + [half, half] + inverse[1:])))
        assert trace.reduced_to_empty and trace.replay()
        assert ("relation-substitution", "additivity") in \
            [(m.kind, m.relation_id) for m in trace.moves]

    def test_sp_h_multiplicativity_word(self):
        w = hmult_word(SP2, Root.of(2, 1, 2, 1, -1), F(2), F(-3))
        trace = reduce_cycle(w, budget=200)
        assert trace.reduced_to_empty and trace.replay()

    def test_conjugated_relation_word(self):
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        inner = [sys_.letter(r, (F(2),)), sys_.letter(r, (F(3),)),
                 sys_.letter(r, (F(-5),))]
        c = sys_.letter(Root.of(2, 1), (F(7),))
        w = Word(sys_, tuple([c] + inner + [c.inverse()]))
        trace = reduce_cycle(w)
        assert trace.reduced_to_empty and trace.replay()

    def test_conjugated_relator_pushes_before_swapping(self):
        # u [x_r(a), x_p(b)] (factors)^-1 u^-1 with u = x_{L1+L2}: the third
        # block of the benchmark's seed-1 word sl-r-n3-w72.  Swapping inside
        # the conjugator first never reaches the push that removes u ... u^-1
        text = "\n".join(["x 1,1,0 (1/2, -1/2)", "x 0,-1,1 (2, -1/2)",
                          "x -1,0,-1 (-1, -1)", "x 0,-1,1 (-2, 1/2)",
                          "x -1,0,-1 (1, 1)", "x -1,-1,0 (-1/2, -2)",
                          "x 1,1,0 (-1/2, 1/2)"])
        w = Word.parse(text, rsys(SL3))
        assert len(w) == 7 and w.is_cycle()
        trace = reduce_cycle(w, budget=200)
        assert trace.reduced_to_empty and trace.replay()
        choices = [m for m in trace.moves if m.kind == "conjugation-push"
                   or m.relation_id in ("commutator", "trivial-commutator")]
        first = choices[0]
        assert (first.kind, first.position) == ("conjugation-push", 0)
        assert first.removed == w.letters and first.stability.stable

    def test_non_cycle_rejected(self):
        sys_ = rsys(SP2)
        w = Word(sys_, (sys_.letter(Root.of(2, 1), (F(1),)),))
        with pytest.raises(NonCycleError):
            reduce_cycle(w)

    def test_non_x_letters_rejected(self):
        # h(t) h(1/t) evaluates to the identity but is not an x-letter cycle;
        # merging h-letters through the x additivity move would be unsound
        from chevalley.generators import GeneratorLetter
        sys_ = rsys(SP2)
        r = Root.of(2, 1, 2, 1, -1)
        ha = GeneratorLetter(SP2, "h", r, (F(2),))
        hb = GeneratorLetter(SP2, "h", r, (F(1, 2),))
        w = Word(sys_, (ha, hb))
        assert w.is_cycle()
        with pytest.raises(CycleError):
            reduce_cycle(w)

    def test_budget_exhaustion_returns_partial(self):
        # a cycle needing more than one move with budget 1
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        w = Word(sys_, (sys_.letter(r, (F(2),)), sys_.letter(r, (F(3),)),
                        sys_.letter(r, (F(-5),))))
        out = reduce_cycle(w, budget=1)
        assert out.reason == "budget exhausted"
        assert not out.reduced_to_empty
        assert out.replay()  # partial trace still evaluation-sound

    def test_negative_budget_rejected(self):
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        w = Word(sys_, (sys_.letter(r, (F(2),)), sys_.letter(r, (F(-2),))))
        with pytest.raises(CycleError, match="budget"):
            reduce_cycle(w, budget=-1)
        assert reduce_cycle(w, budget=0).reason == "budget exhausted"

    def test_moves_are_stability_tagged(self):
        sys_ = rsys(SP2)
        r = Root.of(2, 2)
        w = Word(sys_, (sys_.letter(r, (F(2),)), sys_.letter(r, (F(-2),))))
        trace = reduce_cycle(w)
        assert trace.reduced_to_empty
        st = trace.moves[0].stability
        assert st.stable and r.eval(st.witness) < 0

    def test_stable_first_choice_ordering(self):
        # on the diagonal region the L1-L2 functional vanishes, so swaps
        # touching it are unstable; the engine must spend every stable swap
        # first even though the unstable inversion sits leftmost
        sys_ = rsys(SP2)
        s, l1, l2 = Root.of(2, 1, 2, 1, -1), Root.of(2, 1), Root.of(2, 2)
        region = Plane(2, ((1, 1),))
        laws = fit_structure_functions(SP2, s, l2)
        a, b = F(1), F(2)
        xs, xl2 = sys_.letter(s, (a,)), sys_.letter(l2, (b,))
        factors = [sys_.letter(law.target, law.evaluate((a,), (b,)))
                   for law in laws]
        part1 = [xs, xl2, xs.inverse(), xl2.inverse()] + \
            [f.inverse() for f in reversed(factors)]
        xl1, xl2b = sys_.letter(l1, (F(3),)), sys_.letter(l2, (F(5),))
        part2 = [xl1, xl2b, xl1.inverse(), xl2b.inverse()]
        trace = reduce_cycle(Word(sys_, tuple(part1 + part2)), region=region)
        assert trace.reduced_to_empty and trace.replay()
        choices = [m for m in trace.moves
                   if m.relation_id in ("commutator", "trivial-commutator")]
        first_unstable = next(k for k, m in enumerate(choices)
                              if not m.stability.stable)
        assert all(m.stability.stable for m in choices[:first_unstable])
        assert choices[0].position != 0  # leftmost inversion was unstable

    def test_budget_one_applies_one_move(self):
        # budget 1 on a three-letter additivity cycle: one merge applies,
        # then the budget is gone; the partial trace must stay sound
        sys_ = rsys(SP2)
        r = Root.of(2, 1)
        w = Word(sys_, (sys_.letter(r, (F(1),)), sys_.letter(r, (F(2),)),
                        sys_.letter(r, (F(-3),))))
        out = reduce_cycle(w, budget=1)
        assert out.reason == "budget exhausted"
        assert len(out.moves) == 1
        assert out.replay()

    def test_stable_witnesses_respect_region(self):
        sys_ = StandardSystem(4)
        plane = Plane.from_equations(4, [[1, 1, 1, 1], [0, 1, 2, 3]])
        l = ElementaryLetter(4, 3, 4, F(2))
        w = Word(sys_, (l, l.inverse()))
        trace = reduce_cycle(w, region=plane)
        assert trace.reduced_to_empty
        witness = trace.moves[0].stability.witness
        assert plane.contains(witness)
        assert l.root.eval(witness) < 0


# values per family; sl-c carries non-real Gaussian parameters
SEEDED_VALUES = {"sp": ("2", "3", "-1", "1/2"),
                 "sl-r": ("2", "-3", "5", "1/2"),
                 "sl-c": ("1+2i", "-1/2", "i", "3")}


def seeded_words(family, n, count=3, blocks=3):
    """Seeded cycle words of blocks u [x_r(a), x_p(b)] (factors)^-1 u^-1."""
    rng = random.Random("choice-order:%s:%d" % (family, n))
    model = GroupModel(family, n)
    system = rsys(model)
    roots = list(system.system.roots)
    values = [parse_scalar(v) for v in SEEDED_VALUES[family]]

    def letter(root):
        return system.letter(root, tuple(
            rng.choice(values) for _ in range(model.param_arity(root))))

    words = []
    for _ in range(count):
        letters = []
        for _ in range(blocks):
            while True:
                r, p = rng.choice(roots), rng.choice(roots)
                if any(x + y for x, y in zip(r.coeffs, p.coeffs)):
                    break
            lr, lp = letter(r), letter(p)
            factors = []
            if system.system.is_root(tuple(x + y for x, y in
                                           zip(r.coeffs, p.coeffs))):
                factors = [system.letter(law.target,
                                         law.evaluate(lr.params, lp.params))
                           for law in fit_structure_functions(model, r, p)]
            u = letter(rng.choice(roots))
            letters += [u, lr, lp, lr.inverse(), lp.inverse()]
            letters += [f.inverse() for f in reversed(factors)]
            letters.append(u.inverse())
        word = Word(system, tuple(letters))
        assert word.is_cycle()
        words.append(word)
    return words


def reduction_states(word, region):
    """The seeded word and every word its reduction passes through."""
    trace = reduce_cycle(word, region=region, budget=200)
    states = [word.letters]
    for move in trace.moves:
        states.append(move.apply(states[-1]))
    return states


def eager_choice_moves(system, region, letters):
    """Reference: every push (farthest partner first), then every swap, then
    a stable sort on (unstable, position), so that at one position the
    pushes precede the swap."""
    memo = {}
    out = []
    for i in range(len(letters) - 1):
        for j in range(len(letters) - 1, i + 1, -1):
            a, b = letters[i], letters[j]
            if a.root != b.root or any(x + y for x, y in
                                       zip(a.params, b.params)):
                continue
            inner = letters[i + 1:j]
            if delta_word([system.letter_delta(l) for l in inner]):
                continue
            out.append(ReductionMove(
                "conjugation-push", None, i, (a,) + inner + (b,), inner,
                _stability(memo, system, region, [a.root.untagged()])))
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        rsum = tuple(x + y for x, y in zip(a.root.coeffs, b.root.coeffs))
        if a.root == b.root or a.root.sort_key() <= b.root.sort_key() \
                or not any(rsum):
            continue
        factors = system.swap_factors(a, b)
        if factors is None:
            continue
        touched = [l.root.untagged() for l in [a, b] + factors]
        out.append(ReductionMove(
            "relation-substitution",
            "commutator" if factors else "trivial-commutator", i, (a, b),
            tuple(factors) + (b, a),
            _stability(memo, system, region, touched)))
    out.sort(key=lambda mv: (not mv.stability.stable, mv.position))
    return out


def diagonal(n):
    """The span of (1, ..., 1), on which every L_i - L_j vanishes."""
    return Plane(n, ((1,) * n,))


CHOICE_CASES = [(family, n, region)
                for family in ("sp", "sl-r", "sl-c") for n in (2, 3)
                for region in (None, diagonal(n))]


class TestChoiceOrder:
    @pytest.mark.parametrize("family,n,region", CHOICE_CASES)
    def test_lazy_candidates_match_eager_sort(self, family, n, region):
        seen = {"push": 0, "unstable": 0, "mixed": 0}
        for word in seeded_words(family, n):
            system = word.system
            for letters in reduction_states(word, region):
                lazy = list(_Reducer(system, region, 0)._choice_moves(letters))
                eager = eager_choice_moves(system, region, letters)
                assert lazy == eager
                seen["push"] += any(m.kind == "conjugation-push"
                                    for m in eager)
                stable = [m.stability.stable for m in eager]
                seen["unstable"] += not all(stable)
                seen["mixed"] += any(stable) and not all(stable)
        assert seen["push"]
        if region is not None:
            assert seen["unstable"] and seen["mixed"]

    def test_pushes_farthest_first_precede_swap(self):
        # at position 0 both the swap x_{2L1} x_{L1-L2} and two pushes of
        # x_{2L1}(1) start; the push to the far partner comes first, and
        # the swap after both pushes
        sys_ = rsys(SP2)
        l1, s = Root.of(2, 1), Root.of(2, 1, 2, 1, -1)
        x, y = sys_.letter(l1, (F(1),)), sys_.letter(s, (F(2),))
        letters = (x, y, y.inverse(), x.inverse(), x, x.inverse())
        moves = list(_Reducer(sys_, None, 0)._choice_moves(letters))
        head = [(m.kind, m.position, len(m.removed)) for m in moves[:3]]
        assert head == [("conjugation-push", 0, 6),
                        ("conjugation-push", 0, 4),
                        ("relation-substitution", 0, 2)]


class TestBudget:
    @pytest.mark.parametrize("family,n,region", CHOICE_CASES)
    def test_budget_bounds_the_trace(self, family, n, region):
        reasons = set()
        for word in seeded_words(family, n):
            for budget in (0, 1, 7, 200):
                out = reduce_cycle(word, region=region, budget=budget)
                assert len(out.moves) <= budget
                exhausted = bool(out.final.letters) and \
                    len(out.moves) == budget
                assert (out.reason == "budget exhausted") == exhausted
                assert out.replay()
                reasons.add(out.reason)
        assert {None, "budget exhausted"} <= reasons


def touched_roots(move):
    """The untagged roots a move touches: a conjugation push its
    conjugator's, every other move those of the letters it removes and
    inserts."""
    letters = move.removed[:1] if move.kind == "conjugation-push" \
        else move.removed + move.inserted
    return sorted({l.root.untagged() for l in letters}, key=Root.sort_key)


class TestMoveTags:
    @pytest.mark.parametrize("family,n,region", CHOICE_CASES)
    def test_each_tag_holds_on_the_touched_roots(self, family, n, region):
        plane = region or Plane.full(n)
        seen = set()
        for word in seeded_words(family, n):
            out = reduce_cycle(word, region=region, budget=200)
            for move in out.moves:
                roots = touched_roots(move)
                st = move.stability
                seen.add(st.stable)
                if st.stable:
                    assert plane.contains(st.witness)
                    assert all(r.eval(st.witness) < 0 for r in roots)
                    continue
                res = find_stable_element(roots, region=region,
                                          ambient_dim=n)
                assert not res.feasible
                weights = dict(res.certificate)
                assert all(w >= 0 for w in weights.values())
                assert any(weights.values())
                combo = [sum(w * roots[k].coeffs[d]
                             for k, w in weights.items()) for d in range(n)]
                assert all(sum(c * x for c, x in zip(combo, b)) == 0
                           for b in plane.basis)
        assert True in seen
        if region is not None:
            assert False in seen


class TestPushRule:
    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_prefix_products_decide_inner_identity(self, family, n):
        outcomes = set()
        for word in seeded_words(family, n):
            letters = word.letters
            before = _PrefixProducts(word.system, letters)
            for i in range(len(letters)):
                for j in range(i + 2, len(letters)):
                    a, b = letters[i], letters[j]
                    if a.root != b.root or any(x + y for x, y in
                                               zip(a.params, b.params)):
                        continue
                    inner = delta_word([word.system.letter_delta(l)
                                        for l in letters[i + 1:j]])
                    same = before[i + 1] == before[j]
                    assert same == (inner == {})
                    outcomes.add(same)
        assert outcomes == {True, False}
        if family == "sl-c":
            assert any(getattr(p, "im", 0) for w in seeded_words(family, n)
                       for l in w.letters for p in l.params)


class TestBracketDecompose:
    def test_example_standard_decomposition(self):
        sys_ = StandardSystem(4)
        plane = Plane.from_equations(4, [[1, 1, 1, 1], [0, 1, 2, 3]])
        target = ElementaryLetter(4, 1, 4, F(7))
        companions = [Root.of(4, 2, 3, 1, -1)]
        decs = list(enumerate_bracket_decompositions(sys_, target,
                                                     region=plane,
                                                     companions=companions))
        assert decs, "no decomposition found"
        via3 = [d for d in decs if (d.left.k, d.left.l) == (1, 3)]
        assert via3, "the (1,3)/(3,4) decomposition must be available"
        d = via3[0]
        assert (d.right.k, d.right.l) == (3, 4) and d.right.param == 1
        assert d.left.param == F(7)
        # replay: the commutator reproduces the target exactly
        comm = commutator_value(sys_, d.left.root, d.left.params,
                                d.right.root, d.right.params)
        assert comm == sys_.letter_delta(target)
        # witnesses satisfy all strict inequalities on the plane
        for witness, root in ((d.witness_left, d.left.root),
                              (d.witness_right, d.right.root)):
            assert plane.contains(witness)
            assert root.eval(witness) < 0
            for c in companions:
                assert c.eval(witness) < 0

    def test_known_points_are_valid_witnesses(self):
        plane = Plane.from_equations(4, [[1, 1, 1, 1], [0, 1, 2, 3]])
        assert plane.contains((5, -8, 1, 2))
        assert plane.contains((0, -1, 2, -1))
        c = Root.of(4, 2, 3, 1, -1)
        for point, root in (((5, -8, 1, 2), Root.of(4, 3, 4, 1, -1)),
                            ((0, -1, 2, -1), Root.of(4, 1, 3, 1, -1))):
            assert root.eval(point) < 0 and c.eval(point) < 0

    def test_restricted_long_root_candidates(self):
        sys_ = rsys(SP2)
        pairs = sys_.summand_pairs(Root.of(2, 1))
        assert ((1, -1), (1, 1)) in [(p.coeffs, q.coeffs) for p, q in pairs]
        target = sys_.letter(Root.of(2, 1), (F(6),))
        dec = bracket_decompose(sys_, target)
        comm = commutator_value(sys_, dec.left.root, dec.left.params,
                                dec.right.root, dec.right.params)
        assert comm == sys_.letter_delta(target)

    def test_restricted_sl_two_slot_target(self):
        sys_ = rsys(SL2)
        target = sys_.letter(Root.of(2, 1), (F(5),))
        dec = bracket_decompose(sys_, target)
        comm = commutator_value(sys_, dec.left.root, dec.left.params,
                                dec.right.root, dec.right.params)
        assert comm == sys_.letter_delta(target)

    # pairs (p, q) solved at the targets with values {2, -3}, counted
    # with the ratio-and-joint candidate solver that row_reduce replaced
    SOLVED_PAIRS = {"sp": 16, "sl-r": 48, "sl-c": 48, "standard-4": 48}

    def test_solved_params_reproduce_every_target(self):
        systems = []
        for family in ("sp", "sl-r", "sl-c"):
            sys_ = rsys(GroupModel(family, 2))
            roots = list(sys_.system.roots)
            if family != "sp":
                roots += [Root(r.coeffs, tag) for r in sys_.system.roots
                          if not r.is_long for tag in (1, 2)]
            systems.append((family, sys_, roots))
        systems.append(("standard-4", StandardSystem(4), standard_sl_roots(4)))
        for name, sys_, roots in systems:
            solved = 0
            for root in roots:
                for params in itertools.product(
                        (F(2), F(-3)), repeat=len(sys_.unit_params(root))):
                    target = sys_.letter_delta(sys_.letter(root, params))
                    for p, q in sys_.summand_pairs(root):
                        q_params = sys_.unit_params(q)
                        a = cycles._solve_left_params(sys_, p, q, q_params,
                                                      target)
                        if a is not None:
                            solved += 1
                            assert commutator_value(sys_, p, a, q,
                                                    q_params) == target
            assert solved == self.SOLVED_PAIRS[name], name

    def test_failure_when_no_pairs(self):
        sys_ = StandardSystem(2)
        target = ElementaryLetter(2, 1, 2, F(1))
        with pytest.raises(CycleError):
            bracket_decompose(sys_, target)

    def test_failure_on_degenerate_region(self):
        sys_ = StandardSystem(4)
        # the region spanned by the all-ones vector kills every functional
        region = Plane(4, ((1, 1, 1, 1),))
        target = ElementaryLetter(4, 1, 4, F(1))
        with pytest.raises(CycleError):
            bracket_decompose(sys_, target, region=region)
