"""Byte-identical command-line output against committed golden files.

The files under ``tests/golden/`` are the exact stdout of ``chevalley``
invocations.  ``verify-<family>-n<n>-<regime>.json`` holds one
``verify --suite all --format json`` report; ``decompose-<family>-n2.txt``
holds, for every ordered non-antipodal root pair at n=2, a ``$ <argv>`` line
followed by that ``decompose`` invocation's output,
``decompose-<family>-n2-symbolic.txt`` the same with symbol parameters, and
``decompose-<family>-n3-symbolic.txt`` the same at n=3 over the pairs whose
sum is a root, where a law is fitted on the indices the pair touches;
``reduce-<case>.txt`` holds one ``reduce`` invocation with its word file,
and two more files pin stability witnesses and bracket decompositions (see
the section below).
Any change to a report, a parameter text, an instance count, a fitted law, a
reduction move or a witness shows up as a diff.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from chevalley.cli import _parse_plane, main
from chevalley.cycles import (RestrictedSystem, StandardSystem, Word,
                              commutator_value,
                              enumerate_bracket_decompositions, is_stable_word)
from chevalley.generators import (GroupModel, h_word_letters, read_letter,
                                  w_word_letters)
from chevalley.relations import fit_structure_functions
from chevalley.roots import Root, build_root_system, standard_sl_roots
from chevalley.scalars import parse_scalar

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = ("sp", "sl-r", "sl-c")

# fixed decompose parameters per family and slot count
DECOMPOSE_PARAMS = {
    "sp": {1: ("2/3", "-5")},
    "sl-r": {1: ("2/3", "-5"), 2: ("2/3,-3", "-5,1/2")},
    "sl-c": {1: ("1+2i", "-5"), 2: ("1+2i,-3/2i", "-5,1/2+i")},
}
# symbol parameters, the same for every family, so that every factor
# parameter and law prints as a Laurent polynomial
SYMBOLIC_PARAMS = {1: ("a", "b"), 2: ("a1,a2", "b1,b2")}
# (family, n, golden file suffix): n=2 with fixed and with symbol
# parameters, n=3 with symbol parameters
DECOMPOSE_CASES = [(family, 2, suffix) for suffix in ("", "-symbolic")
                   for family in FAMILIES] + \
    [(family, 3, "-symbolic") for family in FAMILIES]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def verify_cases():
    """(golden file name, argv) for every verify golden."""
    return [("verify-%s-n%d-%s.json" % (family, n, regime),
             ["verify", "--model", family, "--n", str(n), "--suite", "all",
              "--regime", regime, "--format", "json"])
            for family in FAMILIES for n in (2, 3)
            for regime in ("grid", "symbolic")]


def decompose_argvs(family, symbolic=False, n=2):
    """Every ordered non-antipodal root pair at n=2, or every ordered pair
    whose sum is a root at n=3; fixed parameters."""
    model = GroupModel(family, n)
    params = SYMBOLIC_PARAMS if symbolic else DECOMPOSE_PARAMS[family]
    system = build_root_system(n)
    out = []
    for r in system.roots:
        for p in system.roots:
            if not any(r + p) or (n > 2 and not system.is_root(r + p)):
                continue
            a = params[model.param_arity(r)][0]
            b = params[model.param_arity(p)][1]
            # attached values, so that argparse reads "-1,1" as a value
            out.append(["decompose", "--model", family, "--n", str(n),
                        "-r" + str(r), "-p" + str(p), "-a" + a, "-b" + b])
    return out


def decompose_text(family, symbolic=False, n=2):
    chunks = []
    for argv in decompose_argvs(family, symbolic, n):
        code, out = run_cli(argv)
        assert code == 0, argv
        chunks.append("$ %s\n%s" % (" ".join(argv), out))
    return "".join(chunks)


@pytest.mark.parametrize("name,argv", verify_cases(),
                         ids=[name for name, _ in verify_cases()])
def test_verify_golden(name, argv):
    code, out = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("family,n,suffix", DECOMPOSE_CASES,
                         ids=[f + s if n == 2 else "%s-n%d%s" % (f, n, s)
                              for f, n, s in DECOMPOSE_CASES])
def test_decompose_golden(family, n, suffix):
    golden = GOLDEN / ("decompose-%s-n%d%s.txt" % (family, n, suffix))
    assert decompose_text(family, bool(suffix), n) == \
        golden.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# reduce, stability witnesses, bracket decompositions
# ---------------------------------------------------------------------------
#
# ``reduce-<case>.txt`` holds one ``reduce`` invocation: a ``$ <argv>`` line
# (``WORDFILE`` stands for the word file), the word text after
# ``--- WORDFILE`` and the stdout after ``--- stdout``.  The command line does
# not reach ``is_stable_word`` or ``enumerate_bracket_decompositions``, so
# ``stability-witnesses.txt`` and ``bracket-decompositions.txt`` pin their
# results, one ``<case> -> <json>`` line each.

F = Fraction

# values per family: two-slot letters use the first two, sl-c is Gaussian
REDUCE_VALUES = {
    "sp": ("2", "3", "5", "-3"),
    "sl-r": ("2", "3", "5", "-3"),
    "sl-c": ("1+2i", "-1/2", "3", "i"),
}


def _values(family):
    return [parse_scalar(v) for v in REDUCE_VALUES[family]]


def _letter(system, root, v, w=None):
    """x_root(v), or x_root(v, w) on a two-slot root (w defaults to 0)."""
    arity = len(system.unit_params(root))
    params = (v,) if arity == 1 else (v, F(0) if w is None else w)
    return system.letter(root, params)


def _commutator_block(system, r, p, a, b):
    """x_r(a) x_p(b) x_r(a)^-1 x_p(b)^-1 (structure factors)^-1."""
    model = system.model
    lr, lp = system.letter(r, a), system.letter(p, b)
    factors = [system.letter(law.target, law.evaluate(a, b))
               for law in fit_structure_functions(model, r, p)]
    return [lr, lp, lr.inverse(), lp.inverse()] + \
        [f.inverse() for f in reversed(factors)]


def _restricted_words(family, n):
    """name -> letters for the five relation families on one model."""
    model = GroupModel(family, n)
    system = RestrictedSystem(model)
    v0, v1, v2, v3 = _values(family)
    short, l1, l2 = Root.of(n, 1, 2, 1, -1), Root.of(n, 1), Root.of(n, 2)
    words = {}
    a, b = _letter(system, short, v0, v1), _letter(system, short, v2, v3)
    c = system.letter(short, tuple(-x - y for x, y in zip(a.params, b.params)))
    words["additivity"] = [a, b, c]
    ra = _letter(system, short, v0, v3)
    words["commutator"] = _commutator_block(system, short, l2, ra.params,
                                            (v2,))
    la, lb = system.letter(l1, (v0,)), system.letter(l2, (v2,))
    words["trivial-commutator"] = [la, lb, la.inverse(), lb.inverse()]
    p1, p2, p12 = (_letter(system, short, t).params
                   for t in (v0, F(-5), v0 * F(-5)))
    words["h-multiplicativity"] = (
        h_word_letters(model, short, p1) + h_word_letters(model, short, p2)
        + [l.inverse() for l in reversed(h_word_letters(model, short, p12))])
    u = system.letter(Root.of(n, 1, si=-1), (F(7),))
    words["conjugation-push"] = [u] + words["commutator"] + [u.inverse()]
    return words


def _tagged_words(family, n):
    """Component letters whose commutators are single tagged letters."""
    model = GroupModel(family, n)
    system = RestrictedSystem(model)
    v0, v1, v2, v3 = _values(family)
    out = []
    # [x_{L1-L2:1}(a), x_{2L2}(b)] = x_{L1+L2:1}(ab)
    a = system.letter(Root.of(n, 1, 2, 1, -1, tag=1), (v0,))
    b = system.letter(Root.of(n, 2), (v2,))
    f = system.letter(Root.of(n, 1, 2, 1, 1, tag=1), (v0 * v2,))
    out += [a, b, a.inverse(), b.inverse(), f.inverse()]
    # [x_{L1-L2:2}(a), x_{-2L1}(b)] = x_{-L1-L2:1}(ab)
    a = system.letter(Root.of(n, 1, 2, 1, -1, tag=2), (v1,))
    b = system.letter(Root.of(n, 1, si=-1), (v3,))
    f = system.letter(Root.of(n, 1, 2, -1, -1, tag=1), (v1 * v3,))
    out += [a, b, a.inverse(), b.inverse(), f.inverse()]
    # [x_{L1-L2:1}(a), x_{L1+L2}(b1, b2)] = x_{2L1}(a b2)
    a = system.letter(Root.of(n, 1, 2, 1, -1, tag=1), (v2,))
    b = system.letter(Root.of(n, 1, 2, 1, 1), (v0, v1))
    f = system.letter(Root.of(n, 1), (v2 * v1,))
    out += [a, b, a.inverse(), b.inverse(), f.inverse()]
    return out


def _standard_words(size):
    """Commutator and trivial-commutator blocks of elementary letters."""
    system = StandardSystem(size)

    def x(k, l, t):
        return system.letter(Root.of(size, k, l, 1, -1), (F(t),))

    def block(a, b):
        comm = commutator_value(system, a.root, a.params, b.root, b.params)
        factors = [x(k, l, v) for (k, l), v in sorted(comm.items())]
        return [a, b, a.inverse(), b.inverse()] + \
            [f.inverse() for f in reversed(factors)]

    words = {"commutator": block(x(1, 3, F(7, 3)), x(3, 4, 1)),
             "trivial-commutator": block(x(1, 2, 2), x(3, 4, 3))}
    if size > 4:
        words["two-blocks"] = block(x(2, 5, -2), x(5, 6, F(1, 2))) + \
            block(x(6, 1, 3), x(1, 4, -1))
    return words


def _seeded_words(family, n):
    """Three seeded identity words of three blocks
    u [x_r(a), x_p(b)] (factors)^-1 u^-1 each."""
    rng = random.Random("reduce-golden:%s:%d" % (family, n))
    model = GroupModel(family, n)
    system = RestrictedSystem(model)
    roots = list(system.system.roots)
    values = _values(family) + [F(-1), F(1, 2)]

    def params(root):
        return tuple(rng.choice(values) for _ in range(model.param_arity(root)))

    words = []
    for _ in range(3):
        letters = []
        for _ in range(3):
            while True:
                r, p = rng.choice(roots), rng.choice(roots)
                if any(x + y for x, y in zip(r.coeffs, p.coeffs)):
                    break
            rsum = tuple(x + y for x, y in zip(r.coeffs, p.coeffs))
            a, b = params(r), params(p)
            if system.system.is_root(rsum):
                block = _commutator_block(system, r, p, a, b)
            else:
                lr, lp = system.letter(r, a), system.letter(p, b)
                block = [lr, lp, lr.inverse(), lp.inverse()]
            ur = rng.choice(roots)
            u = system.letter(ur, params(ur))
            letters += [u] + block + [u.inverse()]
        words.append(letters)
    return words


def _w_power(family, n):
    """w_r(1)^4 on the short root L1-L2: a cycle no move can reduce."""
    model = GroupModel(family, n)
    one = (F(1),) if model.is_sp else (F(1), F(0))
    return w_word_letters(model, Root.of(n, 1, 2, 1, -1), one) * 4


# an sp n=2 cycle that the forward pass leaves at 13 letters after 46
# moves on the plane eq:-2,-1, whatever the budget
STUCK_REGION_WORD = (
    "x 1,1 (1)", "x 0,-2 (-2)", "x 1,1 (-3/2)", "x 0,-2 (2)", "x 1,1 (3/2)",
    "x 2,0 (9/2)", "x 1,-1 (3)", "x 1,1 (-1)", "x 2,0 (1/2)",
    "x -1,-1 (-2)", "x -1,1 (1)", "x -1,-1 (2)", "x -1,1 (-1)",
    "x -2,0 (4)", "x 2,0 (-1/2)", "x 2,0 (-3/2)", "x -2,0 (-1)",
    "x 1,1 (1/2)", "x -2,0 (1)", "x 1,1 (-1/2)", "x 0,2 (1/4)",
    "x -1,1 (-1/2)", "x 2,0 (3/2)")


def reduce_words():
    """(case name, argv with WORDFILE, letters) for every reduce golden."""
    cases = []

    def add(name, argv, letters):
        cases.append((name, ["reduce"] + argv, letters))

    for family in FAMILIES:
        for n in (2, 3):
            model = ["--model", family, "--n", str(n)]
            for kind, letters in _restricted_words(family, n).items():
                add("%s-n%d-%s" % (family, n, kind), model + ["WORDFILE"],
                    letters)
            if family != "sp":
                add("%s-n%d-tagged" % (family, n), model + ["WORDFILE"],
                    _tagged_words(family, n))
            for k, letters in enumerate(_seeded_words(family, n)):
                add("%s-n%d-seeded%d" % (family, n, k),
                    model + ["WORDFILE", "--budget", "200"], letters)
    words = _restricted_words("sp", 2)
    add("sp-n2-additivity-text", ["--model", "sp", "--n", "2", "WORDFILE",
                                  "--format", "text"], words["additivity"])
    add("sp-n2-commutator-region", ["--model", "sp", "--n", "2", "WORDFILE",
                                    "--region", "1,1"],
        words["commutator"] + words["trivial-commutator"])
    add("sp-n2-budget-exhausted", ["--model", "sp", "--n", "2", "WORDFILE",
                                   "--budget", "3"], words["commutator"])
    add("sl-r-n2-stuck", ["--model", "sl-r", "--n", "2", "WORDFILE"],
        _w_power("sl-r", 2))
    sp2 = RestrictedSystem(GroupModel("sp", 2))
    add("sp-n2-stuck-region", ["--model", "sp", "--n", "2", "WORDFILE",
                               "--region", "eq:-2,-1"],
        [sp2.parse_letter(line) for line in STUCK_REGION_WORD])
    for size in (4, 6):
        std = ["--system", "standard", "--ambient", str(size), "WORDFILE"]
        region = "eq:1,1,1,1;0,1,2,3" if size == 4 else "eq:1,1,1,1,1,1"
        for kind, letters in _standard_words(size).items():
            add("standard-%d-%s" % (size, kind), std, letters)
            add("standard-%d-%s-region" % (size, kind),
                std + ["--region", region], letters)
    return cases


def reduce_cases():
    """(case name, argv with WORDFILE, word text) for every reduce golden."""
    return [(name, argv, "\n".join(l.format() for l in letters) + "\n")
            for name, argv, letters in reduce_words()]


def run_reduce(argv, word_text):
    """(exit code, stdout) of one reduce case, run on a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "word.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(word_text)
        return run_cli([path if a == "WORDFILE" else a for a in argv])


def reduce_text(argv, word_text):
    """The golden text of one reduce case."""
    code, out = run_reduce(argv, word_text)
    assert code in (0, 1), argv
    return "$ %s\n--- WORDFILE\n%s--- stdout\n%s" % (" ".join(argv),
                                                      word_text, out)


def _regions(ambient):
    """No region, and one plane on which some functionals vanish."""
    if ambient == 2:
        return [None, "1,1"]
    if ambient == 3:
        return [None, "eq:1,1,1"]
    return [None, "eq:1,1,1,1;0,1,2,3" if ambient == 4 else "eq:1,1,1,1,1,1"]


def _root_words(system, roots):
    """Single letters and ordered pairs (plus a repeated first root)."""
    words = [[r] for r in roots]
    words += [[r, p, r] for r in roots for p in roots
              if any(x + y for x, y in zip(r.coeffs, p.coeffs)) and r != p]
    return words


# systems pinned on ordered root pairs and on companion roots too
SMALL_SYSTEMS = ("sp-n2", "sl-r-n2", "sl-c-n2", "standard-4")


def _pin_systems():
    """(label, system, letter roots) for the stability and bracket pins."""
    out = []
    for family in FAMILIES:
        for n in (2, 3):
            system = RestrictedSystem(GroupModel(family, n))
            roots = list(system.system.roots)
            if family != "sp":
                roots += [Root(r.coeffs, tag) for r in system.system.roots
                          if not r.is_long for tag in (1, 2)]
            out.append(("%s-n%d" % (family, n), system, roots))
    for size in (4, 6):
        system = StandardSystem(size)
        out.append(("standard-%d" % size, system,
                    list(standard_sl_roots(size))))
    return out


def stability_text():
    lines = []
    for label, system, roots in _pin_systems():
        if label.startswith("sl-c"):
            continue  # its functionals are sl-r's
        words = _root_words(system, roots) if label in SMALL_SYSTEMS else \
            [[r] for r in roots]
        for region_txt in _regions(system.ambient_dim):
            region = None if region_txt is None else \
                _parse_plane(region_txt, system.ambient_dim)
            for roots_ in words:
                word = Word(system, tuple(
                    _letter(system, r, F(1)) for r in roots_))
                st = is_stable_word(word, region)
                lines.append("%s %s [%s] -> %s" % (
                    label, region_txt, " ".join(str(r) for r in roots_),
                    json.dumps(st.describe(), sort_keys=True)))
    return "\n".join(lines) + "\n"


def bracket_text():
    lines = []
    for label, system, roots in _pin_systems():
        if label == "sl-c-n3":
            continue  # real targets: sl-r's decompositions
        companion_sets = [()]
        if label in SMALL_SYSTEMS:
            companion_sets.append((roots[0].untagged(),))
        for region_txt in _regions(system.ambient_dim):
            region = None if region_txt is None else \
                _parse_plane(region_txt, system.ambient_dim)
            for companions in companion_sets:
                for r in roots:
                    target = _letter(system, r, F(7, 3), F(-2))
                    decs = [d.describe() for d in
                            enumerate_bracket_decompositions(
                                system, target, region, companions)]
                    lines.append("%s %s %s %s -> %s" % (
                        label, region_txt,
                        [str(c) for c in companions], target.format(),
                        json.dumps(decs, sort_keys=True)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,argv,word_text", reduce_cases(),
                         ids=[name for name, _, _ in reduce_cases()])
def test_reduce_golden(name, argv, word_text):
    golden = GOLDEN / ("reduce-%s.txt" % name)
    assert reduce_text(argv, word_text) == golden.read_text(encoding="utf-8")


def test_stuck_region_word_stops_below_the_budget():
    # no move applies after 46 moves, so budget 200 prints the same bytes
    # as the default budget the golden runs at
    (argv, word_text), = [(argv, text) for name, argv, text in reduce_cases()
                          if name == "sp-n2-stuck-region"]
    golden = (GOLDEN / "reduce-sp-n2-stuck-region.txt").read_text(
        encoding="utf-8")
    stdout = golden.split("--- stdout\n", 1)[1]
    out = json.loads(stdout)
    assert out["failure"] == "no applicable move"
    assert (len(out["moves"]), len(out["final"])) == (46, 13)
    for budget in ("200", "10000"):
        assert run_reduce(argv + ["--budget", budget], word_text) == \
            (1, stdout)


def test_read_letter_gives_back_every_golden_letter():
    # read_letter is the one reader of the letter text of both systems
    letters = [l for _name, _argv, word in reduce_words() for l in word]
    assert len(letters) > 700
    for l in letters:
        assert read_letter(l.format()) == (l.kind, l.root, l.params)


def test_reduce_goldens_are_all_cases():
    names = {"reduce-%s.txt" % name for name, _, _ in reduce_cases()}
    assert {p.name for p in GOLDEN.glob("reduce-*.txt")} == names


def test_stability_witnesses_golden():
    golden = GOLDEN / "stability-witnesses.txt"
    assert stability_text() == golden.read_text(encoding="utf-8")


def test_bracket_decompositions_golden():
    golden = GOLDEN / "bracket-decompositions.txt"
    assert bracket_text() == golden.read_text(encoding="utf-8")
