"""Command-line surface: subcommands, exit codes, deterministic reports."""

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import cli, generators, relations
from chevalley.cli import main
from chevalley.generators import GeneratorError, GeneratorLetter, GroupModel
from chevalley.matrices import ExactMatrix
from chevalley.roots import Root, RootError
from chevalley.scalars import (ScalarError, format_scalar, parse_scalar,
                               read_integer, read_list, read_rational)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_err(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


GOLDEN = Path(__file__).parent / "golden"
GAUSSIAN_GRID = "1+i,-1,2,-2i,3,1/2-i,-1/2,2/3+2/3i,5/7,i,-3"


class TestVerify:
    def test_sp_n2_relations_pass(self):
        code, out = run_cli("verify", "--model", "sp", "--n", "2",
                            "--suite", "relations")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["checked"] > 0
        assert all(r["verdict"] == "pass" for r in payload["reports"])

    def test_symbolic_regime(self):
        code, out = run_cli("verify", "--model", "sl-c", "--n", "2",
                            "--suite", "relations", "--regime", "symbolic")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert all(r["regime"] == "symbolic" for r in payload["reports"])

    def test_rank_one_usage_error(self):
        code, _out = run_cli("verify", "--model", "sp", "--n", "1")
        assert code == 2

    def test_reports_are_byte_stable(self):
        a = run_cli("verify", "--model", "sp", "--n", "2", "--suite", "monomial")
        b = run_cli("verify", "--model", "sp", "--n", "2", "--suite", "monomial")
        assert a == b

    def test_no_floats_anywhere(self):
        _code, out = run_cli("verify", "--model", "sp", "--n", "2",
                             "--suite", "relations")
        for tok in out.replace(",", " ").split():
            assert "e-" not in tok.lower() or "relation" in tok
        assert "." not in json.dumps(json.loads(out)["reports"])

    def test_default_regime_is_the_symbolic_proof(self):
        code, out = run_cli("verify", "--model", "sp", "--n", "2",
                            "--suite", "all")
        assert code == 0
        golden = GOLDEN / "verify-sp-n2-symbolic.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_grid_implies_the_grid_regime(self):
        grid = ("--grid", "1,2,3,4,5,6,7,8,9")
        implied = run_cli("verify", "--model", "sp", "--n", "2",
                          "--suite", "relations", *grid)
        assert implied == run_cli("verify", "--model", "sp", "--n", "2",
                                  "--suite", "relations", "--regime", "grid",
                                  *grid)
        assert implied[0] == 0
        assert json.loads(implied[1])["regime"] == "grid"

    @pytest.mark.parametrize("family", ["sp", "sl-r", "sl-c"])
    def test_library_default_is_the_cli_default(self, family):
        # run_suite with no regime and no grid proves, as verify does
        reports = relations.run_suite(GroupModel(family, 2), "all")
        code, out = run_cli("verify", "--model", family, "--n", "2")
        payload = json.loads(out)
        assert (code, payload["regime"]) == (0, "symbolic")
        assert [r.to_json_dict() for r in reports] == payload["reports"]

    def test_custom_grid_too_small(self):
        code, _ = run_cli("verify", "--model", "sp", "--n", "2",
                          "--grid", "1,2,3")
        assert code == 2

    def test_non_real_gaussian_sweep(self):
        code, out = run_cli("verify", "--model", "sl-c", "--n", "2",
                            "--suite", "all", "--grid", GAUSSIAN_GRID)
        assert code == 0
        payload = json.loads(out)
        assert (len(payload["reports"]), payload["failed"]) == (103, 0)
        for family in ("sp", "sl-r"):
            code, out = run_cli("verify", "--model", family, "--n", "2",
                                "--suite", "all", "--grid", GAUSSIAN_GRID)
            assert (code, out) == (2, "")

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("regime", [("--regime", "symbolic"),
                                        ("--regime", "grid")])
    def test_sl_c_proof_is_sl_r(self, n, regime):
        # the structure constants are integers, so the symbolic proof over Q
        # carries to Q(i), and the default grid is rational: each regime
        # prints sl-r's report for sl-c
        outs = {}
        for family in ("sl-r", "sl-c"):
            code, outs[family] = run_cli("verify", "--model", family,
                                         "--n", n, "--suite", "all", *regime)
            assert code == 0
        assert '"sl-c"' in outs["sl-c"]
        assert outs["sl-c"].replace('"sl-c"', '"sl-r"') == outs["sl-r"]

    def test_text_format(self):
        code, out = run_cli("verify", "--model", "sp", "--n", "2",
                            "--suite", "monomial", "--format", "text")
        assert code == 0 and "relation_id" in out


def _clear_caches():
    for module in (relations, generators):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def _w_factors_plus_inverse(root, params):
    # w_r(t) = x_r(t) x_{-r}(+1/t) x_r(t): the sign of the middle slot lost
    inv = tuple(1 / p if p else p for p in params)
    return ((root, params), (-root, inv), (root, params))


def _x_delta_l1_minus_l2_negated(model, root, params, real=relations.x_delta):
    delta = real(model, root, params)
    if root.untagged() == Root.of(model.n, 1, 2, 1, -1):
        return {k: -v for k, v in delta.items()}
    return delta


class TestWrongW:
    """A wrong w-word is a failing verification (exit 1), never a usage
    error: the suites report what they could not evaluate."""

    MUTANTS = {"w_factors": _w_factors_plus_inverse,
               "x_delta": _x_delta_l1_minus_l2_negated}
    # failing reports of the sp n=2 cells: sp has no component suite
    SP_FAILED = {("w_factors", "weyl"): 10, ("w_factors", "all"): 15,
                 ("x_delta", "weyl"): 10, ("x_delta", "all"): 16}

    @pytest.fixture
    def mutant(self, request, monkeypatch):
        name = request.param
        _clear_caches()
        monkeypatch.setattr(relations, name, self.MUTANTS[name])
        yield name
        monkeypatch.undo()
        _clear_caches()

    @pytest.mark.parametrize("mutant", ["w_factors", "x_delta"],
                             indirect=True)
    @pytest.mark.parametrize("regime", ["grid", "symbolic"])
    def test_fails_its_reports(self, mutant, regime):
        for family, suite in itertools.product(("sl-r", "sp"),
                                               ("weyl", "all")):
            code, out, err = run_cli_err("verify", "--model", family, "--n",
                                         "2", "--suite", suite, "--regime",
                                         regime)
            assert (code, err) == (1, "")
            payload = json.loads(out)
            failed = [r for r in payload["reports"] if r["verdict"] == "fail"]
            assert payload["failed"] == len(failed) > 0
            if family == "sp":
                assert len(failed) == self.SP_FAILED[mutant, suite]
                continue
            component = [r for r in failed
                         if r["relation_id"] == "weyl-component-conj"]
            assert component and all(
                r["note"] == "I + delta is not monomial"
                and r["instances"] == 0 for r in component)


def _doubled_combinations(r, p, real=relations.positive_combinations):
    # every factor root listed twice: its support overlaps itself
    return real(r, p) * 2


def _raised_combinations(r, p, real=relations.positive_combinations):
    # each factor's law claimed at bidegree (i+1, j)
    return [(i + 1, j, q) for i, j, q in real(r, p)]


def _third_commutator(model, r, p, a, b, real=relations.commutator_delta):
    # every commutator entry divided by 3: each sp law's coefficient too
    return {k: v / 3 for k, v in real(model, r, p, a, b).items()}


class TestFitGuards:
    """A pair whose laws fail a guard of the law fit is a failing
    commutator report with the guard's text as its note (exit 1), never a
    usage error."""

    GUARDS = {
        "overlap": ("positive_combinations", _doubled_combinations,
                    "overlapping factor supports for "),
        "bidegree": ("positive_combinations", _raised_combinations,
                     "bidegree violation at "),
        "sp-monomial": ("commutator_delta", _third_commutator,
                        "sp law is not a single integer monomial"),
    }

    @pytest.fixture
    def guard(self, request, monkeypatch):
        name, mutant, text = self.GUARDS[request.param]
        _clear_caches()
        monkeypatch.setattr(relations, name, mutant)
        yield text
        monkeypatch.undo()
        _clear_caches()

    @pytest.mark.parametrize("guard", sorted(GUARDS), indirect=True)
    def test_fails_the_commutator_report(self, guard):
        code, out, err = run_cli_err("verify", "--model", "sp", "--n", "2",
                                     "--suite", "relations", "--regime",
                                     "symbolic")
        assert (code, err) == (1, "")
        failed = [r for r in json.loads(out)["reports"]
                  if r["verdict"] == "fail"]
        # every pair with a commutator factor: 24 on sp n=2
        assert len(failed) == 24
        assert all(r["note"].startswith(guard)
                   and (r["relation_id"], r["instances"]) == ("commutator", 0)
                   for r in failed)


class TestGeneric:
    def test_example_plane(self):
        code, out = run_cli("generic", "--roots", "builtin:sl-standard",
                            "--n", "2", "--plane", "eq:1,1,1,1;0,1,2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["generic"] is False
        assert payload["reason"] == "shared-line"
        assert set(payload["witness"]) == {"1,0,0,-1", "0,1,-1,0"}
        assert payload["line"] == ["1", "-1", "-1", "1"]

    def test_builtin_restricted_full_plane_generic(self):
        code, out = run_cli("generic", "--roots", "builtin:restricted",
                            "--n", "2", "--plane", "1,0;0,1")
        assert code == 0
        assert json.loads(out)["generic"] is True

    def test_malformed_plane(self):
        code, _ = run_cli("generic", "--roots", "builtin:restricted",
                          "--n", "2", "--plane", "1,0;2,0")
        assert code == 2

    def test_missing_plane(self):
        code, _ = run_cli("generic", "--roots", "builtin:restricted", "--n", "2")
        assert code == 2


class TestStable:
    def test_search(self):
        code, out = run_cli("stable", "--roots", "builtin:restricted",
                            "--n", "2")
        assert code == 0
        payload = json.loads(out)
        # the full restricted list contains antipodal pairs: infeasible
        assert payload["feasible"] is False
        assert payload["certificate"]

    def test_check_known_stable_point(self, tmp_path):
        roots = tmp_path / "roots.txt"
        roots.write_text("0,0,1,-1\n0,1,-1,0\n")
        code, out = run_cli("stable", "--roots", str(roots),
                            "--check", "5,-8,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["values"] == ["-1", "-9"]

    def test_check_invalid_point(self, tmp_path):
        roots = tmp_path / "roots.txt"
        roots.write_text("0,0,1,-1\n")
        code, out = run_cli("stable", "--roots", str(roots),
                            "--check", "0,0,1,0")
        assert code == 1
        assert json.loads(out)["valid"] is False

    @pytest.mark.parametrize("region, on", [("eq:1,1,1,1", True),
                                            ("eq:1,0,0,0", False)])
    def test_check_on_a_region(self, tmp_path, region, on):
        # 5 - 8 + 1 + 2 = 0: the point lies on the trace-zero plane only
        roots = tmp_path / "roots.txt"
        roots.write_text("0,0,1,-1\n0,1,-1,0\n")
        code, out = run_cli("stable", "--roots", str(roots),
                            "--check", "5,-8,1,2", "--region", region)
        payload = json.loads(out)
        assert payload["on_region"] is on and payload["valid"] is on
        assert payload["values"] == ["-1", "-9"]
        assert code == (0 if on else 1)


class TestChambers:
    def test_restricted_n2(self):
        code, out = run_cli("chambers", "--roots", "builtin:restricted",
                            "--n", "2")
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_sl_standard_trace_zero(self):
        code, out = run_cli("chambers", "--roots", "builtin:sl-standard",
                            "--n", "2", "--region", "eq:1,1,1,1")
        assert code == 0
        assert json.loads(out)["count"] == 24

    def test_sl_standard_n3_trace_zero(self):
        # the non-generic SL(6) arrangement on the trace-zero plane: every
        # L_k - L_l vanishes on (1,...,1), so its chambers are the 6! of the
        # full space, each sample checked on the plane and on its signs
        code, out = run_cli("chambers", "--roots", "builtin:sl-standard",
                            "--n", "3", "--region", "eq:1,1,1,1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == len(payload["chambers"]) == 720
        normals = [[int(c) for c in h.split(",")]
                   for h in payload["hyperplanes"]]
        seen = set()
        for chamber in payload["chambers"]:
            point = [Fraction(c) for c in chamber["sample"]]
            signs = tuple(chamber["signs"])
            assert sum(point) == 0 and signs not in seen
            seen.add(signs)
            for s, h in zip(signs, normals, strict=True):
                assert s * sum(a * x for a, x in zip(h, point)) > 0


class TestReduce:
    def test_reduce_word_file(self, tmp_path):
        wf = tmp_path / "word.txt"
        wf.write_text("x 0,2 (2)\nx 0,2 (3)\nx 0,2 (-5)\n")
        code, out = run_cli("reduce", str(wf), "--model", "sp", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced"] is True and payload["final"] == []

    def test_reduce_non_cycle(self, tmp_path):
        wf = tmp_path / "word.txt"
        wf.write_text("x 0,2 (2)\n")
        code, _ = run_cli("reduce", str(wf), "--model", "sp", "--n", "2")
        assert code == 2

    def test_reduce_standard_system(self, tmp_path):
        wf = tmp_path / "word.txt"
        wf.write_text("x 1,0,0,-1 (2)\nx 1,0,0,-1 (-2)\n")
        code, out = run_cli("reduce", str(wf), "--system", "standard",
                            "--ambient", "4")
        assert code == 0 and json.loads(out)["reduced"] is True

    def test_reduce_mixed_gaussian_and_symbol_is_usage_error(self, tmp_path):
        # a Gaussian value and a symbol have no common mode: exit 2 with a
        # one-line message, not the exit 1 of a failed reduction
        wf = tmp_path / "word.txt"
        wf.write_text("x 1,-1 (1+i, 0)\nx 1,-1 (a, 0)\n")
        code, out, err = run_cli_err("reduce", str(wf), "--model", "sl-c",
                                     "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: word mixes scalar modes")
        assert "Traceback" not in err

    @pytest.mark.parametrize("system", [("--model", "sp", "--n", "2"),
                                        ("--system", "standard",
                                         "--ambient", "4")])
    def test_root_of_another_size_is_a_bad_letter(self, system, tmp_path):
        # a rank-3 root on an n=2 model, or a 6-vector on ambient 4: exit 2
        # on line 1, never a letter read as a shorter root
        root = "1,-1,0" if "sp" in system else "1,0,-1,0,0,0"
        wf = tmp_path / "word.txt"
        wf.write_text("x %s (2)\nx %s (-2)\n" % (root, root))
        code, out, err = run_cli_err("reduce", str(wf), *system)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad letter on line 1: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("word, system", [
        ("x 1,-1 (2,)\nx 1,-1 (-2)\n", ("--model", "sp", "--n", "2")),
        ("x 1,-1 (,2)\nx 1,-1 (-2)\n", ("--model", "sp", "--n", "2")),
        ("x 1,-1 (2)))\nx 1,-1 (-2)\n", ("--model", "sp", "--n", "2")),
        ("x 1,0,0,-1 (2\nx 1,0,0,-1 (-2)\n",
         ("--system", "standard", "--ambient", "4")),
        ("x 1,0,0,-1:1 (2)\nx 1,0,0,-1 (-2)\n",
         ("--system", "standard", "--ambient", "4")),
        ("x \u0661,-1 (2)\nx 1,-1 (-2)\n", ("--model", "sp", "--n", "2")),
        ("x 1,-1 (1.5)\nx 1,-1 (-3/2)\n", ("--model", "sp", "--n", "2")),
        ("x 1,-1:+1 (2)\nx 1,-1:1 (-2)\n", ("--model", "sl-r", "--n", "2"))],
        ids=["trailing-empty-slot", "leading-empty-slot", "extra-parens",
             "standard-unclosed", "standard-tagged", "arabic-indic-digit",
             "decimal-slot", "signed-tag"])
    def test_malformed_letter_is_a_bad_letter(self, word, system, tmp_path):
        # each first line would reduce if read leniently; it is a bad letter
        wf = tmp_path / "word.txt"
        wf.write_text(word)
        code, out, err = run_cli_err("reduce", str(wf), *system)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad letter on line 1: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestDecompose:
    def test_two_factor_string(self):
        code, out = run_cli("decompose", "--model", "sp", "--n", "2",
                            "-r", "1,-1", "-p", "0,2", "-a", "2", "-b", "3")
        assert code == 0
        payload = json.loads(out)
        assert [f["root"] for f in payload["factors"]] == ["1,1", "2,0"]
        assert len(payload["laws"]) == 2

    def test_antipodal_rejected(self):
        code, _ = run_cli("decompose", "--model", "sp", "--n", "2",
                          "-r", "1,-1", "-p", "-1,1", "-a", "1", "-b", "1")
        assert code == 2


# every field of a consequence's payload
SYMBOL_CONSEQUENCE_FIELDS = {"certificate", "consequence", "expression",
                             "lattice", "replay_ok"}


class TestSymbol:
    def test_axiom_consequence(self):
        code, out = run_cli("symbol", "--universe", "2,-2,-1",
                            "--expr", '[[["2","-2"],1]]')
        assert code == 0
        payload = json.loads(out)
        assert payload["consequence"] is True
        assert payload["replay_ok"] is True
        assert set(payload) == SYMBOL_CONSEQUENCE_FIELDS

    def test_gaussian_paired_with_rational_argument(self):
        # {i,-1}{-1,i} is an antisymmetry instance
        code, out = run_cli("symbol", "--universe", "i,-1,-i",
                            "--expr", '[[["i","-1"],1],[["-1","i"],1]]')
        assert code == 0
        payload = json.loads(out)
        assert payload["consequence"] is True
        assert payload["replay_ok"] is True
        assert set(payload) == SYMBOL_CONSEQUENCE_FIELDS

    def test_bilinear_only_rejection(self):
        code, out = run_cli("symbol", "--universe", "2,3,6",
                            "--expr", '[[["2","3"],1]]', "--axioms", "bilinear")
        assert code == 0
        assert json.loads(out)["consequence"] is False

    def test_bad_expr(self):
        code, _ = run_cli("symbol", "--universe", "2,3", "--expr", "nope")
        assert code == 2

    def test_real_gaussian_universe_value_is_its_rational(self):
        expr = '[[["2","-1"],1],[["-1","2"],1]]'
        first, second = (run_cli("symbol", "--universe",
                                 two + ",1+i,1-i,-1,-2,2i,-2i", "--expr", expr)
                         for two in ("2+0i", "2"))
        assert first[0] == 0
        assert first == second

    @pytest.mark.parametrize("expr", ['[[["2","3"],1.5]]',
                                      '[[["2","3"],true]]', "{}"],
                             ids=["float-exponent", "bool-exponent",
                                  "not-a-list"])
    def test_expr_is_never_reinterpreted(self, expr):
        code, out, err = run_cli_err("symbol", "--universe", "2,3,6",
                                     "--expr", expr)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --expr")

    @pytest.mark.parametrize("arg", ["0.5", "true", "null", "[2]", '"1.5"'])
    def test_expr_arguments_are_strings_or_integers(self, arg):
        # a JSON float is never read as a rational, nor true as a symbol
        code, out, err = run_cli_err("symbol", "--universe", "2,3,6",
                                     "--expr", '[[[%s,"3"],1]]' % arg)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --expr")
        assert len(err.splitlines()) == 1 and "LaurentFrac" not in err

    def test_expr_integer_arguments_read_as_their_strings(self):
        assert run_cli("symbol", "--universe", "2,-2,-1",
                       "--expr", '[[[2,-2],1]]') == \
            run_cli("symbol", "--universe", "2,-2,-1",
                    "--expr", '[[["2","-2"],1]]')


# Out-of-domain input: each argv must end in exit 2 with one error line.
WORD = "x 0,2 (2)\nx 0,2 (-2)\n"
USAGE_ERRORS = [
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1", "-p", "0,2",
     "-a", "i", "-b", "1"),
    ("verify", "--model", "sl-r", "--n", "2", "--suite", "monomial",
     "--grid", "1+i,2,3,4,5,6,7,8,9"),
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--grid", "1+i,2,3,4,5,6,7,8,9"),
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--grid", "a,b,c,d,e,f,g,h,k"),
    ("verify", "--model", "sp", "--n", "2", "--regime", "symbolic",
     "--grid", "1,2"),
    # the symbolic regime reads no grid, even a valid one
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--regime", "symbolic", "--grid", "1,2,3,4,5,6,7,8,9"),
    ("reduce", "WORDFILE", "--model", "sp", "--n", "2", "--budget", "-5"),
    # rank-3 roots on an n=2 model, never relabelled as n=2 roots
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1,0", "-p", "0,2,0",
     "-a", "1", "-b", "1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,0,-1", "-p", "0,0,2",
     "-a", "1", "-b", "1"),
    # vector slots are exact rationals: no ZeroDivisionError traceback and
    # no empty slot dropped from a point
    ("generic", "--roots", "builtin:restricted", "--n", "2",
     "--plane", "1/0,1;0,1"),
    ("stable", "--roots", "builtin:restricted", "--n", "2", "--check", "1/0,1"),
    ("stable", "--roots", "builtin:restricted", "--n", "2",
     "--region", "1/0,1"),
    ("chambers", "--roots", "builtin:restricted", "--n", "2",
     "--region", "1/0,1"),
    ("reduce", "WORDFILE", "--model", "sp", "--n", "2", "--region", "1/0,1"),
    ("stable", "--roots", "builtin:restricted", "--n", "2", "--check", "1,,2"),
    # a space inside a rational never joins its digits: "1 0" is not 10
    ("stable", "--roots", "builtin:restricted", "--n", "2", "--check", "1 0,-3"),
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--grid", "1 2,3,4,5,6,7,8,9,10"),
    # nor in a Gaussian value: "1 2+i" is not 12+i
    ("verify", "--model", "sl-c", "--n", "2", "--suite", "monomial",
     "--grid", "1 2+i,2,3,4,5,6,7,8,9"),
    # an empty vector is never dropped, and "eq:" needs an equation
    ("generic", "--roots", "builtin:restricted", "--n", "2",
     "--plane", "1,0;;0,1"),
    ("stable", "--roots", "builtin:restricted", "--n", "2", "--region", "eq:"),
    # decimals, exponents, "_" separators and non-ASCII digits are no
    # tokens of the grammar, never read as 3/2, 10, 1000 or 1
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1", "-p", "2,0",
     "-a", "1.5", "-b", "1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1", "-p", "2,0",
     "-a", "1", "-b", "1e1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1", "-p", "2,0",
     "-a", "1_000", "-b", "1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1", "-p", "2,0",
     "-a", "\u0661", "-b", "1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1_0,-1", "-p", "2,0",
     "-a", "1", "-b", "1"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,-1,", "-p", "2,0",
     "-a", "1", "-b", "1"),
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--grid", "1,2,3,4,5,6,7,8,1.5"),
    ("stable", "--roots", "builtin:restricted", "--n", "2",
     "--check", "-1.5,-3"),
    ("symbol", "--universe", "2,3,1e3", "--expr", '[[["2","3"],1]]'),
    # a --roots or word file that cannot be read, or a roots file with no
    # root
    ("stable", "--roots", "MISSING"),
    ("chambers", "--roots", "EMPTY"),
    ("reduce", "MISSING", "--model", "sp", "--n", "2"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda a: " ".join(a))
def test_out_of_domain_input_is_a_usage_error(argv, tmp_path):
    word = tmp_path / "word.txt"
    word.write_text(WORD)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no roots here\n\n")
    files = {"WORDFILE": str(word), "EMPTY": str(empty),
             "MISSING": str(tmp_path / "missing.txt")}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli_err(*argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# Values that start with "-", each passed as its own token after the option:
# the output must equal that of the attached "-a=-1/2" form.
DASH_VALUES = [
    ("decompose", "--model", "sp", "--n", "2", "-r", "-1,1", "-p", "2,0",
     "-a", "-1/2", "-b", "3"),
    ("decompose", "--model", "sp", "--n", "2", "-r", "1,1", "-p", "-1,1",
     "-a", "2", "-b", "-3/2"),
    ("decompose", "--model", "sl-c", "--n", "2", "-r", "1,-1", "-p", "0,2",
     "-a", "-i,2", "-b", "1"),
    ("stable", "--roots", "builtin:restricted", "--n", "2",
     "--check", "-1,-3"),
    ("verify", "--model", "sp", "--n", "2", "--suite", "monomial",
     "--grid", "-1,-2,-3,4,-4,5,-5,6,7"),
    ("reduce", "WORDFILE", "--model", "sp", "--n", "2", "--region", "-1,1"),
]


def attach_dash_values(argv):
    """["-a", "-1/2"] -> ["-a=-1/2"]."""
    out = []
    for a in argv:
        if a.startswith("-") and out and out[-1].startswith("-") \
                and "=" not in out[-1]:
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


@pytest.mark.parametrize("argv", DASH_VALUES, ids=lambda a: " ".join(a))
def test_value_starting_with_dash(argv, tmp_path):
    word = tmp_path / "word.txt"
    word.write_text(WORD)
    argv = [str(word) if a == "WORDFILE" else a for a in argv]
    attached = attach_dash_values(argv)
    assert attached != argv
    separate = run_cli_err(*argv)
    assert separate == run_cli_err(*attached)
    assert separate[0] in (0, 1) and separate[1] and not separate[2]


SCALARS = ("i", "x", "1+i", "0", "1/0", "", "1", "-1", "2", "-2", "3", "1/2",
           "-1/2", "2/3", "5/7", "2i", "1-i", "1.5", "1e3", "1_000")
ROOTS = ("1,-1", "-1,1", "1,1", "-1,-1", "2,0", "0,-2", "0,2", "1,-1:1",
         "1,1:2", "2,0:1", "1,-1:3", "1,0", "x")


def scalar_list(max_size):
    return st.lists(st.sampled_from(SCALARS), min_size=1,
                    max_size=max_size).map(",".join)


FAMILY = st.sampled_from(("sp", "sl-r", "sl-c"))
DECOMPOSE = st.tuples(FAMILY, st.sampled_from(ROOTS), st.sampled_from(ROOTS),
                      scalar_list(3), scalar_list(3)).map(
    lambda t: ("decompose", "--model", t[0], "--n", "2", "-r=" + t[1],
               "-p=" + t[2], "-a=" + t[3], "-b=" + t[4]))
# eight valid values, so a few more tokens often make a grid that runs
GRIDS = st.one_of(scalar_list(12), scalar_list(4).map(
    lambda g: "-1,-2,-3,4,-4,5,-5,6," + g))
VERIFY = st.tuples(FAMILY, GRIDS).map(
    lambda t: ("verify", "--model", t[0], "--n", "2", "--suite", "monomial",
               "--grid=" + t[1]))


@settings(max_examples=100, deadline=None)
@given(st.one_of(DECOMPOSE, VERIFY))
def test_fuzzed_argv_never_raises(argv):
    code, _out, err = run_cli_err(*argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# A builtin root list fixes the dimension: n for restricted, 2n for
# sl-standard.  A different --ambient, or a region equation of another
# length, is a usage error, not a silently ignored option or a traceback.
DIMENSION_ERRORS = [
    ("chambers", "--roots", "builtin:restricted", "--n", "2",
     "--ambient", "9"),
    ("stable", "--roots", "builtin:restricted", "--n", "3", "--ambient", "2"),
    ("generic", "--roots", "builtin:restricted", "--n", "2", "--ambient", "3",
     "--plane", "1,0;0,1"),
    ("chambers", "--roots", "builtin:sl-standard", "--n", "2",
     "--ambient", "2"),
    ("stable", "--roots", "builtin:restricted", "--n", "2",
     "--region", "eq:1"),
    # a file of 2-vectors read at --ambient 3
    ("stable", "--roots", "ROOTSFILE", "--ambient", "3",
     "--region", "eq:1,1,1", "--check", "-1,0"),
    # --ambient 0 is no dimension, never the file's own
    ("stable", "--roots", "ROOTSFILE", "--ambient", "0"),
    # the restricted system's dimension is --n; --ambient is never dropped
    ("reduce", "WORDFILE", "--model", "sp", "--n", "2", "--ambient", "7"),
]


@pytest.mark.parametrize("argv", DIMENSION_ERRORS, ids=lambda a: " ".join(a))
def test_dimension_mismatch_is_a_usage_error(argv, tmp_path):
    roots = tmp_path / "roots.txt"
    roots.write_text("1,-1\n1,1\n")
    word = tmp_path / "word.txt"
    word.write_text(WORD)
    files = {"ROOTSFILE": str(roots), "WORDFILE": str(word)}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli_err(*argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("roots, ambient", [("builtin:restricted", "2"),
                                            ("builtin:sl-standard", "4")])
def test_matching_ambient_is_accepted(roots, ambient):
    plain = run_cli("chambers", "--roots", roots, "--n", "2")
    assert plain[0] == 0
    assert run_cli("chambers", "--roots", roots, "--n", "2",
                   "--ambient", ambient) == plain


# main builds the parser of the one subcommand that argv[0] names and parses
# again with every subcommand on a usage error; its text must be the full
# parser's on either path, on whatever argparse the interpreter has.
COMMAND_NAMES = [name for name, _help, _func, _args in cli.COMMANDS]
TOP_USAGE = "{verify,generic,stable,chambers,reduce,decompose,symbol}"
LAZY_PARSE_CASES = (
    [[], ["-h"], ["frobnicate"]]
    + [[name, "--help"] for name in COMMAND_NAMES]
    + [[name, "--bogus"] for name in COMMAND_NAMES]
    + [["reduce", "WORD", "--bogus"],
       ["verify", "--model", "gl"],
       ["reduce", "WORD", "--model", "gl"],
       ["generic"],
       ["generic", "--n", "2"]])


def full_parser_main(argv):
    """main as it ran before it built one subcommand's parser: parse with
    the full parser, then run the command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
        else:
            code = cli._run(args)
    return code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    def test_commands_in_help_order(self):
        assert COMMAND_NAMES == ["verify", "generic", "stable", "chambers",
                                 "reduce", "decompose", "symbol"]

    @pytest.mark.parametrize("argv", LAZY_PARSE_CASES,
                             ids=lambda a: " ".join(a) or "no-arguments")
    def test_same_text_as_the_full_parser(self, argv):
        assert run_cli_err(*argv) == full_parser_main(argv)

    def test_top_level_messages_name_every_command(self):
        code, out, err = run_cli_err("reduce", "WORD", "--bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: chevalley [-h]")
        assert TOP_USAGE + " ..." in err
        assert "unrecognized arguments: --bogus" in err
        code, out, err = run_cli_err("frobnicate")
        assert (code, out) == (2, "")
        assert "argument command: invalid choice: 'frobnicate'" in err
        code, out, err = run_cli_err("-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: chevalley [-h]")
        assert TOP_USAGE + " ..." in out

    def test_a_command_builds_only_its_parser(self, monkeypatch, tmp_path):
        built = []
        real = cli.build_parser

        def spy(only=None):
            built.append(only)
            return real(only)

        monkeypatch.setattr(cli, "build_parser", spy)
        wf = tmp_path / "word.txt"
        wf.write_text("x 1,-1 (2)\nx 1,-1 (-2)\n")
        assert run_cli("reduce", str(wf))[0] == 0
        assert built == ["reduce"]
        del built[:]
        assert run_cli_err("reduce", str(wf), "--bogus")[0] == 2
        assert built == ["reduce", None]
        del built[:]
        assert run_cli_err("--help")[0] == 0
        assert built == [None]


def one_invocation(name, tmp_path):
    """An argv for the named subcommand; reduce reads a two-letter cycle."""
    word = tmp_path / "word.txt"
    word.write_text("x 1,-1 (2)\nx 1,-1 (-2)\n")
    return {
        "verify": ["verify", "--model", "sl-c", "--n", "2", "--suite", "all"],
        "generic": ["generic", "--roots", "builtin:restricted", "--n", "2",
                    "--plane", "1,0;0,1"],
        "stable": ["stable", "--roots", "builtin:restricted", "--n", "2"],
        "chambers": ["chambers", "--roots", "builtin:restricted", "--n", "2"],
        "reduce": ["reduce", str(word)],
        "decompose": ["decompose", "--model", "sl-r", "--n", "2",
                      "-r", "1,-1", "-p", "1,1", "-a", "2,3", "-b", "5,7"],
        "symbol": ["symbol", "--universe", "i,-1,-i",
                   "--expr", '[[["i","-1"],1],[["-1","i"],1]]'],
    }[name]


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_no_command_builds_a_dense_matrix(name, tmp_path, monkeypatch):
    # the dense ExactMatrix route is the tests' oracle alone: with its
    # construction refused, and no cached letter matrix to stand in for
    # one, every subcommand answers as it does unpatched
    argv = one_invocation(name, tmp_path)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a dense matrix was built")

    generators._letter_matrix.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "__init__", refuse)
        refused = run_cli_err(*argv)
    assert refused == run_cli_err(*argv)
    assert refused[0] == 0


@pytest.mark.parametrize("value", ["1_0", "1.0", " 10", "\u0661\u0660",
                                   "1e1"])
def test_integer_options_read_integer_tokens(value, tmp_path):
    # --budget 1_0 is not a budget of 10
    word = tmp_path / "word.txt"
    word.write_text(WORD)
    code, out, err = run_cli_err("reduce", str(word), "--budget", value)
    assert (code, out) == (2, "")
    assert "argument --budget: invalid int value" in err


# One grammar: strings drawn from the grammar's pieces and from noise that no
# token holds.  Every reader returns a value whose text reads back equal, or
# raises its module's error; the CLI turns that into exit 2 with one line.
SL_C2 = GroupModel("sl-c", 2)
GRAMMAR_TEXTS = ("3", "-5/7", "1/2+3/4 i", "- 2i", "i", "2 -i", "t1", "1,-1",
                 "0,2", "-1,1:2", "x 1,-1 (2, 3)", "x 0,2 (1/2)",
                 "w 1,1 (t, -1)", "x 1,-1:1 (1+i)", "1,0;0,1",
                 "1,2/3;-4,5;1,0;0,1")
GRAMMAR_NOISE = ("", " ", "  ", "\t", ",", ";", ":", "/", "+", "-", "i", "(",
                 ")", "0", "7", "_", ".", "e", "1/0", "\u0661", "\uff13")
# (name, reader, the value read back from its text)
READERS = [
    ("scalar", parse_scalar, lambda v: parse_scalar(format_scalar(v))),
    ("rational", read_rational, lambda v: read_rational(format_scalar(v))),
    ("integer", read_integer, lambda v: read_integer(str(v))),
    ("root", Root.parse, lambda v: Root.parse(v.format())),
    ("letter", lambda s: GeneratorLetter.parse(s, SL_C2),
     lambda v: GeneratorLetter.parse(v.format(), SL_C2)),
    ("scalar list", lambda s: read_list(s, ",", parse_scalar),
     lambda v: read_list(",".join(map(format_scalar, v)), ",", parse_scalar)),
]
MODULE_ERRORS = (ScalarError, RootError, GeneratorError)


def grammar_strings(rng, count):
    for _ in range(count):
        text = rng.choice(GRAMMAR_TEXTS)
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(text) + 1)
            cut = at + rng.randrange(2)
            text = text[:at] + rng.choice(GRAMMAR_NOISE) + text[cut:]
        yield text


def test_grammar_fuzz():
    rng = random.Random("one grammar")
    texts = list(grammar_strings(rng, 3000))
    for text in texts:
        for name, read, read_back in READERS:
            try:
                value = read(text)
            except MODULE_ERRORS as exc:
                assert "\n" not in str(exc), (name, text)
                continue
            assert not set(text) & {".", "\u0661", "\uff13"}, (name, text)
            assert read_back(value) == value, (name, text)
    for text in rng.sample(texts, 100):
        try:
            read_list(text, ",", read_rational)
            refused = False
        except ScalarError:
            refused = True
        code, _out, err = run_cli_err("stable", "--roots",
                                      "builtin:restricted", "--n", "2",
                                      "--check=" + text)
        assert code == 2 if refused else code in (0, 1, 2), text
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, text
