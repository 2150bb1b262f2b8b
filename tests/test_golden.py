"""Byte-identical command-line output against committed golden files.

The files under ``tests/golden/`` are the exact stdout of ``chevalley``
invocations.  ``verify-<family>-n<n>-<regime>.json`` holds one
``verify --suite all --format json`` report; ``decompose-<family>-n2.txt``
holds, for every ordered non-antipodal root pair at n=2, a ``$ <argv>`` line
followed by that ``decompose`` invocation's output.  Any change to a report,
a parameter text, an instance count or a fitted law shows up as a diff.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chevalley.cli import main
from chevalley.generators import GroupModel
from chevalley.roots import build_root_system

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = ("sp", "sl-r", "sl-c")

# fixed decompose parameters per family and slot count
DECOMPOSE_PARAMS = {
    "sp": {1: ("2/3", "-5")},
    "sl-r": {1: ("2/3", "-5"), 2: ("2/3,-3", "-5,1/2")},
    "sl-c": {1: ("1+2i", "-5"), 2: ("1+2i,-3/2i", "-5,1/2+i")},
}


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


def decompose_argvs(family):
    """Every ordered non-antipodal root pair at n=2, fixed parameters."""
    model = GroupModel(family, 2)
    params = DECOMPOSE_PARAMS[family]
    roots = build_root_system(2).roots
    out = []
    for r in roots:
        for p in roots:
            if all(x + y == 0 for x, y in zip(r.coeffs, p.coeffs)):
                continue
            a = params[model.param_arity(r)][0]
            b = params[model.param_arity(p)][1]
            # attached values, so that argparse reads "-1,1" as a value
            out.append(["decompose", "--model", family, "--n", "2",
                        "-r" + str(r), "-p" + str(p), "-a" + a, "-b" + b])
    return out


def decompose_text(family):
    chunks = []
    for argv in decompose_argvs(family):
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


@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_golden(family):
    golden = GOLDEN / ("decompose-%s-n2.txt" % family)
    assert decompose_text(family) == golden.read_text(encoding="utf-8")
