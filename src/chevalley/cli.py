"""Batch command-line surface with machine-readable reports.

Subcommands: verify, generic, stable, chambers, reduce, decompose, symbol.
All numbers in reports are exact rational (or Gaussian-rational) strings;
output is byte-stable for a fixed invocation.  Exit status: 0 when every
requested check passed (or the requested analysis completed), 1 when a
verification or reduction failed, 2 only for input the command rejects.  A
relation that cannot be evaluated fails its report, so it exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .arrangements import (Plane, find_stable_element, is_generic,
                           lyapunov_hyperplanes, weyl_chambers)
from .cycles import RestrictedSystem, StandardSystem, Word, reduce_cycle
from .generators import GroupModel
from .relations import (DEFAULT_GRID, REGIMES, SUITES, decompose_commutator,
                        regime_for, run_suite)
from .roots import Root, build_root_system, standard_sl_roots
from .scalars import (format_scalar, parse_scalar, read_integer, read_lines,
                      read_list, read_rational)
from .symbols import (ALL_AXIOMS, BILINEAR_ONLY, SymbolExpr,
                      build_axiom_lattice, is_consequence, replay_certificate)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative scalar (-1,1 or -1/2 or -i)
    as a value, not as an unknown option, and type=int as read_integer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\di]")
        self.register("type", int, read_integer)


def _emit(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    return _as_text(payload)


def _as_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_as_text(v, indent) for v in payload)
    return "%s%s" % (pad, payload)


def _parse_vector(text):
    """A list of exact rationals separated by ","."""
    return read_list(text, ",", read_rational)


def _parse_plane(text, ambient):
    """"<vec>;<vec>" gives a basis; "eq:<vec>;<vec>" gives equations.

    An empty vector, as in "1,0;;0,1" or a bare "eq:", is a usage error.
    """
    text = text.strip()
    eq = text.startswith("eq:")
    vecs = read_list(text[3:] if eq else text, ";", _parse_vector)
    return Plane.from_equations(ambient, vecs) if eq else Plane(ambient, vecs)


def _load_roots(source, n, ambient):
    """--roots <file|builtin:restricted|builtin:sl-standard>.

    A builtin list fixes its dimension (n, or 2n for sl-standard); an
    --ambient that differs from it is a usage error.  A file holds a root
    per content line; its dimension is --ambient, else its first root's
    length, and every root must have it.
    """
    if source in ("builtin:restricted", "builtin:sl-standard"):
        if n is None:
            raise UsageError("%s needs --n" % source)
        if source == "builtin:restricted":
            roots, dim = list(build_root_system(n).roots), n
        else:
            roots, dim = list(standard_sl_roots(2 * n)), 2 * n
        if ambient is not None and ambient != dim:
            raise UsageError("--ambient %d does not match the dimension %d of "
                             "%s" % (ambient, dim, source))
        return roots, dim
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read roots from %r: %s" % (source, exc))
    roots = [Root.parse(line) for _lineno, line in read_lines(text)]
    if not roots:
        raise UsageError("no roots in %r" % source)
    dim = roots[0].n if ambient is None else ambient
    for r in roots:
        if r.n != dim:
            raise UsageError("root %s in %r has %d coordinates, not the "
                             "dimension %d" % (r, source, r.n, dim))
    return roots, dim


def _model(args):
    return GroupModel(args.model, args.n)


def _grid(args):
    if args.grid is not None:
        return tuple(read_list(args.grid, ",", parse_scalar))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args):
    model, grid = _model(args), _grid(args)
    reports = run_suite(model, args.suite, args.regime, grid)
    payload = [r.to_json_dict() for r in reports]
    failures = sum(1 for r in reports if not r.passed)
    summary = {"model": model.family, "n": model.n, "suite": args.suite,
               "regime": regime_for(args.regime, grid), "reports": payload,
               "checked": len(reports), "failed": failures}
    print(_emit(summary, args.format))
    return 1 if failures else 0


def cmd_generic(args):
    roots, ambient = _load_roots(args.roots, args.n, args.ambient)
    hps = lyapunov_hyperplanes(roots, ambient)
    if not args.plane:
        raise UsageError("generic needs --plane")
    plane = _parse_plane(args.plane, ambient)
    verdict = is_generic(plane, hps)
    payload = verdict.describe()
    payload["hyperplanes"] = [str(h) for h in hps]
    print(_emit(payload, args.format))
    return 0


def cmd_stable(args):
    roots, ambient = _load_roots(args.roots, args.n, args.ambient)
    region = _parse_plane(args.region, ambient) if args.region else None
    if args.check:
        point = _parse_vector(args.check)
        values = [r.eval(point) for r in roots]
        ok = all(v < 0 for v in values)
        payload = {"check": [str(x) for x in point],
                   "values": [str(v) for v in values],
                   "valid": ok}
        if region is not None:
            payload["on_region"] = region.contains(point)
            ok = ok and payload["on_region"]
            payload["valid"] = ok
        print(_emit(payload, args.format))
        return 0 if ok else 1
    result = find_stable_element(roots, region=region, ambient_dim=ambient)
    print(_emit(result.describe(roots), args.format))
    return 0


def cmd_chambers(args):
    roots, ambient = _load_roots(args.roots, args.n, args.ambient)
    region = _parse_plane(args.region, ambient) if args.region else None
    hps = lyapunov_hyperplanes(roots, ambient)
    cm = weyl_chambers(hps, region=region, ambient_dim=ambient)
    payload = {"hyperplanes": [str(h) for h in hps],
               "count": len(cm), "chambers": cm.describe()}
    print(_emit(payload, args.format))
    return 0


def cmd_reduce(args):
    standard = args.system == "standard"
    if standard != (args.ambient is not None):
        raise UsageError("--ambient goes with --system standard, and only "
                         "with it")
    system = StandardSystem(args.ambient) if standard else \
        RestrictedSystem(_model(args))
    try:
        with open(args.wordfile, "r", encoding="utf-8") as fh:
            word = Word.parse(fh.read(), system)
    except OSError as exc:
        raise UsageError("cannot read word file: %s" % exc)
    region = _parse_plane(args.region, system.ambient_dim) if args.region else None
    trace = reduce_cycle(word, region=region, budget=args.budget)
    print(_emit(trace.describe(), args.format))
    return 0 if trace.reduced_to_empty else 1


def cmd_decompose(args):
    model = _model(args)
    r = Root.parse(args.root_r)
    p = Root.parse(args.root_p)
    a = tuple(read_list(args.a, ",", parse_scalar))
    b = tuple(read_list(args.b, ",", parse_scalar))
    factors, laws = decompose_commutator(model, r, p, a, b)
    payload = {
        "model": model.family, "n": model.n,
        "r": str(r), "p": str(p),
        "a": [format_scalar(x) for x in a],
        "b": [format_scalar(x) for x in b],
        "factors": [{"root": str(q),
                     "params": [format_scalar(x) for x in vals]}
                    for q, vals in factors],
        "laws": [law.describe() for law in laws],
    }
    print(_emit(payload, args.format))
    return 0


def _expr_scalar(value):
    """A JSON string (a scalar token) or integer, never a float or a
    boolean, as a symbol argument of --expr."""
    if isinstance(value, str):
        return parse_scalar(value)
    if type(value) is not int:
        raise TypeError("an argument must be a string or an integer, got %s"
                        % json.dumps(value))
    return value


def cmd_symbol(args):
    universe = read_list(args.universe, ",", parse_scalar)
    kinds = ALL_AXIOMS if args.axioms == "all" else BILINEAR_ONLY
    lattice = build_axiom_lattice(universe, kinds)
    try:
        items = json.loads(args.expr)
        if not isinstance(items, list):
            raise TypeError("not a JSON list")
        expr = SymbolExpr.from_pairs(
            [((_expr_scalar(s), _expr_scalar(t)), e) for (s, t), e in items])
    except (ValueError, TypeError) as exc:
        raise UsageError("bad --expr, want JSON [[[s,t],e],...]: %s" % exc)
    result = is_consequence(expr, lattice)
    payload = result.describe(lattice)
    payload["expression"] = str(expr)
    payload["lattice"] = lattice.describe()
    if result.is_consequence:
        payload["replay_ok"] = replay_certificate(result, lattice) == \
            dict(expr.vector())
    print(_emit(payload, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common(p, model=False, roots=False):
    if model:
        p.add_argument("--model", choices=("sp", "sl-r", "sl-c"),
                       default="sp")
        p.add_argument("--n", type=int, default=2)
    if roots:
        p.add_argument("--roots", default="builtin:restricted",
                       help="file, builtin:restricted, or builtin:sl-standard")
        p.add_argument("--n", type=int, default=None,
                       help="rank for builtin root lists")
        p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")


def _verify_args(p):
    _common(p, model=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--regime", choices=REGIMES, default=None,
                   help="default: symbolic, the proof for all parameters; "
                        "grid when --grid is given")
    p.add_argument("--grid", default=None,
                   help="grid regime only: comma list of nonzero rationals "
                        "(Gaussian rationals for sl-c; default grid: %s)"
                        % ",".join(str(g) for g in DEFAULT_GRID))


def _generic_args(p):
    _common(p, roots=True)
    p.add_argument("--plane", required=False,
                   help='basis "<vec>;<vec>" or equations "eq:<vec>;<vec>"')


def _stable_args(p):
    _common(p, roots=True)
    p.add_argument("--region", default=None,
                   help="plane expression restricting the search")
    p.add_argument("--check", default=None,
                   help="validate this point instead of searching")


def _chambers_args(p):
    _common(p, roots=True)
    p.add_argument("--region", default=None)


def _reduce_args(p):
    _common(p, model=True)
    p.add_argument("wordfile")
    p.add_argument("--system", choices=("restricted", "standard"),
                   default="restricted")
    p.add_argument("--ambient", type=int, default=None,
                   help="matrix size for the standard system")
    p.add_argument("--region", default=None)
    p.add_argument("--budget", type=int, default=10000)


def _decompose_args(p):
    _common(p, model=True)
    p.add_argument("-r", dest="root_r", required=True, help="first root")
    p.add_argument("-p", dest="root_p", required=True, help="second root")
    p.add_argument("-a", required=True, help="first parameter(s), comma separated")
    p.add_argument("-b", required=True, help="second parameter(s)")


def _symbol_args(p):
    _common(p)
    p.add_argument("--universe", required=True,
                   help="comma list of nonzero rationals")
    p.add_argument("--expr", required=True,
                   help='JSON [[[s,t],e],...] exponent list')
    p.add_argument("--axioms", choices=("all", "bilinear"), default="all")


# (name, help, handler, argument builder), in the order of the help text
COMMANDS = (
    ("verify", "run relation/conjugation/monomial suites", cmd_verify,
     _verify_args),
    ("generic", "2-plane genericity against an arrangement", cmd_generic,
     _generic_args),
    ("stable", "common strictly-stable element search", cmd_stable,
     _stable_args),
    ("chambers", "enumerate chambers with sample points", cmd_chambers,
     _chambers_args),
    ("reduce", "reduce a cycle word file to the empty word", cmd_reduce,
     _reduce_args),
    ("decompose", "commutator factor decomposition", cmd_decompose,
     _decompose_args),
    ("symbol", "symbol-lattice consequence check", cmd_symbol, _symbol_args),
)


class _ParseAgain(Exception):
    """A parser built for one subcommand met an error; only the full parser
    prints that error as a user would see it."""


class _OneCommandParser(_Parser):
    def error(self, message):
        raise _ParseAgain(message)


def build_parser(only=None):
    """The command-line parser: every subcommand, or only the one named."""
    cls = _Parser if only is None else _OneCommandParser
    ap = cls(
        prog="chevalley",
        description="Exact verification of split-group generator relations, "
                    "hyperplane genericity analysis, and cycle-word reduction.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, func, add_args in COMMANDS:
        if only is None or name == only:
            p = sub.add_parser(name, help=text)
            add_args(p)
            p.set_defaults(func=func)
    return ap


def _parse(argv):
    """Parse with the one parser that argv[0] names, if it names one.  Any
    usage error parses again with the full parser, whose messages list
    every subcommand, so the text on either path is the full parser's."""
    if argv and argv[0] in {c[0] for c in COMMANDS}:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _ParseAgain:
            pass
    return build_parser().parse_args(argv)


def _run(args):
    try:
        return args.func(args)
    # every module's error (ScalarError, RootError, ...) is a ValueError
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
