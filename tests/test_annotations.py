"""Every annotation in the package names something its module can see, and
each result type is built in one place."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import typing

import pytest

import chevalley


def _public(module):
    """The public classes and functions defined in module, with the methods
    of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            yield from (f for f in vars(obj).values() if inspect.isfunction(f))


MODULES = sorted("chevalley." + info.name
                 for info in pkgutil.iter_modules(chevalley.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    objs = list(_public(module))
    assert objs
    for obj in objs:
        typing.get_type_hints(obj)


# the one function of the package that builds each result type
RESULT_BUILDERS = {"VerificationReport": "relations._sweep",
                   "ReductionTrace": "cycles.reduce_cycle"}


def _calls(tree, prefix):
    """(called name, qualified name of the enclosing scope) for every call
    under tree, the name read off ``f(...)`` or ``module.f(...)``."""
    for node in ast.iter_child_nodes(tree):
        scope = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = prefix + "." + node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            yield name, prefix
        yield from _calls(node, scope)


def test_each_result_is_built_in_one_place():
    sites = {}
    for name in MODULES:
        path = importlib.util.find_spec(name).origin
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for called, scope in _calls(tree, name.split(".")[-1]):
            if called in RESULT_BUILDERS:
                sites.setdefault(called, set()).add(scope)
    assert sites == {k: {v} for k, v in RESULT_BUILDERS.items()}
