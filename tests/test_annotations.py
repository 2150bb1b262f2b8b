"""Every annotation in the package names something its module can see."""

import importlib
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
