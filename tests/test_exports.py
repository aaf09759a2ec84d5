"""Every name a dnpde module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import dnpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(dnpde.__path__, "dnpde."))


def test_every_module_is_checked():
    assert {"dnpde.convex", "dnpde.grid", "dnpde.solver", "dnpde.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
