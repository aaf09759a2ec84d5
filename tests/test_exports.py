"""Every name a dnpde module exports in ``__all__`` exists in that module, the
README's Layout table names every module, and importing every module loads
nothing beyond the standard library and numpy."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_layout_names_exactly_the_modules():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.partition("## Layout")[2].partition("\n## ")[0]
    assert sorted(re.findall(r"^\| `(dnpde\.\w+)` \|", table, re.M)) == MODULES


# a fresh interpreter's modules before and after importing every dnpde module;
# the baseline is taken after start-up, whose site hooks may load packages
_NEW_TOP_LEVEL = """
import sys
before = set(sys.modules)
import importlib, pkgutil
import dnpde
for m in pkgutil.iter_modules(dnpde.__path__, "dnpde."):
    importlib.import_module(m.name)
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = os.path.dirname(os.path.dirname(dnpde.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _NEW_TOP_LEVEL], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert {"dnpde", "numpy"} <= set(out)
    assert sorted(set(out) - set(sys.stdlib_module_names) - {"dnpde", "numpy"}) == []
