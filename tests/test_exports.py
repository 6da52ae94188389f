"""The public surface: every ``__all__`` name exists, and the package
``__init__`` re-exports only names their module lists, so a retired function
cannot live on as a stale export."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import viscostring

MODULES = sorted(m.name for m in pkgutil.iter_modules(viscostring.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"viscostring.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"viscostring.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_only_listed_names():
    tree = ast.parse(inspect.getsource(viscostring))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"viscostring.{node.module}")
        stale = [a.name for a in node.names if a.name not in getattr(mod, "__all__", ())]
        assert not stale, f"viscostring re-exports {stale} that viscostring.{node.module}.__all__ does not list"
