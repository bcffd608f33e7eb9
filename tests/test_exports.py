import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import proctomo

_INIT = ast.parse(Path(proctomo.__file__).read_text())


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(proctomo.__path__)))
def test_exports_resolve(name):
    """Every name in a module's ``__all__`` exists, and every name the
    package imports from the module is one of those exports."""
    mod = importlib.import_module(f"proctomo.{name}")
    exported = getattr(mod, "__all__", [])
    assert [a for a in exported if not hasattr(mod, a)] == []
    imported = [a.name for node in _INIT.body if isinstance(node, ast.ImportFrom)
                and node.module == name for a in node.names]
    assert [a for a in imported if a not in exported] == []
