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


_ROOT = Path(__file__).resolve().parents[1]
# the paper's stated bounds, kept as its results though no run path reads them
_UNREACHED_BY_DESIGN = {"ls_failure_prob", "sample_complexity", "direct_projection_bound"}


def _reached_names() -> set:
    """Names that code in the package (outside ``__init__``), ``scripts/*.py``
    or ``perfbench/*.py`` reads as a ``Name`` or ``Attribute``; in
    ``perfbench`` also string constants, since its tracer patches by name.
    A top-level definition in the package does not reach its own name."""
    pkg = Path(proctomo.__file__).parent
    sources = ([p for p in pkg.glob("*.py") if p.name != "__init__.py"]
               + sorted((_ROOT / "scripts").glob("*.py"))
               + sorted((_ROOT / "perfbench").glob("*.py")))
    reached = set()
    for path in sources:
        by_string = path.parent.name == "perfbench"
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None) if path.parent == pkg else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif by_string and isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    reached.add(name)
    return reached


def test_every_export_is_reached():
    """A public name that only the tests call belongs in the tests' oracles."""
    reached = _reached_names()
    unreached = sorted(
        f"{m.name}.{a}" for m in pkgutil.iter_modules(proctomo.__path__)
        for a in getattr(importlib.import_module(f"proctomo.{m.name}"), "__all__", [])
        if a not in reached and a not in _UNREACHED_BY_DESIGN)
    assert unreached == []


def _unused_imports(path: Path) -> list:
    """Top-level imports of a module that it never reads: a name counts as
    used when it appears as a ``Name`` (so as the root of an ``Attribute``)
    or as a string in ``__all__``."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [f"{path.relative_to(_ROOT)}: {name}"
            for name in imported if name not in used]


def test_no_unused_imports():
    """Every top-level import of the package (outside ``__init__``), the
    scripts and the tests is read."""
    pkg = Path(proctomo.__file__).parent
    sources = ([p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
               + sorted((_ROOT / "scripts").glob("*.py"))
               + sorted((_ROOT / "tests").glob("*.py")))
    assert [u for path in sources for u in _unused_imports(path)] == []


def test_estimators_import_nothing_from_designs():
    """``simulate`` is the one module that states the measurement operators;
    the estimators read them there, so they import no name from ``designs``
    (nor the module itself), anywhere in the file."""
    tree = ast.parse(Path(proctomo.__file__).with_name("estimators.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            found += [f"{node.module or ''}.{a.name}" for a in node.names
                      if module == "designs" or a.name == "designs"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[-1] == "designs"]
    assert found == []


_RANGE_WORDS = ("must lie in", "must be positive", "nonnegative", "must be >=")


def _message_text(node) -> str:
    """The literal text of a raise's message, a placeholder for each field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_message_text(v) if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return ""


def test_scalar_rules_live_in_channels():
    """A range or choice refusal outside ``channels`` goes through
    ``_check_int``, ``_check_real`` or ``_check_choice``: no other ``raise``
    in the package states an unknown choice or a range in its own words."""
    pkg = Path(proctomo.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "channels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            text = _message_text(node.exc.args[0])
            if text.startswith("unknown ") or any(w in text for w in _RANGE_WORDS):
                found.append(f"{path.name}:{node.lineno}: {text}")
    assert found == []


def test_no_hermitian_copy_before_a_decomposition():
    """The iterates of ``projections`` are Hermitian by construction, so no
    ``eigh`` or ``eigvalsh`` call there takes a ``_hermitize(...)`` copy."""
    path = Path(proctomo.__file__).with_name("projections.py")
    found = [f"projections.py:{node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("eigh", "eigvalsh")
             and any(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                     and arg.func.id == "_hermitize" for arg in node.args)]
    assert found == []
