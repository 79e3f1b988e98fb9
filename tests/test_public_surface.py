"""The public import surface.

``repro.__all__`` is the supported entry point.  Each sub-package
re-exports only the names imported through it; everything else stays
importable from its defining module.  These tests keep the ``__all__``
lists honest and the documented imports working.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

_WALK = list(pkgutil.walk_packages(repro.__path__, "repro."))
MODULES = ["repro"] + sorted(m.name for m in _WALK)
PACKAGES = ["repro"] + sorted(m.name for m in _WALK if m.ispkg)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), name
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, (name, missing)


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_exactly_its_all(name):
    """A package ``__init__`` imports from its own modules exactly the
    names it lists in ``__all__`` (``from . import submodule`` and names
    the ``__init__`` defines itself are exempt)."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    reexported, own = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound = {a.asname or a.name for a in node.names}
            (reexported if node.module else own).update(bound)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Assign):
            own.update(t.id for t in node.targets
                       if isinstance(t, ast.Name))
    listed = set(module.__all__) - own
    assert reexported == listed, (
        name, sorted(reexported - listed), sorted(listed - reexported))


def test_facade_is_gone():
    assert not {"Mira", "MiraModel"} & set(dir(repro))
    assert importlib.util.find_spec("repro.core.mira") is None


@pytest.mark.parametrize("doc", ["README.md", ".github/workflows/ci.yml"])
def test_documented_imports_resolve(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    imports = re.findall(r"from (repro[\w.]*) import (\([^)]*\)|[^\n]+)",
                         text)
    assert imports, doc
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        for name in re.findall(r"\w+", names):
            assert hasattr(module, name), (doc, module_name, name)
