"""Checks on the package source itself, in place of a linter."""

import ast
from pathlib import Path

import pytest

import arraymem

MODULES = sorted(
    p for p in Path(arraymem.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
# the test-side oracles hold code that left the package, under the same rule
ORACLES = sorted(Path(__file__).parent.glob("*_oracle.py"))


@pytest.mark.parametrize("path", MODULES + ORACLES, ids=[p.stem for p in MODULES + ORACLES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def _defined_and_named(path):
    """Module-level UPPER_CASE constants and _private functions and classes
    that path defines, and every name its code reads or imports."""
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            defined.add(node.name)
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
    return defined, named


def test_every_constant_and_private_name_is_used():
    # a name nothing in the package reads is dead code, whatever the tests read
    paths = sorted(Path(arraymem.__file__).parent.glob("*.py"))
    found = {p: _defined_and_named(p) for p in paths}
    named = set().union(*(n for _, n in found.values()))
    dead = sorted((p.name, name) for p, (d, _) in found.items() for name in d - named)
    assert not dead, f"defined but never named in the package (module, name): {dead}"
