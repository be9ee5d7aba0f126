"""Source hygiene: every name a package module imports is used in it, every
top-level definition has a caller in the package, and the CLI's import
stays lean."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "wdnoma"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_from_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # the base of a dotted use (np.roll) is a Name too, and annotations are
    # parsed as expressions even under postponed evaluation
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_from_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_from_imports(tree) == []


def test_every_package_def_has_a_package_caller():
    # code that only tests use belongs in tests/oracles.py, or nowhere
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(defined - referenced) == []


def test_cli_import_loads_no_scipy_stats_or_constants():
    # only `wdnoma stats` needs scipy.stats; the sweeps must not pay for it
    code = ("import sys, wdnoma.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.constants') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          check=True)
    assert done.stdout.strip() == "[]"
