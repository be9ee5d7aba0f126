"""Source hygiene: every name a package module imports is used in it."""

import ast
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
