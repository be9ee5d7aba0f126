"""Source hygiene: every name a package module imports is used in it, every
top-level definition has a caller in the package, every default parameter
is set by some package call, and the CLI's import stays lean."""

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


def _defaulted_params(path: Path) -> dict:
    """{(function, parameter): positional index, or None if keyword-only}
    for every parameter with a default of the module's functions; a
    method's index leaves out the self or cls its call binds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        pos = (a.posonlyargs + a.args)[id(fn) in methods:]
        for i, arg in enumerate(pos):
            if i >= len(pos) - len(a.defaults):
                out[(fn.name, arg.arg)] = i
        out.update({(fn.name, k.arg): None for k, v in zip(a.kwonlyargs, a.kw_defaults)
                    if v is not None})
    return out


def test_every_default_is_set_by_a_package_call():
    # a default that no caller overrides is a constant in disguise; cli.main
    # is the entry point, whose argv default the console script relies on
    params = {key: i for p in MODULES for key, i in _defaulted_params(p).items()
              if (p.stem, key[0]) != ("cli", "main")}
    passed = set()
    for p in SRC.glob("*.py"):
        for call in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            keywords = {k.arg for k in call.keywords}
            passed.update((fn, arg) for fn, arg in params if fn == name and (
                None in keywords or arg in keywords
                or params[(fn, arg)] is not None and params[(fn, arg)] < n_pos))
    assert sorted(set(params) - passed) == []


def test_cli_import_loads_no_scipy_stats_or_constants():
    # only `wdnoma stats` needs scipy.stats; the sweeps must not pay for it, nor
    # for the scipy.linalg package, whose two band routines the receiver loads alone
    code = ("import sys, wdnoma.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.constants', 'scipy.linalg') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          check=True)
    assert done.stdout.strip() == "[]"


def test_harness_has_no_per_waveform_branch():
    # a comparison with a waveform's name is a dispatch outside the waveform
    # tables, in the harness or any module below it: the harness reads
    # WAVEFORMS and the receiver waveforms.TRANSFORMS
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}   # Compare node -> innermost enclosing function (walk is outer first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        found += sorted(
            (path.stem, owner.get(id(node), "<module>"), node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for side in (node.left, *node.comparators) for c in ast.walk(side)
            if isinstance(c, ast.Constant) and c.value in ("afdm", "otfs", "ofdm"))
    assert found == []
