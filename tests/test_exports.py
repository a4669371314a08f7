"""Every module of the package imports, every name it lists in
``__all__`` resolves, no module, test, job or conftest.py imports a name
it never uses, every name the benchmark's tracer wraps exists, and
``repro.core`` opens and releases Spark caches only where it may (no Spark
session needed)."""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_modules_found():
    assert "repro.core.affidavit" in MODULES
    assert "repro.bench.table2" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by ``import`` and never reads; ``__future__``
    imports and names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{n} (line {ln})" for n, ln in imported.items() if n not in used]


SOURCES = sorted(Path(repro.__file__).parent.rglob("*.py"))
ROOT = Path(__file__).parents[1]
IMPORTING = SOURCES + [
    ROOT / "conftest.py",
    *sorted(ROOT.glob("tests/*.py")),
    *sorted(ROOT.glob("jobs/*.py")),
]


def _path_id(p: Path) -> str:
    """A file's path from its parent's parent (``core/queue.py``,
    ``tests/test_queue.py``); a file at the repo root by its name."""
    return p.name if p.parent == ROOT else str(p.relative_to(p.parents[1]))


def test_unused_import_check_flags_a_stray_name():
    assert _unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]
    assert _unused_imports("from __future__ import annotations\n") == []
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", IMPORTING, ids=_path_id)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


CACHE_CALLS = {"cache", "persist", "unpersist"}
# Where repro.core may open or release a Spark cache: the one scope.
CACHE_SITES = {"blocking.persisted"}


def _cache_sites(source: str, module: str) -> set[str]:
    """``module.qualname`` of every function (or ``module`` for top-level
    code) that calls ``.cache()``, ``.persist()`` or ``.unpersist()``."""
    sites: set[str] = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in CACHE_CALLS
            ):
                sites.add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_cache_site_check_names_the_function():
    src = "class A:\n    def f(self, df):\n        df.cache()\ndf.persist()\n"
    assert _cache_sites(src, "m") == {"m.A.f", "m"}


def test_core_caches_open_in_one_scope():
    """Inside ``repro.core`` a frame is cached or released only by
    ``blocking.persisted``."""
    core = sorted((Path(repro.__file__).parent / "core").glob("*.py"))
    sites = set().union(*(_cache_sites(p.read_text(), p.stem) for p in core))
    assert sites <= CACHE_SITES, f"caches outside one scope: {sites - CACHE_SITES}"


def test_trace_layers_resolve():
    """Every name the benchmark's tracer wraps still exists, so a refactor
    that drops one fails here rather than inside a ``--trace 1`` run.
    ``affbench/spans.py`` imports only the standard library."""
    path = Path(__file__).parents[1] / "affbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_affbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up here
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    assert spans.SEARCH_LAYERS
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.SEARCH_LAYERS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"traced names no longer exist: {missing}"
