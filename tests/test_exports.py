"""Every module of the package imports, and every name it lists in
``__all__`` resolves (no Spark session needed)."""
import importlib
import pkgutil

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
