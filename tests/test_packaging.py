"""Packaging metadata: every declared console script and every name a
module exports through __all__ must resolve."""

import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_module_exports_resolve():
    package = importlib.import_module("lfunlab")
    root = Path(package.__file__).resolve().parent
    modules = sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")
    assert modules
    for name in modules:
        module = importlib.import_module(f"lfunlab.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"lfunlab.{name}.{export}"
