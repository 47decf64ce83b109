"""Every name a module lists in ``__all__`` must resolve."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["ring", "bundle", "bounds", "planner", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"paramtc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
