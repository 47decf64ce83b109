"""Every name a module lists in ``__all__`` must resolve, and so must the package re-exports.

The package republishes the ``__all__`` of ``ring``, ``bundle`` and ``bounds``
and loads exactly the ``__all__`` of ``planner`` and ``verify`` lazily.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paramtc

MODULES = ["ring", "bundle", "bounds", "planner", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"paramtc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(paramtc._LAZY))
def test_lazy_package_names_resolve(name):
    module = importlib.import_module(f"paramtc.{paramtc._LAZY[name]}")
    assert getattr(paramtc, name) is getattr(module, name)
    assert name in dir(paramtc)


@pytest.mark.parametrize("name", ["ring", "bundle", "bounds"])
def test_package_republishes_eager_layers(name):
    module = importlib.import_module(f"paramtc.{name}")
    assert [n for n in module.__all__ if n not in vars(paramtc)] == []


def test_lazy_names_are_exactly_planner_and_verify_all():
    from paramtc import planner, verify

    assert paramtc._LAZY == {
        **dict.fromkeys(planner.__all__, "planner"),
        **dict.fromkeys(verify.__all__, "verify"),
    }


def test_unknown_package_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        paramtc.no_such_name


# runs in a fresh interpreter: which modules a command loads depends on what ran before it
NUMPY_PROBE = """
import contextlib, io, json, sys
loaded = lambda: "numpy" in sys.modules
steps = {}
import paramtc
steps["import paramtc"] = loaded()
from paramtc.cli import execute
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        execute(["bounds", "--family", "eta-plus-eps", "--n", "4", "--format", "json"]),
        execute(["bounds", "--family", "k-eta", "--n", "3", "--k", "2"]),
        execute(["table", "--family", "eta", "--n-max", "5", "--format", "tsv"]),
    ]
steps["bounds and table"] = loaded()
{access}
steps["access"] = loaded()
print(json.dumps({"codes": codes, "numpy": steps}))
"""


@pytest.mark.parametrize("access", ["paramtc.plan", "paramtc.verify.check_path"])
def test_numpy_loads_only_with_the_planner_or_suites(access):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE.replace("{access}", access)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert json.loads(result.stdout) == {
        "codes": [0, 0, 0],
        "numpy": {"import paramtc": False, "bounds and table": False, "access": True},
    }
