"""Bounds and explicit planners for fiberwise motion planning on sphere bundles.

The package computes sectional-category and parametrized-topological-
complexity intervals for unit sphere bundles from characteristic-class
data, with a full provenance trail, and runs the matching explicit
piecewise planners on sphere bundles over complex projective space.

The package exposes every name in the ``__all__`` of ``ring``, ``bundle``
and ``bounds``, which load with it.  The planner and the verification
suites need numpy, so the names in their ``__all__`` (``paramtc.plan``,
``paramtc.TOL_ANTI``, ...) load on first access (PEP 562): ``import
paramtc`` alone does not import numpy.
"""

import importlib

from .bounds import *  # noqa: F403 - each layer's __all__ is the package's interface
from .bundle import *  # noqa: F403
from .ring import *  # noqa: F403

# name -> submodule that defines it; loaded on first access.  Exactly the
# __all__ of planner and verify, spelled out so that numpy stays unloaded.
_LAZY = {
    **dict.fromkeys(
        [
            "BundlePoint",
            "DegenerateRepresentativeError",
            "NotSameFiberError",
            "PlannedPath",
            "ProjectiveRep",
            "TOL_ANTI",
            "TOL_ANTI_MIN",
            "TOL_CELL",
            "cell_index",
            "cell_section",
            "classify_pair",
            "fiber_inner",
            "plan",
            "plan_hopf",
        ],
        "planner",
    ),
    **dict.fromkeys(
        [
            "DEFAULT_SEED",
            "VerificationOutcome",
            "check_bounds_tables",
            "check_lh_oracle",
            "check_partition",
            "check_path",
            "check_paths_random",
            "lh_rewrite_oracle",
            "lh_to_dense",
            "oracle_power",
        ],
        "verify",
    ),
}


def __getattr__(name: str):
    if name in ("planner", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
