"""Bounds and explicit planners for fiberwise motion planning on sphere bundles.

The package computes sectional-category and parametrized-topological-
complexity intervals for unit sphere bundles from characteristic-class
data, with a full provenance trail, and runs the matching explicit
piecewise planners on sphere bundles over complex projective space.

The ring, bundle and bound layers load with the package.  The planner and
the verification suites need numpy, so they and their names below load on
first access (PEP 562): ``import paramtc`` alone does not import numpy.
"""

import importlib

from .bounds import (
    ContradictionError,
    NOTE_STRONGER,
    ProvenanceEntry,
    Quantity,
    TCReport,
    kernel_cuplength,
    secat_sphere_bundle,
    tc_dimension_upper,
    tc_sphere_bundle,
    tc_split_upper,
)
from .bundle import (
    BaseSpace,
    BundleDescriptor,
    DdotDescriptor,
    canonical_line_bundle,
    cpn,
    ddot_euler_height,
    ddot_of,
    k_fold_sum,
    point,
    trivial_bundle,
    whitney_sum,
)
from .ring import (
    Coefficients,
    CoefficientDomainError,
    Generator,
    HomogeneityError,
    LHElement,
    LHModule,
    RingDescriptor,
    RingElement,
    RingMismatchError,
    cup,
    height,
    lh_height,
    lh_multiply,
    lh_power,
    mod2_reduce,
    power,
)

# name -> submodule that defines it; loaded on first access
_LAZY = {
    **dict.fromkeys(
        [
            "BundlePoint",
            "DegenerateRepresentativeError",
            "NotSameFiberError",
            "PlannedPath",
            "ProjectiveRep",
            "cell_index",
            "cell_section",
            "classify_pair",
            "fiber_distance",
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
