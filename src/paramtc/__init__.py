"""Bounds and explicit planners for fiberwise motion planning on sphere bundles.

The package computes sectional-category and parametrized-topological-
complexity intervals for unit sphere bundles from characteristic-class
data, with a full provenance trail, and runs the matching explicit
piecewise planners on sphere bundles over complex projective space.
"""

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
from .planner import (
    BundlePoint,
    DegenerateRepresentativeError,
    NotSameFiberError,
    PlannedPath,
    ProjectiveRep,
    cell_index,
    cell_section,
    classify_pair,
    fiber_distance,
    fiber_inner,
    plan,
    plan_hopf,
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
from .verify import (
    DEFAULT_SEED,
    VerificationOutcome,
    check_bounds_tables,
    check_lh_oracle,
    check_partition,
    check_path,
    check_paths_random,
    lh_rewrite_oracle,
)

__version__ = "0.1.0"
