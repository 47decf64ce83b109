"""Fiberwise motion planners on sphere bundles over complex projective space.

A point of CP^n is represented by a unit vector ``z`` in C^{n+1}, up to a
unit complex phase (:class:`ProjectiveRep`).  The main planner works on the
unit sphere bundle of (canonical line bundle) + (trivial line): a point
over the line [z] is a pair ``(w, s)`` with ``w`` a vector inside the line,
``s`` real and ``|w|^2 + s^2 = 1`` -- a 2-sphere per fiber
(:class:`BundlePoint`).  The circle planner (:func:`plan_hopf`) works on
unit vectors of the line alone, embedded here as the equator ``s = 0``.

Planning is a case split on :func:`classify_pair`, which partitions the
same-fiber pairs (x, y) into n + 3 pieces:

* piece 0: non-antipodal pairs, joined by a constant-speed geodesic arc
  (the normalized interpolation of the endpoints, run at uniform angular
  speed so its parametric velocity never exceeds the arc length);
* piece 1: antipodal pairs off the poles ``(0, +-1)``, joined in three
  steps -- flatten x along its great circle to the equator point
  ``(w/|w|, 0)``, rotate that point by the phase e^{i pi t}, and unflatten
  along the mirrored great circle to -x;
* piece 2 + j: antipodal pairs at the poles over the open cell of CP^n
  whose last nonzero homogeneous coordinate is the j-th, joined by a polar
  rotation towards a direction the cell section picks continuously.

On every piece the plan is continuous in (x, y); no plan can be continuous
across all pieces at once, which is the point of the TC lower bounds.  All
formulas act on ``(w, s)`` only, never on the representative ``z`` alone,
so everything is invariant under ``z -> lambda z``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "TOL_ANTI",
    "TOL_CELL",
    "TOL_ANTI_MIN",
    "ProjectiveRep",
    "BundlePoint",
    "PlannedPath",
    "fiber_inner",
    "fiber_distance",
    "classify_pair",
    "cell_index",
    "cell_section",
    "plan",
    "plan_hopf",
    "NotSameFiberError",
    "DegenerateRepresentativeError",
]

# default classification tolerances: deterministic piece assignment, with the
# snap segment absorbing the resulting endpoint slack
TOL_ANTI = 1e-8
TOL_CELL = 1e-10
# smallest tol_anti plan accepts: a piece-0 pair this close to antipodal has a
# geodesic direction y - <x, y> x of norm ~sqrt(2 tol_anti), mostly rounding noise
# once tol_anti <= 1e-13, where such paths left the line; 1e-10 keeps 3 decades.
TOL_ANTI_MIN = 1e-10

_SNAP_EPS = 1e-12
_UNIT_TOL = 1e-9


class NotSameFiberError(ValueError):
    """The two points do not lie over the same base point."""


class DegenerateRepresentativeError(ValueError):
    """No homogeneous coordinate of the representative exceeds the tolerance."""


def _hdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product <a, b> = sum a_i * conj(b_i)."""
    return complex(np.vdot(b, a))


def _as_complex_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty one-dimensional complex vector")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


class ProjectiveRep:
    """A unit representative of a point of CP^n (a line in C^{n+1})."""

    __slots__ = ("z",)

    def __init__(self, z):
        z = _as_complex_vector(z)
        norm = float(np.linalg.norm(z))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"representative must be a unit vector (norm {norm})")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ProjectiveRep is immutable")

    @classmethod
    def normalized(cls, v) -> "ProjectiveRep":
        v = _as_complex_vector(v)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalise the zero vector")
        return cls(v / norm)

    def same_line(self, other: "ProjectiveRep") -> bool:
        return abs(_hdot(self.z, other.z)) >= 1.0 - _UNIT_TOL

    def __repr__(self) -> str:
        return f"ProjectiveRep({np.array2string(self.z, precision=4)})"


class BundlePoint:
    """A point of the sphere bundle: base line, line component ``w``, height ``s``.

    ``w`` must lie in the line spanned by the representative and
    ``|w|^2 + s^2 = 1``.  The pairs ``(z, w, s)`` and ``(lambda z, w, s)``
    describe the same point.
    """

    __slots__ = ("z", "w", "s")

    def __init__(self, z: ProjectiveRep, w, s: float):
        if not isinstance(z, ProjectiveRep):
            z = ProjectiveRep(z)
        w = _as_complex_vector(w)
        if w.size != z.z.size:
            raise ValueError("w must have the same ambient dimension as z")
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"s must be finite, got {s}")
        residual = float(np.linalg.norm(w - _hdot(w, z.z) * z.z))
        if residual > _UNIT_TOL:
            raise ValueError(f"w is not in the line of z (residual {residual:.2e})")
        norm2 = float(np.linalg.norm(w)) ** 2 + s * s
        if abs(norm2 - 1.0) > _UNIT_TOL:
            raise ValueError(f"|w|^2 + s^2 = {norm2} is not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BundlePoint is immutable")

    @classmethod
    def from_fiber(cls, z: ProjectiveRep, c: complex, s: float) -> "BundlePoint":
        """The point ``(c*z, s)``; requires ``|c|^2 + s^2 = 1``."""
        return cls(z, complex(c) * z.z, s)

    @classmethod
    def section_point(cls, z: ProjectiveRep, sign: float = 1.0) -> "BundlePoint":
        """The distinguished pole ``(w = 0, s = +-1)`` of the trivial summand."""
        return cls(z, np.zeros_like(z.z), math.copysign(1.0, sign))

    @property
    def w_norm(self) -> float:
        return float(np.linalg.norm(self.w))

    def antipode(self) -> "BundlePoint":
        return BundlePoint(self.z, -self.w, -self.s)

    def __repr__(self) -> str:
        return f"BundlePoint(w={np.array2string(self.w, precision=4)}, s={self.s:.4f})"


def _require_same_fiber(x: BundlePoint, y: BundlePoint) -> None:
    if x.w.size != y.w.size or not x.z.same_line(y.z):
        raise NotSameFiberError("points lie over different base points")


def fiber_inner(x: BundlePoint, y: BundlePoint) -> float:
    """Scalar product in the fiber: Re<w, w'> + s*s' (orthogonal-sum metric)."""
    _require_same_fiber(x, y)
    return float(np.real(_hdot(x.w, y.w))) + x.s * y.s


def fiber_distance(x: BundlePoint, y: BundlePoint) -> float:
    """Euclidean distance of the fiber coordinates (gauge-invariant)."""
    _require_same_fiber(x, y)
    dw = float(np.linalg.norm(x.w - y.w))
    return math.hypot(dw, x.s - y.s)


def cell_index(z: ProjectiveRep, tol_cell: float = TOL_CELL) -> int:
    """Index j of the open cell of CP^n containing [z].

    The 2j-cell consists of the lines whose last nonzero homogeneous
    coordinate is the j-th.
    """
    mags = np.abs(z.z)
    idx = np.nonzero(mags > tol_cell)[0]
    if idx.size == 0:
        raise DegenerateRepresentativeError(
            f"all coordinates are below the cell tolerance {tol_cell}"
        )
    return int(idx[-1])


def cell_section(z: ProjectiveRep, j: int, tol_cell: float = TOL_CELL) -> np.ndarray:
    """Unit vector in the line [z] whose j-th coordinate is real and positive.

    Continuous on the open 2j-cell and invariant under ``z -> lambda z``:
    the phase of the j-th coordinate is divided out.
    """
    zj = complex(z.z[j])
    if abs(zj) <= tol_cell:
        raise DegenerateRepresentativeError(
            f"coordinate {j} has magnitude {abs(zj):.2e} <= {tol_cell}"
        )
    return (zj.conjugate() / abs(zj)) * z.z


def classify_pair(
    x: BundlePoint,
    y: BundlePoint,
    tol_anti: float = TOL_ANTI,
    tol_cell: float = TOL_CELL,
) -> int:
    """Partition piece of a same-fiber pair, in {0, ..., n+2}.

    0 for non-antipodal pairs; 1 for antipodal pairs with ``x`` off the
    poles; 2 + (cell index of the base point) for antipodal pole pairs.
    """
    d = fiber_inner(x, y)
    if d > -1.0 + tol_anti:
        return 0
    if x.w_norm > tol_anti:
        return 1
    return 2 + cell_index(x.z, tol_cell)


# -- path segments -----------------------------------------------------------
#
# Every segment is a great-circle arc cos(a) p + sin(a) d through orthonormal
# fiber points p and d, with a = u * angle on the segment's local time u in
# [0, 1]: constant speed |angle| <= pi, analytic in u.


class ArcSegment:
    """Great-circle arc ``cos(a) p + sin(a) d``, ``a`` running from 0 to ``angle``."""

    def __init__(
        self,
        kind: str,
        pivot: tuple[np.ndarray, float],
        direction: tuple[np.ndarray, float],
        angle: float,
    ):
        self.kind = kind
        self.wp, self.sp = pivot
        self.wd, self.sd = direction
        self.angle = angle

    def fiber_at(self, u):
        """Fiber coordinates ``(w, s)`` at local time ``u``.

        ``u`` is a float, or an array of local times giving one row of ``w``
        and one entry of ``s`` per time.
        """
        a = u * self.angle
        c, s = np.cos(a), np.sin(a)
        return np.multiply.outer(c, self.wp) + np.multiply.outer(s, self.wd), c * self.sp + s * self.sd


def _geodesic(start: tuple[np.ndarray, float], end: tuple[np.ndarray, float]) -> ArcSegment:
    """Constant-speed arc from ``start`` to a non-antipodal ``end``.

    The direction is the part of ``end`` orthogonal to ``start``; the angle
    comes from atan2, which stays accurate near 0 and near pi, unlike acos.
    """
    (w0, s0), (w1, s1) = start, end
    inner = float(np.real(_hdot(w0, w1))) + s0 * s1
    wd, sd = w1 - inner * w0, s1 - inner * s0
    perp = math.sqrt(float(np.vdot(wd, wd).real) + sd * sd)
    if perp == 0.0:
        return ArcSegment("interpolation", start, (wd, sd), 0.0)
    return ArcSegment("interpolation", start, (wd / perp, sd / perp), math.atan2(perp, inner))


def _phase_rotation(w: np.ndarray, phi: float) -> ArcSegment:
    """Rotate the equator point ``(w, 0)`` by the phase ``e^{i a}``, a running 0 -> phi."""
    return ArcSegment("phase-rotation", (w, 0.0), (1j * w, 0.0), phi)


class PlannedPath:
    """A piecewise-analytic path in one fiber, evaluable at any t in [0, 1].

    The m ``segments`` share global time equally: segment i runs over
    ``[i/m, (i+1)/m]`` (the ``breakpoints``), evaluated in its own unit-time
    parametrization through its ``fiber_at(u)``, which takes a 1-D array of
    local times and returns one row of ``w`` and one entry of ``s`` per
    time.  The path lies over the base point of ``start`` and carries the
    piece index of the partition that produced it.
    """

    __slots__ = ("piece", "z", "segments", "breakpoints", "start", "end")

    def __init__(self, piece: int, segments: Sequence, start: BundlePoint, end: BundlePoint):
        self.piece = piece
        self.z = start.z
        self.segments = tuple(segments)
        self.breakpoints = tuple(i / len(segments) for i in range(len(segments))) + (1.0,)
        self.start = start
        self.end = end

    def fiber_at(self, t):
        """Fiber coordinates at global time ``t``, a float or an array of times.

        Each time belongs to the segment whose half-open interval
        ``[t0, t1)`` holds it (t = 1 to the last), and each segment is
        evaluated once on all of its times.  A float ``t`` gives one ``w``
        and a scalar ``s``.
        """
        t = np.asarray(t, dtype=float)
        if not ((0.0 <= t) & (t <= 1.0)).all():
            raise ValueError("t must lie in [0, 1]")
        breaks = np.array(self.breakpoints)
        index = np.searchsorted(breaks[1:-1], t, side="right")
        u = (t - breaks[index]) / (breaks[index + 1] - breaks[index])
        w = np.empty(t.shape + self.z.z.shape, dtype=complex)
        s = np.empty(t.shape)
        for i, segment in enumerate(self.segments):
            on = index == i
            w[on], s[on] = segment.fiber_at(u[on])
        return w, s[()]

    def at(self, t: float) -> BundlePoint:
        w, s = self.fiber_at(t)
        return BundlePoint(self.z, w, s)

    def sample(self, count: int) -> list[BundlePoint]:
        """Evaluate at ``count`` uniformly spaced times including both ends."""
        if count < 2:
            raise ValueError("need at least two samples")
        w, s = self.fiber_at(np.arange(count) / (count - 1))
        return [BundlePoint(self.z, wi, si) for wi, si in zip(w, s)]

    def __repr__(self) -> str:
        kinds = ", ".join(seg.kind for seg in self.segments)
        return f"PlannedPath(piece={self.piece}, segments=[{kinds}])"


def plan(
    x: BundlePoint,
    y: BundlePoint,
    tol_anti: float = TOL_ANTI,
    tol_cell: float = TOL_CELL,
) -> PlannedPath:
    """Plan a fiberwise motion from x to y; dispatches on :func:`classify_pair`.

    Pairs routed to an antipodal piece whose y is not exactly -x get a final
    short interpolation segment snapping the endpoint onto y, so endpoint
    exactness survives the classification tolerance.  ``tol_anti`` below
    :data:`TOL_ANTI_MIN` raises ``ValueError``.
    """
    if not tol_anti >= TOL_ANTI_MIN:  # also true for NaN
        raise ValueError(f"tol_anti must be at least {TOL_ANTI_MIN:g}, got {tol_anti}")
    piece = classify_pair(x, y, tol_anti, tol_cell)
    p, q = (x.w, x.s), (y.w, y.s)

    if piece == 0:
        segments = [_geodesic(p, q)]
    elif piece == 1:
        equator_w = x.w / x.w_norm
        segments = [
            _geodesic(p, (equator_w, 0.0)),
            _phase_rotation(equator_w, math.pi),
            _geodesic((-equator_w, 0.0), (-x.w, -x.s)),
        ]
        segments += _snap_segment(x, y)
    else:
        direction = cell_section(x.z, piece - 2, tol_cell)
        # orthonormalise against x; a no-op when x sits exactly on a pole
        overlap = float(np.real(_hdot(direction, x.w)))
        wd = direction - overlap * x.w
        sd = -overlap * x.s
        norm = math.hypot(float(np.linalg.norm(wd)), sd)
        segments = [ArcSegment("polar-rotation", p, (wd / norm, sd / norm), math.pi)]
        segments += _snap_segment(x, y)

    return PlannedPath(piece, segments, x, y)


def _snap_segment(x: BundlePoint, y: BundlePoint) -> list:
    anti = (-x.w, -x.s)
    dw = float(np.linalg.norm(anti[0] - y.w))
    if math.hypot(dw, anti[1] - y.s) <= _SNAP_EPS:
        return []
    return [_geodesic(anti, (y.w, y.s))]


def plan_hopf(z, z2, tol_anti: float = TOL_ANTI) -> PlannedPath:
    """Plan on the circle bundle of the canonical line: rotate z onto z2.

    Inputs are unit vectors in the same line, i.e. ``z2 = lambda * z`` with
    ``|lambda| = 1``.  Non-antipodal pairs rotate through the principal
    phase of lambda (piece 0); antipodal pairs through pi (piece 1).  The
    resulting path is returned on the equator ``s = 0`` of the sphere
    bundle.
    """
    z = _as_complex_vector(z)
    z2 = _as_complex_vector(z2)
    if abs(np.linalg.norm(z) - 1.0) > _UNIT_TOL or abs(np.linalg.norm(z2) - 1.0) > _UNIT_TOL:
        raise ValueError("inputs must be unit vectors")
    lam = _hdot(z2, z)
    if float(np.linalg.norm(z2 - lam * z)) > _UNIT_TOL:
        raise NotSameFiberError("z2 is not a unit multiple of z")

    rep = ProjectiveRep.normalized(z)
    if lam.real > -1.0 + tol_anti:
        piece = 0
        phi = math.atan2(lam.imag, lam.real)
    else:
        piece = 1
        phi = math.pi

    start, end = BundlePoint(rep, z, 0.0), BundlePoint(rep, z2, 0.0)
    return PlannedPath(piece, [_phase_rotation(z, phi)], start, end)
