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

There are two planners for this partition.  :func:`plan` takes one pair of
points and returns a :class:`PlannedPath`; ``paramtc plan`` answers each
query with it, and it is the reference the batched planner is tested
against.  ``_plan_stack`` takes many pairs as plain arrays and writes every
path's arcs straight into one ``_ArcStack``; the path suite plans with it.
The scalar planner stays because a batch of one costs more than twice as
much as one scalar call, and single queries are what ``paramtc plan`` runs.
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
_REP_TOL = 1e-12
_UNIT_TOL = 1e-9


class NotSameFiberError(ValueError):
    """The two points do not lie over the same base point."""


class DegenerateRepresentativeError(ValueError):
    """No homogeneous coordinate of the representative exceeds the tolerance."""


def _hdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product <a, b> = sum a_i * conj(b_i)."""
    return complex(np.vdot(b, a))


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit for bit those of ``np.linalg.norm``.

    Both sum the squares with BLAS dot products, real and imaginary parts apart.
    """
    if np.iscomplexobj(a):
        return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    return np.sqrt(np.vecdot(a, a))


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
        if abs(norm - 1.0) > _REP_TOL:
            raise ValueError(f"representative must be a unit vector (norm {norm})")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ProjectiveRep is immutable")

    @classmethod
    def _from_rows(cls, z: np.ndarray) -> list["ProjectiveRep"]:
        """One representative per row of ``z``, the constructor's checks run on the whole array.

        If any row fails, every row goes through the constructor, whose error
        names the first bad one.  Otherwise ``z`` becomes read-only and each
        representative holds a row of it.
        """
        if not _valid_reps(z).all():
            return [cls(row) for row in z]
        z.setflags(write=False)
        reps = [object.__new__(cls) for _ in z]
        for rep, row in zip(reps, z):
            object.__setattr__(rep, "z", row)
        return reps

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
        self._set(z, w, s)

    def _set(self, z: ProjectiveRep, w: np.ndarray, s: float) -> None:
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "s", s)

    @classmethod
    def _trusted(cls, z: ProjectiveRep, w: np.ndarray, s: float) -> "BundlePoint":
        """The point ``(z, w, s)`` unchecked: for invariants checked already or exact by construction.

        ``w`` must be read-only and ``s`` a float.
        """
        point = object.__new__(cls)
        point._set(z, w, s)
        return point

    @classmethod
    def _from_rows(cls, reps: Sequence[ProjectiveRep], w: np.ndarray, s: np.ndarray) -> list["BundlePoint"]:
        """The points ``(reps[i], w[i], s[i])``, the constructor's checks run on the whole arrays.

        The same finiteness, line and norm checks with the same tolerances.
        If any row fails, every row goes through the constructor, whose error
        names the first bad one.  Otherwise ``w`` becomes read-only and each
        point holds a row of it.
        """
        z = np.array([rep.z for rep in reps]).reshape(w.shape)  # (0, n + 1) for no rows too
        if not _valid_points(z, w, s).all():
            return [cls(rep, wi, si) for rep, wi, si in zip(reps, w, s)]
        w.setflags(write=False)
        return [cls._trusted(rep, wi, si) for rep, wi, si in zip(reps, w, s.tolist())]

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BundlePoint is immutable")

    @classmethod
    def from_fiber(cls, z: ProjectiveRep, c: complex, s: float) -> "BundlePoint":
        """The point ``(c*z, s)``; requires ``|c|^2 + s^2 = 1``."""
        return cls(z, complex(c) * z.z, s)

    @classmethod
    def section_point(cls, z: ProjectiveRep, sign: float = 1.0) -> "BundlePoint":
        """The distinguished pole ``(w = 0, s = +-1)`` of the trivial summand."""
        if not isinstance(z, ProjectiveRep):  # the point is built unchecked
            raise TypeError(f"section_point needs a ProjectiveRep, got {type(z).__name__}")
        w = np.zeros_like(z.z)
        w.setflags(write=False)
        return cls._trusted(z, w, math.copysign(1.0, sign))

    @property
    def w_norm(self) -> float:
        return float(np.linalg.norm(self.w))

    def antipode(self) -> "BundlePoint":
        w = -self.w  # negation is exact, so the invariants carry over
        w.setflags(write=False)
        return BundlePoint._trusted(self.z, w, -self.s)

    def __repr__(self) -> str:
        return f"BundlePoint(w={np.array2string(self.w, precision=4)}, s={self.s:.4f})"


def _valid_reps(z: np.ndarray) -> np.ndarray:
    """Which rows of ``z`` the :class:`ProjectiveRep` constructor accepts: finite unit vectors."""
    return np.isfinite(z).all(axis=-1) & (np.abs(_norms(z) - 1.0) <= _REP_TOL)


def _valid_points(z: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Which rows ``(z[i], w[i], s[i])`` the :class:`BundlePoint` constructor accepts.

    Its finiteness, line-residual and unit-norm checks with its tolerances,
    for representatives ``z`` that are valid already.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # rows with inf or nan fail anyway
        residual = _norms(w - np.vecdot(z, w)[:, np.newaxis] * z)
        norm2 = _norms(w) ** 2 + s * s
        valid = np.isfinite(w).all(axis=-1) & np.isfinite(s) & (residual <= _UNIT_TOL)
        valid &= np.abs(norm2 - 1.0) <= _UNIT_TOL
    return valid


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
    """Great-circle arc ``cos(a) p + sin(a) d``, ``a`` running from 0 to ``angle``.

    ``arc`` holds ``(w_p, s_p, w_d, s_d, angle)``: pivot, direction, angle.
    """

    def __init__(
        self,
        kind: str,
        pivot: tuple[np.ndarray, float],
        direction: tuple[np.ndarray, float],
        angle: float,
    ):
        self.kind = kind
        self.arc = (*pivot, *direction, angle)


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


def _breakpoints(m: int) -> tuple[float, ...]:
    """Global times at which the m segments of a path begin, then 1."""
    return tuple(i / m for i in range(m)) + (1.0,)


class _ArcStack:
    """The segments of paths over one CP^n as arrays: the one evaluator of planned paths.

    Row i of ``wp``, ``sp``, ``wd``, ``sd`` and ``angle`` holds segment i's
    arc.  The paths' segments follow each other in order: path k's ``count[k]``
    segments start at row ``first[k]``.
    """

    def __init__(self, count: np.ndarray, wp, sp, wd, sd, angle):
        self.count = count
        self.first = np.cumsum(count) - count
        self.wp, self.sp, self.wd, self.sd, self.angle = wp, sp, wd, sd, angle

    @classmethod
    def from_paths(cls, paths: Sequence["PlannedPath"]) -> "_ArcStack":
        """The stack of the segments of ``paths``, in order."""
        arcs = zip(*(segment.arc for path in paths for segment in path.segments))
        return cls(np.array([len(path.segments) for path in paths]), *map(np.array, arcs))

    def at(self, index, u):
        """Fiber coordinates of segment ``index`` at local time ``u``, the two broadcast together.

        Returns ``w`` with one more trailing axis than the broadcast shape, and ``s``.
        """
        a = u * self.angle[index]
        c, s = np.cos(a), np.sin(a)
        w = c[..., np.newaxis] * self.wp[index] + s[..., np.newaxis] * self.wd[index]
        return w, c * self.sp[index] + s * self.sd[index]

    def paths_at(self, t: np.ndarray):
        """Every path at the global times ``t``: ``w[path, *t.shape, :]`` and ``s[path, *t.shape]``.

        Each time belongs to the segment whose half-open interval ``[t0, t1)``
        of the path's breakpoints holds it (t = 1 to the last), at local time
        ``(t - t0) / (t1 - t0)``.  Paths are grouped by segment count, so the
        dispatch loops over the few counts, not over paths.
        """
        index = np.empty(self.count.shape + t.shape, dtype=np.intp)
        u = np.empty(index.shape)
        for m in set(self.count.tolist()):  # not np.unique, which imports numpy.ma
            breaks = np.array(_breakpoints(m))
            k = np.searchsorted(breaks[1:-1], t, side="right")
            rows = self.count == m
            index[rows] = self.first[rows].reshape((-1,) + (1,) * t.ndim) + k
            u[rows] = (t - breaks[k]) / (breaks[k + 1] - breaks[k])
        return self.at(index, u)


class PlannedPath:
    """A piecewise-analytic path in one fiber, evaluable at any t in [0, 1].

    The m ``segments`` share global time equally: segment i runs over
    ``[i/m, (i+1)/m]`` (the ``breakpoints``), in its own unit-time
    parametrization.  The path lies over the base point of ``start`` and
    carries the piece index of the partition that produced it.
    """

    __slots__ = ("piece", "z", "segments", "breakpoints", "start", "end")

    def __init__(self, piece: int, segments: Sequence, start: BundlePoint, end: BundlePoint):
        self.piece = piece
        self.z = start.z
        self.segments = tuple(segments)
        self.breakpoints = _breakpoints(len(segments))
        self.start = start
        self.end = end

    def fiber_at(self, t):
        """Fiber coordinates at global time ``t``, a float or an array of times.

        Each time is evaluated on the segment whose half-open interval
        ``[t0, t1)`` holds it (t = 1 on the last).  A float ``t`` gives one
        ``w`` and a scalar ``s``; an array gives one row of ``w`` and one entry
        of ``s`` per time.
        """
        t = np.asarray(t, dtype=float)
        if not ((0.0 <= t) & (t <= 1.0)).all():
            raise ValueError("t must lie in [0, 1]")
        w, s = _ArcStack.from_paths([self]).paths_at(t)
        return w[0], s[0]

    def at(self, t: float) -> BundlePoint:
        return self._points(np.array([t], dtype=float))[0]

    def sample(self, count: int) -> list[BundlePoint]:
        """Evaluate at ``count`` uniformly spaced times including both ends."""
        if count < 2:
            raise ValueError("need at least two samples")
        return self._points(np.arange(count) / (count - 1))

    def _points(self, t: np.ndarray) -> list[BundlePoint]:
        """The path at the times ``t`` as points, checked once on the whole array."""
        w, s = self.fiber_at(t)
        return BundlePoint._from_rows([self.z] * t.size, w, s)

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


def _plan_stack(
    z: np.ndarray, xw: np.ndarray, xs: np.ndarray, yw: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, _ArcStack]:
    """:func:`plan` at its default tolerances for many pairs at once, as arrays.

    Returns the pieces and the paths' arcs.  Pair k runs from
    ``(xw[k], xs[k])`` to ``(yw[k], ys[k])`` over the line of ``z[k]``; the
    rows must be valid points already.  The pieces come from the comparisons
    of :func:`classify_pair`, and each path gets the arcs and segment count
    :func:`plan` gives it: 1 for piece 0, 3 plus the snap for piece 1, 1 plus
    the snap for a pole piece.  Every geodesic is built by one array call,
    then the phase and polar rotations, each written straight into the
    stack's rows.  A unit ``z`` always has a coordinate of at least
    ``1 / sqrt(n + 1)``, far above ``TOL_CELL``, so no pole pair is degenerate.

    The scalar :func:`plan` stays for single queries: by timeit on a shared
    2-vCPU host, a batch of one cost 95-128 us against 10-27 us for ``plan``,
    far more than twice as much, and ``paramtc plan`` answers one pair per
    query.  It is also the reference this batch is tested against.
    """
    w_norm = _norms(xw)
    inner = np.vecdot(yw, xw).real + xs * ys  # fiber_inner: Re<xw, yw> + xs ys
    piece = np.where(inner > -1.0 + TOL_ANTI, 0, np.where(w_norm > TOL_ANTI, 1, 2))
    poles = np.flatnonzero(piece == 2)
    above = np.abs(z[poles]) > TOL_CELL
    piece[poles] += above.shape[-1] - 1 - np.argmax(above[:, ::-1], axis=-1)  # the last one above

    anti = np.flatnonzero(piece > 0)
    snap = np.zeros(piece.shape, dtype=bool)
    snap[anti] = np.hypot(_norms(xw[anti] + yw[anti]), xs[anti] + ys[anti]) > _SNAP_EPS
    count = np.where(piece == 1, 3, 1) + snap
    first = np.cumsum(count) - count
    rows = int(count.sum())
    wp, wd = np.empty((2, rows, z.shape[-1]), dtype=complex)
    sp, sd, angle = np.empty((3, rows))

    # geodesics: piece 0, piece 1's flatten and unflatten, the snaps
    flat = np.flatnonzero(piece == 1)
    equator = xw[flat] / w_norm[flat, np.newaxis]
    zero = np.zeros(flat.size)
    bent = np.flatnonzero(snap)
    ends = [
        (first[piece == 0], xw[piece == 0], xs[piece == 0], yw[piece == 0], ys[piece == 0]),
        (first[flat], xw[flat], xs[flat], equator, zero),
        (first[flat] + 2, -equator, zero, -xw[flat], -xs[flat]),
        (first[bent] + count[bent] - 1, -xw[bent], -xs[bent], yw[bent], ys[bent]),
    ]
    at, w0, s0, w1, s1 = (np.concatenate(part) for part in zip(*ends))
    wp[at], sp[at] = w0, s0
    wd[at], sd[at], angle[at] = _geodesics(w0, s0, w1, s1)

    # piece 1's half turn of the phase on the equator
    at = first[flat] + 1
    wp[at], sp[at], wd[at], sd[at], angle[at] = equator, 0.0, 1j * equator, 0.0, math.pi

    # the polar rotations towards the cell section, orthonormalised against x
    if poles.size:
        zj = z[poles, piece[poles] - 2]
        direction = (zj.conj() / np.abs(zj))[:, np.newaxis] * z[poles]
        overlap = np.vecdot(xw[poles], direction).real
        w_dir = direction - overlap[:, np.newaxis] * xw[poles]
        s_dir = -overlap * xs[poles]
        norm = np.hypot(_norms(w_dir), s_dir)
        at = first[poles]
        wp[at], sp[at], angle[at] = xw[poles], xs[poles], math.pi
        wd[at], sd[at] = w_dir / norm[:, np.newaxis], s_dir / norm
    return piece, _ArcStack(count, wp, sp, wd, sd, angle)


def _geodesics(w0: np.ndarray, s0: np.ndarray, w1: np.ndarray, s1: np.ndarray):
    """Direction and angle of :func:`_geodesic` from each ``(w0, s0)`` to ``(w1, s1)``, as arrays."""
    inner = np.vecdot(w1, w0).real + s0 * s1
    wd, sd = w1 - inner[:, np.newaxis] * w0, s1 - inner * s0
    perp = np.sqrt(np.vecdot(wd, wd).real + sd * sd)
    scale = np.where(perp == 0.0, 1.0, perp)  # a zero-length arc keeps its zero direction
    angle = np.where(perp == 0.0, 0.0, np.arctan2(perp, inner))
    return wd / scale[:, np.newaxis], sd / scale, angle


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
