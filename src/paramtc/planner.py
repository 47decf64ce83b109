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
  ``(w/|w|, 0)``, rotate that point by the phase e^{i pi t} to
  ``(-w/|w|, 0)``, then run the geodesic from there to y;
* piece 2 + j: antipodal pairs at the poles over the open cell of CP^n
  whose last nonzero homogeneous coordinate is the j-th, joined by a
  quarter turn of polar rotation towards the direction d the cell section
  picks continuously, then the geodesic from d to y.

Each piece has a fixed arc template -- 1, 3 and 2 arcs -- whose last arc
ends on y itself, so y need not be exactly -x on an antipodal piece.  On
every piece the plan is continuous in (x, y); no plan can be continuous
across all pieces at once, which is the point of the TC lower bounds.  All
formulas act on ``(w, s)`` only, never on the representative ``z`` alone,
so everything is invariant under ``z -> lambda z``.

One planner dispatches on this partition.  ``_plan_stack`` takes many pairs
as plain arrays, classifies them by the comparisons of :func:`classify_pair`,
calls one array builder per piece on that piece's rows and writes the arcs
into one ``_ArcStack``, the one evaluator of planned paths.  The path suite
plans whole chunks with it.  :func:`plan` runs it on one pair's row and
returns the one-path stack as a :class:`PlannedPath`; ``paramtc plan``
answers each query with it, writing its samples from the path's checked
sample arrays.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TOL_ANTI",
    "TOL_CELL",
    "TOL_ANTI_MIN",
    "ProjectiveRep",
    "BundlePoint",
    "PlannedPath",
    "fiber_inner",
    "classify_pair",
    "cell_index",
    "cell_section",
    "plan",
    "plan_hopf",
    "NotSameFiberError",
    "DegenerateRepresentativeError",
]

# default classification tolerances: deterministic piece assignment; the last
# arc of every piece ends on y, so a pair within them still ends exactly
TOL_ANTI = 1e-8
TOL_CELL = 1e-10
# smallest tol_anti plan accepts: a piece-0 pair this close to antipodal has a
# geodesic direction y - <x, y> x of norm ~sqrt(2 tol_anti), mostly rounding noise
# once tol_anti <= 1e-13, where such paths left the line; 1e-10 keeps 3 decades.
TOL_ANTI_MIN = 1e-10

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
    """Euclidean norms along the last axis: entry i is bit for bit ``np.linalg.norm(a[i])``.

    Both sum the squares of a row with BLAS dot products, real and imaginary
    parts apart.  ``np.linalg.norm(a, axis=-1)`` sums them in another order
    and may differ from either in the last place.
    """
    if np.iscomplexobj(a):
        return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    return np.sqrt(np.vecdot(a, a))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector, bit for bit ``np.linalg.norm``'s, without its dispatch.

    The same two BLAS dot products, real and imaginary parts apart.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


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
        norm = _norm(z)
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
        residual = _norm(w - _hdot(w, z.z) * z.z)
        if residual > _UNIT_TOL:
            raise ValueError(f"w is not in the line of z (residual {residual:.2e})")
        norm2 = _norm(w) ** 2 + s * s
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

        The constructor's checks with its tolerances, run by
        :func:`_check_points`.  ``w`` becomes read-only and each point holds a
        row of it.
        """
        z = np.array([rep.z for rep in reps]).reshape(w.shape)  # (0, n + 1) for no rows too
        _check_points(reps, z, w, s)
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


def _check_points(reps: Iterable[ProjectiveRep], z: np.ndarray, w: np.ndarray, s: np.ndarray) -> None:
    """Raise as the :class:`BundlePoint` constructor does if a row ``(reps[i], w[i], s[i])`` fails its checks.

    ``z`` holds the representatives' vectors, one row each or one row for
    all.  :func:`_valid_points` checks the whole arrays once; only if a row
    fails does every row go through the constructor, whose error names the
    first bad one.
    """
    if not _valid_points(z, w, s).all():
        for rep, wi, si in zip(reps, w, s):
            BundlePoint(rep, wi, si)


def _require_same_fiber(x: BundlePoint, y: BundlePoint) -> None:
    for point in (x, y):
        if not isinstance(point, BundlePoint):
            raise TypeError(f"expected a BundlePoint, got {type(point).__name__}")
    if x.w.size != y.w.size or not x.z.same_line(y.z):
        raise NotSameFiberError("points lie over different base points")


def _check_tolerances(tol_anti: float = TOL_ANTI, tol_cell: float = TOL_CELL, anti_floor: float = 0.0) -> None:
    """Refuse a ``tol_anti`` outside [``anti_floor``, 1) or a ``tol_cell`` outside [0, 1), NaN included.

    At 1 or above, ``tol_anti`` sends non-antipodal pairs to the antipodal
    pieces, and ``tol_cell`` leaves no coordinate above it; below 0,
    ``tol_cell`` counts a zero coordinate as a cell's last.
    """
    for name, tol, floor in (("tol_anti", tol_anti, anti_floor), ("tol_cell", tol_cell, 0.0)):
        if not floor <= tol < 1.0:  # also true for NaN
            raise ValueError(f"{name} must lie in [{floor:g}, 1), got {tol}")


def _pair_row(x: BundlePoint, y: BundlePoint) -> tuple[np.ndarray, ...]:
    """The pair as one row of the array planners' ``(z, xw, xs, yw, ys)``."""
    return x.z.z[np.newaxis], x.w[np.newaxis], np.array([x.s]), y.w[np.newaxis], np.array([y.s])


def fiber_inner(x: BundlePoint, y: BundlePoint) -> float:
    """Scalar product in the fiber: Re<w, w'> + s*s' (orthogonal-sum metric)."""
    _require_same_fiber(x, y)
    return float(np.real(_hdot(x.w, y.w))) + x.s * y.s


def _cells(z: np.ndarray, tol_cell: float) -> np.ndarray:
    """Cell index of each row of ``z``: its last coordinate of magnitude above ``tol_cell``."""
    above = np.abs(z) > tol_cell
    if not above.any(axis=-1).all():
        raise DegenerateRepresentativeError(f"all coordinates are below the cell tolerance {tol_cell}")
    return above.shape[-1] - 1 - np.argmax(above[:, ::-1], axis=-1)


def cell_index(z: ProjectiveRep, tol_cell: float = TOL_CELL) -> int:
    """Index j of the open cell of CP^n containing [z].

    The 2j-cell consists of the lines whose last nonzero homogeneous
    coordinate is the j-th.  ``tol_cell`` outside [0, 1) raises ``ValueError``.
    """
    _check_tolerances(tol_cell=tol_cell)
    return int(_cells(z.z[np.newaxis], tol_cell)[0])


def _sections(z: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each row ``z[i]`` with the phase of its coordinate ``j[i]`` divided out."""
    zj = z[np.arange(len(z)), j]
    return (zj.conj() / np.abs(zj))[:, np.newaxis] * z


def cell_section(z: ProjectiveRep, j: int, tol_cell: float = TOL_CELL) -> np.ndarray:
    """Unit vector in the line [z] whose j-th coordinate is real and positive.

    Continuous on the open 2j-cell and invariant under ``z -> lambda z``:
    the phase of the j-th coordinate is divided out.  ``tol_cell`` outside
    [0, 1) raises ``ValueError``.
    """
    _check_tolerances(tol_cell=tol_cell)
    zj = complex(z.z[j])
    if abs(zj) <= tol_cell:
        raise DegenerateRepresentativeError(
            f"coordinate {j} has magnitude {abs(zj):.2e} <= {tol_cell}"
        )
    return _sections(z.z[np.newaxis], [j])[0]


def _pieces(z, xw, xs, yw, ys, tol_anti: float, tol_cell: float) -> np.ndarray:
    """The partition piece of each pair, from ``(xw[i], xs[i])`` to ``(yw[i], ys[i])`` over the line of ``z[i]``.

    0 if the fiber inner product exceeds -1 + ``tol_anti``; else 1 if
    ``|xw| > tol_anti``; else 2 + the cell index.
    """
    inner = np.vecdot(yw, xw).real + xs * ys  # fiber_inner: Re<xw, yw> + xs ys
    antipodal = ~(inner > -1.0 + tol_anti)
    poles = antipodal & ~(_norms(xw) > tol_anti)
    piece = antipodal.astype(np.intp) + poles
    if poles.any():
        piece[poles] += _cells(z[poles], tol_cell)
    return piece


def classify_pair(
    x: BundlePoint,
    y: BundlePoint,
    tol_anti: float = TOL_ANTI,
    tol_cell: float = TOL_CELL,
) -> int:
    """Partition piece of a same-fiber pair, in {0, ..., n+2}.

    0 for non-antipodal pairs; 1 for antipodal pairs with ``x`` off the
    poles; 2 + (cell index of the base point) for antipodal pole pairs.
    ``tol_anti`` or ``tol_cell`` outside [0, 1) raises ``ValueError``.
    """
    _check_tolerances(tol_anti, tol_cell)
    _require_same_fiber(x, y)
    return int(_pieces(*_pair_row(x, y), tol_anti, tol_cell)[0])


# -- arcs ----------------------------------------------------------------------
#
# Every segment is a great-circle arc cos(a) p + sin(a) d through orthonormal
# fiber points p and d, with a = u * angle on the segment's local time u in
# [0, 1]: constant speed |angle| <= pi, analytic in u.  An arc is the tuple
# (wp, sp, wd, sd, angle) of pivot, direction and angle, one row per pair.  An
# interpolation arc is built from its ends (w0, s0, w1, s1) by _geodesics.


def _geodesics(w0: np.ndarray, s0: np.ndarray, w1: np.ndarray, s1: np.ndarray):
    """Constant-speed arcs from each ``(w0, s0)`` to a non-antipodal ``(w1, s1)``.

    The direction is the part of the end orthogonal to the start; the angle
    comes from arctan2, which stays accurate near 0 and near pi, unlike
    arccos.  Equal ends give angle 0 and the zero direction.
    """
    inner = np.vecdot(w1, w0).real + s0 * s1
    wd, sd = w1 - inner[:, np.newaxis] * w0, s1 - inner * s0
    perp = np.sqrt(np.vecdot(wd, wd).real + sd * sd)
    scale = perp + (perp == 0.0)  # a zero-length arc keeps its zero direction
    return w0, s0, wd / scale[:, np.newaxis], sd / scale, np.arctan2(perp, inner)


def _phase_turns(w: np.ndarray, phi: float):
    """Rotate each equator point ``(w, 0)`` by the phase ``e^{i a}``, a running from 0 to ``phi``."""
    zero = np.zeros(len(w))
    return w, zero, 1j * w, zero, np.full(len(w), phi)


def _polar_turns(z: np.ndarray, j: np.ndarray, xw: np.ndarray, xs: np.ndarray):
    """Quarter turns from each x to the cell section of coordinate j, orthonormalised against x.

    The orthonormalisation is a no-op when x sits exactly on a pole.
    """
    direction = _sections(z, j)
    overlap = np.vecdot(xw, direction).real
    wd, sd = direction - overlap[:, np.newaxis] * xw, -overlap * xs
    norm = np.hypot(_norms(wd), sd)
    return xw, xs, wd / norm[:, np.newaxis], sd / norm, np.full(len(xs), math.pi / 2)


# The arc builders, one per piece: each takes the pairs' pieces and rows
# ``(z, xw, xs, yw, ys)`` and returns their arcs in order, each interpolation
# arc by its ends, so that the batch builds all of them in one call.


def _piece_zero(piece, z, xw, xs, yw, ys):
    """The geodesic from x to y."""
    return [(xw, xs, yw, ys)]


def _piece_one(piece, z, xw, xs, yw, ys):
    """Flatten x to ``(e, 0)``, e = xw / |xw|; turn the phase by pi; the geodesic from ``(-e, 0)`` to y."""
    e = xw / _norms(xw)[:, np.newaxis]
    zero = np.zeros(len(xs))
    return [(xw, xs, e, zero), _phase_turns(e, math.pi), (-e, zero, yw, ys)]


def _pole_piece(piece, z, xw, xs, yw, ys):
    """A quarter turn from x to the cell direction d, then the geodesic from d to y."""
    turn = _polar_turns(z, piece - 2, xw, xs)
    return [turn, (turn[2], turn[3], yw, ys)]


# the arc kinds of pieces 0 and 1 and of every pole piece, and their builders
_KINDS = (("interpolation",), ("interpolation", "phase-rotation", "interpolation"), ("polar-rotation", "interpolation"))
_BUILDERS = (_piece_zero, _piece_one, _pole_piece)
_COUNTS = np.array([len(kinds) for kinds in _KINDS])


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

        A path's m segments share [0, 1] equally, so time t lies on segment
        k = min(floor(t m), m - 1), whose breakpoints are t0 = k/m and
        t1 = (k + 1)/m, at local time (t - t0) / (t1 - t0).
        """
        m = self.count.reshape(self.count.shape + (1,) * t.ndim)
        k = np.minimum((t * m).astype(np.intp), m - 1)  # truncation is the floor, as t >= 0
        t0, t1 = k / m, (k + 1) / m
        return self.at(self.first.reshape(m.shape) + k, (t - t0) / (t1 - t0))


class PlannedPath:
    """A piecewise-analytic path in one fiber, evaluable at any t in [0, 1].

    Its m segments, of the given ``kinds``, share global time equally:
    segment i runs over ``[i/m, (i+1)/m]`` (the ``breakpoints``), in its own
    unit-time parametrization.  ``stack`` holds their arcs as a one-path
    ``_ArcStack``.  The path lies over the base point of ``start`` and
    carries the piece index of the partition that produced it.
    """

    __slots__ = ("piece", "kinds", "stack", "start", "end")

    def __init__(self, piece: int, kinds: tuple[str, ...], stack: _ArcStack, start: BundlePoint, end: BundlePoint):
        self.piece = piece
        self.kinds = kinds
        self.stack = stack
        self.start = start
        self.end = end

    @property
    def z(self) -> ProjectiveRep:
        return self.start.z

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Global times at which the segments begin, then 1."""
        m = len(self.kinds)
        return tuple(i / m for i in range(m)) + (1.0,)

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
        w, s = self.stack.paths_at(t)
        return w[0], s[0]

    def _checked_samples(self, count: int, size: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The times ``t[i] = i / (count - 1)`` and the path's ``w`` and ``s`` there, checked once.

        The arrays pass the :class:`BundlePoint` constructor's checks, or the
        constructor's ``ValueError`` for the first bad sample is raised.
        ``paramtc plan`` writes its output from them, and :meth:`sample` wraps
        them as points.  Given a ``size``, a longer grid is evaluated and
        checked ``size`` times at a time, in order, into arrays allocated
        once, so that no evaluation temporary spans the whole grid; every
        sample is elementwise, so the values are those of one evaluation.
        """
        if count < 2:
            raise ValueError("need at least two samples")
        t = np.arange(count) / (count - 1)

        def checked(times):
            w, s = self.fiber_at(times)
            _check_points(itertools.repeat(self.z), self.z.z[np.newaxis], w, s)
            return w, s

        if size is None or count <= size:
            return (t, *checked(t))
        w, s = np.empty((count, self.z.z.size), dtype=complex), np.empty(count)
        for i in range(0, count, size):
            w[i : i + size], s[i : i + size] = checked(t[i : i + size])
        return t, w, s

    def sample(self, count: int) -> list[BundlePoint]:
        """Evaluate at ``count`` uniformly spaced times including both ends, as points checked once.

        The points of :meth:`_checked_samples`, each holding a row of its ``w``.
        ``paramtc plan`` samples through :meth:`_checked_samples` too, and
        writes its output from the arrays without building points.
        """
        _, w, s = self._checked_samples(count)
        w.setflags(write=False)
        return [BundlePoint._trusted(self.z, wi, si) for wi, si in zip(w, s.tolist())]

    def __repr__(self) -> str:
        return f"PlannedPath(piece={self.piece}, segments=[{', '.join(self.kinds)}])"


def plan(
    x: BundlePoint,
    y: BundlePoint,
    tol_anti: float = TOL_ANTI,
    tol_cell: float = TOL_CELL,
) -> PlannedPath:
    """Plan a fiberwise motion from x to y: ``_plan_stack`` on the pair's one row.

    The piece is the one :func:`classify_pair` gives, and the last arc ends
    on y, so endpoint exactness survives the classification tolerance.
    ``tol_anti`` outside [:data:`TOL_ANTI_MIN`, 1) or ``tol_cell`` outside
    [0, 1) raises ``ValueError``.
    """
    _check_tolerances(tol_anti, tol_cell, TOL_ANTI_MIN)
    _require_same_fiber(x, y)
    pieces, stack = _plan_stack(*_pair_row(x, y), tol_anti, tol_cell)
    piece = int(pieces[0])
    return PlannedPath(piece, _KINDS[min(piece, 2)], stack, x, y)


def _plan_stack(z, xw, xs, yw, ys, tol_anti: float = TOL_ANTI, tol_cell: float = TOL_CELL) -> tuple[np.ndarray, _ArcStack]:
    """Plan many pairs at once, as arrays: the one dispatch on the partition.

    Returns the pieces and the paths' arcs.  Pair k runs from
    ``(xw[k], xs[k])`` to ``(yw[k], ys[k])`` over the line of ``z[k]``; the
    rows must be valid points already.  The pieces come from the comparisons
    of :func:`classify_pair`, and each piece's builder gives the arcs of its
    pairs.  They go straight into the stack's rows, every interpolation arc
    of every piece built by one call.  A template with no pair is skipped,
    and when one template holds every pair its builder takes the rows whole.
    :func:`plan` runs this on its one row, with the caller's tolerances; the
    path suite runs it on many at the defaults.  A unit ``z`` always has a
    coordinate of at least ``1 / sqrt(n + 1)``, far above ``TOL_CELL``, so at
    the default no pole pair is degenerate; a larger ``tol_cell`` may raise
    :class:`DegenerateRepresentativeError`, as :func:`classify_pair` does.
    """
    piece = _pieces(z, xw, xs, yw, ys, tol_anti, tol_cell)
    template = np.minimum(piece, 2)
    sizes = np.bincount(template, minlength=len(_KINDS)).tolist()
    count = _COUNTS[template]
    rows = int(count.sum())
    wp, wd = np.empty((2, rows, z.shape[-1]), dtype=complex)
    sp, sd, angle = np.empty((3, rows))
    stack = _ArcStack(count, wp, sp, wd, sd, angle)
    ends, ends_at = [], []
    for i, (kinds, build, size) in enumerate(zip(_KINDS, _BUILDERS, sizes)):
        if not size:
            continue
        if size == len(piece):  # every pair on this template: its rows whole, no gathers
            arcs, starts = build(piece, z, xw, xs, yw, ys), stack.first
        else:
            k = (template == i).nonzero()[0]
            arcs, starts = build(piece[k], z[k], xw[k], xs[k], yw[k], ys[k]), stack.first[k]
        for j, (kind, arc) in enumerate(zip(kinds, arcs)):
            at = starts + j
            if kind == "interpolation":
                ends.append(arc)
                ends_at.append(at)
            else:
                wp[at], sp[at], wd[at], sd[at], angle[at] = arc
    if len(ends) > 1:  # one _geodesics call for them all; a lone arc goes in as it is
        ends, ends_at = [tuple(map(np.concatenate, zip(*ends)))], [np.concatenate(ends_at)]
    for arc, at in zip(ends, ends_at):  # none for an empty batch
        wp[at], sp[at], wd[at], sd[at], angle[at] = _geodesics(*arc)
    return piece, stack


def plan_hopf(z, z2, tol_anti: float = TOL_ANTI) -> PlannedPath:
    """Plan on the circle bundle of the canonical line: rotate z onto z2.

    Inputs are unit vectors in the same line, i.e. ``z2 = lambda * z`` with
    ``|lambda| = 1``.  Non-antipodal pairs rotate through the principal
    phase of lambda (piece 0); antipodal pairs through pi (piece 1).  The
    resulting path is returned on the equator ``s = 0`` of the sphere
    bundle.  ``tol_anti`` outside [0, 1) raises ``ValueError``.
    """
    _check_tolerances(tol_anti)
    z = _as_complex_vector(z)
    z2 = _as_complex_vector(z2)
    if z.size != z2.size:
        raise ValueError(f"z and z2 must have the same length, got {z.size} and {z2.size}")
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
    stack = _ArcStack(np.array([1]), *_phase_turns(start.w[np.newaxis], phi))
    return PlannedPath(piece, ("phase-rotation",), stack, start, end)
