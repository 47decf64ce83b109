"""Independent oracles and randomized verification suites.

The rewrite oracle re-derives products in the rank-two module over CP^n by
expanding words in the letters x and U, collected by their letter counts, and
rewriting them into a dense representation; the cost is polynomial in the
power and in n.  It deliberately shares no code or arithmetic with
:mod:`paramtc.ring`, so agreement between the two is evidence rather than
tautology.  The path and partition suites drive the planner on seeded
random inputs plus hand-built boundary cases and check the numeric
invariants; the table suite regenerates the bound tables and compares them
against their pinned values.

Suites report a :class:`VerificationOutcome` instead of raising: failures
are data, carrying an input digest, the violated invariant and the measured
value.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .bounds import NOTE_STRONGER, family_table
from .bundle import cpn
from .planner import (
    BundlePoint,
    NotSameFiberError,
    PlannedPath,
    ProjectiveRep,
    _ArcStack,
    _norms,
    _plan_stack,
    _valid_points,
    _valid_reps,
    classify_pair,
    plan,
)
from .ring import LHElement, LHModule, lh_multiply, lh_power

__all__ = [
    "DEFAULT_SEED",
    "VerificationOutcome",
    "lh_rewrite_oracle",
    "oracle_power",
    "lh_to_dense",
    "check_path",
    "check_partition",
    "check_paths_random",
    "check_bounds_tables",
    "check_lh_oracle",
]

DEFAULT_SEED = 1729

ENDPOINT_TOL = 1e-9
BASE_DRIFT_TOL = 1e-9
NORM_DRIFT_TOL = 1e-9
LIPSCHITZ_BOUND = 2 * math.pi + 2
LIPSCHITZ_STEP = 1e-4
CHECK_POINTS = 512 * 21  # path samples stacked at once, bounding memory
PAIR_CHUNK = 512  # random pairs the partition suite draws and builds as points at once


@dataclass
class VerificationOutcome:
    """Result of one suite: case count, the list of violations, worst margins.

    ``worst`` maps an invariant name to the largest value measured for it,
    failing or not, for the suites that measure one.  ``pieces`` maps each
    partition piece to the number of pairs the path suite planned on it,
    and is empty for the other suites.
    """

    suite: str
    cases: int = 0
    failures: list[tuple[str, str, float | str]] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)
    pieces: dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, digest: str, invariant: str, value: float | str) -> None:
        self.failures.append((digest, invariant, value))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.suite}: {self.cases} cases, {len(self.failures)} failures - {status}"


# -- the dense rewrite oracle -------------------------------------------------

Word = tuple[int, str]  # integer coefficient, word over the letters {x, U}
Expression = Sequence[Sequence[Word]]  # product of sums of scaled words


def lh_rewrite_oracle(expression: Expression, n: int) -> tuple[list[int], list[int]]:
    """Normal form of a formal product of sums of words in {x, U}.

    The letters commute (all degrees being even), so a word's normal form
    depends only on its letter counts.  The product is expanded one factor
    at a time into a dict from (count_x, count_U) to an integer coefficient,
    and a state is dropped once its degree exceeds n: no later letter lowers
    the degree, so it would rewrite to zero anyway.  At most (n + 2)^2 states
    survive, so a k-th power costs O(k n^2 |factor|) instead of 2^k words.
    The surviving counts are then rewritten with the two relations
    ``x^{n+1} -> 0`` and ``U U -> x U``.  Returns dense coefficient vectors
    ``(a, b)`` with the value equal to ``a + b U``, where index i holds the
    coefficient of ``x^i``.  An empty factor makes the product empty.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    factors = []
    for factor in expression:
        factors.append([(int(c), w) for c, w in factor])
        if not factors[-1]:
            return a, b
    for factor in factors:  # before expanding, so pruning cannot hide a bad word
        for _, word in factor:
            if not set(word) <= {"x", "U"}:
                raise ValueError(f"word {word!r} uses letters outside {{x, U}}")

    def degree(xs: int, us: int) -> int:
        return xs if us == 0 else xs + us - 1  # U^k -> x^{k-1} U for k >= 1

    states = {(0, 0): 1}
    for factor in factors:
        counted = [(c, w.count("x"), w.count("U")) for c, w in factor]
        expanded: dict[tuple[int, int], int] = defaultdict(int)
        for (xs, us), coeff in states.items():
            for c, dx, du in counted:
                if degree(xs + dx, us + du) <= n:
                    expanded[xs + dx, us + du] += coeff * c
        states = expanded

    for (xs, us), coeff in states.items():
        if us == 0:
            a[xs] += coeff
        else:
            b[degree(xs, us)] += coeff
    return a, b


def oracle_power(terms: Sequence[Word], k: int) -> Expression:
    """The k-th power of a sum of words, as an oracle expression.

    The zeroth power is the empty product, which evaluates to the unit.
    """
    if k < 0:
        raise ValueError("negative powers are not defined")
    return [list(terms)] * k


def lh_to_dense(p: LHElement, n: int) -> tuple[list[int], list[int]]:
    """Dense (a, b) coefficient vectors of a module element over CP^n.

    Pure data conversion for comparing ring results with the oracle; does
    no arithmetic.
    """
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for k, coeff in p.base.terms.items():
        a[k] += coeff
    for k, coeff in p.fiber.terms.items():
        b[k] += coeff
    return a, b


def _cpn_module(n: int) -> LHModule:
    ring = cpn(n).ring
    return LHModule(ring, ring.generator("x"), 2)


def check_lh_oracle(n_max: int = 6) -> VerificationOutcome:
    """Compare module products against the rewrite oracle.

    Covers all products of basis monomials x^a U^b with a <= n, b <= 2, and
    the powers of the kernel generator U - x and of the complement Euler
    class -x + 2U, for every n up to ``n_max``.
    """
    out = VerificationOutcome("lh-oracle")
    for n in range(1, n_max + 1):
        m = _cpn_module(n)
        x = m.from_base(m.ring.generator("x"))
        basis = {
            (a, b): lh_multiply(lh_power(x, a), lh_power(m.u(), b)) for a in range(n + 1) for b in range(3)
        }
        for (a1, b1), (a2, b2) in iter_product(basis, repeat=2):
            out.cases += 1
            lhs = lh_multiply(basis[a1, b1], basis[a2, b2])
            expr = [[(1, "x" * (a1 + a2) + "U" * (b1 + b2))]]
            expected = lh_rewrite_oracle(expr, n)
            if lh_to_dense(lhs, n) != expected:
                out.record(f"n={n} x^{a1}U^{b1} * x^{a2}U^{b2}", "oracle mismatch", str(expected))

        for name, terms, element in (
            ("U-x", [(1, "U"), (-1, "x")], m.u() - x),
            ("-x+2U", [(-1, "x"), (2, "U")], m.u() * 2 - x),
        ):
            acc = m.one()
            for k in range(1, 2 * n + 4):
                out.cases += 1
                acc = lh_multiply(acc, element)
                expected = lh_rewrite_oracle(oracle_power(terms, k), n)
                if lh_to_dense(acc, n) != expected:
                    out.record(f"n={n} ({name})^{k}", "oracle mismatch", str(expected))
    return out


# -- path checking -------------------------------------------------------------


def _row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of complex ``w``.

    The formula ``np.linalg.norm(w, axis=-1)`` runs for a complex array, so
    the values are bit for bit its values, without its dispatch.
    """
    return np.sqrt(np.add.reduce((w.conj() * w).real, axis=-1))


def _fiber_gap(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Euclidean length of fiber displacements: norms over the last axis of ``w``."""
    return np.hypot(_row_norms(w), s)


@functools.lru_cache(maxsize=8)
def _grid(samples: int) -> tuple[np.ndarray, np.ndarray, float, int, np.ndarray]:
    """What the checker's grids depend on, built once per sample count: ``(t, u, spacing, nfine, grid)``.

    ``t`` holds the path times i / (samples - 1) and ``u`` the segments'
    local times i * spacing.  The fine points are the ``u`` with
    ``u + LIPSCHITZ_STEP <= 1``; as ``u`` increases they are its first
    ``nfine``.  A segment's ``grid`` is ``u``, then the fine points moved by
    the step, then 1.  The arrays are read-only.
    """
    t = np.arange(samples) / (samples - 1)
    spacing = 1.0 / (samples - 1)
    u = np.arange(samples) * spacing
    nfine = int(np.count_nonzero(u + LIPSCHITZ_STEP <= 1.0))
    grid = np.concatenate([u, u[:nfine] + LIPSCHITZ_STEP, [1.0]])
    for a in (t, u, grid):
        a.setflags(write=False)
    return t, u, spacing, nfine, grid


def check_path(path: PlannedPath, samples: int = 50) -> VerificationOutcome:
    """Check the planned-path invariants on a uniform grid.

    Endpoint exactness, norm preservation, base-line constancy, sampled
    continuity and continuity across segment junctions.  Within each segment
    the difference quotient between consecutive grid points, and at step
    1e-4 of the segment's unit-time parametrization, must stay below
    2*pi + 2 (each segment is a great-circle arc with angular speed at most
    pi, plus conditioning slack); each segment must start within
    ``ENDPOINT_TOL`` of where the one before it ends.  The path and its
    segments are evaluated on the whole grid at once, as arrays.  A
    violation is recorded, never raised, even where the path leaves the
    sphere or the line, and a NaN value is a violation; ``worst`` holds the
    largest measured value of each invariant, NaN if any was.
    """
    out = VerificationOutcome("path")
    ends = np.stack([path.start.w, path.end.w])[:, np.newaxis], np.array([[path.start.s], [path.end.s]])
    out.cases = _check_paths(out, path.stack, path.z.z[np.newaxis], ends, samples, lambda p: "")
    return out


def _check_paths(out: VerificationOutcome, stack: _ArcStack, z, ends, samples: int, label) -> int:
    """:func:`check_path` for the paths of ``stack`` over one CP^n, recorded into ``out``.

    Path p runs over the line of ``z[p]``.  ``ends`` holds the points it
    must join as arrays ``(w, s)`` indexed ``[start | end, path]``.  Its
    samples are stacked into arrays with every other path's; ``worst`` takes
    the maximum over all of them, and failure records are built only for
    failing paths, their digests prefixed by ``label(p)``.  A path's failures
    are recorded in the order of the per-point checks: the two endpoints,
    then per sample normalization and drift, then per segment and grid
    point the coarse and the fine rate, then the junctions.  The junction
    ``segment=k`` is the gap between the end of segment k - 1 and the start
    of segment k.  Returns the number of checks made.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t, u, spacing, nfine, grid = _grid(samples)

    # path samples [path, t]: endpoints [t = 0 | t = 1, path], normalization, base line
    w, s = stack.paths_at(t)
    last = samples - 1
    endpoint = _fiber_gap(w[:, ::last].swapaxes(0, 1) - ends[0], s[:, ::last].T - ends[1])
    wn = _row_norms(w)
    normalization = np.abs(np.hypot(wn, s) - 1.0)
    align = np.ones_like(wn)  # on the poles the stored representative carries the line
    np.divide(np.abs((z.conj()[:, np.newaxis] * w).sum(axis=-1)), wn, out=align, where=wn > 1e-6)
    drift = 1.0 - align

    # segment grids [segment, u], then the fine points, then u = 1: coarse rates
    # to the next grid point, fine rates at the declared step
    first, counts = stack.first, stack.count
    rows = len(stack.angle)
    gw, gs = stack.at(np.arange(rows)[:, np.newaxis], grid)
    rate = np.full((rows, samples, 2), -np.inf)  # [segment, grid point, coarse | fine]
    rate[:, :-1, 0] = _fiber_gap(gw[:, 1:samples] - gw[:, :last], gs[:, 1:samples] - gs[:, :last]) / spacing
    fine_w, fine_s = gw[:, samples:-1] - gw[:, :nfine], gs[:, samples:-1] - gs[:, :nfine]
    rate[:, :nfine, 1] = _fiber_gap(fine_w, fine_s) / LIPSCHITZ_STEP

    # junctions: every segment but a path's first at u = 0 (grid point 0), from
    # the one before at u = 1 (the last grid column)
    joint = np.ones(rows, dtype=bool)
    joint[first] = False
    joints = np.flatnonzero(joint)
    junction = _fiber_gap(gw[joints - 1, -1] - gw[joints, 0], gs[joints - 1, -1] - gs[joints, 0])

    # a value fails unless it is within its bound, so NaN fails too
    endpoint_fails = ~(endpoint <= ENDPOINT_TOL)
    norm_fails, drift_fails = ~(normalization <= NORM_DRIFT_TOL), ~(align >= 1.0 - BASE_DRIFT_TOL)
    rate_fails = ~(rate <= LIPSCHITZ_BOUND)
    junction_fails = ~(junction <= ENDPOINT_TOL)
    worst = {
        "endpoint": endpoint.max(),
        "normalization": normalization.max(),
        "base-line drift": drift.max(),
        "continuity": rate.max(),
        "junction": junction.max(initial=0.0),
    }
    for invariant, value in worst.items():
        value, old = float(value), out.worst.get(invariant, -math.inf)
        out.worst[invariant] = old if math.isnan(old) or old >= value else value  # the max, NaN kept

    segment_fails = rate_fails.any(axis=(1, 2))
    segment_fails[joints] |= junction_fails  # a junction belongs to the path of its later segment
    failing = endpoint_fails.any(axis=0) | (norm_fails | drift_fails).any(axis=1)
    failing |= np.logical_or.reduceat(segment_fails, first)
    for p in np.flatnonzero(failing).tolist():
        prefix, lo, hi = label(p), first[p], first[p] + counts[p]
        for j in np.flatnonzero(endpoint_fails[:, p]):
            out.record(f"{prefix}{('t=0', 't=1')[j]}", "endpoint", float(endpoint[j, p]))
        for i, j in np.argwhere(np.stack([norm_fails[p], drift_fails[p]], axis=-1)):
            invariant, value = (("normalization", normalization), ("base-line drift", drift))[j]
            out.record(f"{prefix}t={t[i]:.6f}", invariant, float(value[p, i]))
        for k, i, j in np.argwhere(rate_fails[lo:hi]):
            out.record(f"{prefix}segment={k} u={u[i]:.6f}", "continuity", float(rate[lo + k, i, j]))
        for k in np.flatnonzero(junction_fails[lo - p : hi - p - 1]):  # path p's joints follow p earlier firsts
            out.record(f"{prefix}segment={k + 1} junction", "junction", float(junction[lo - p + k]))
    return int(counts.size * (2 + samples) + rows * (samples - 1 + nfine) + joints.size)


# -- pair generation ------------------------------------------------------------


def _random_pairs(rng: np.random.Generator, n: int, count: int) -> tuple[np.ndarray, ...]:
    """``count`` random same-fiber pairs over CP^n as arrays ``(z, xw, xs, yw, ys)``.

    They are drawn as one block of normals.  Row i of the block holds pair
    i's draws in the order of drawing it alone: the real and then the
    imaginary parts of the representative, then x and y as vectors of
    C + R = R^3.  Each is normalised.  Consecutive blocks continue one
    stream, so drawing in chunks gives the pairs of drawing them at once.
    """
    block = rng.standard_normal((count, 2 * n + 8))
    v = block[:, : n + 1] + 1j * block[:, n + 1 : 2 * n + 2]
    z = v / _norms(v)[:, np.newaxis]
    fiber = block[:, 2 * n + 2 :].reshape(count, 2, 3)
    fiber = fiber / _norms(fiber)[..., np.newaxis]
    x, y = ((f[:, 0] + 1j * f[:, 1])[:, np.newaxis] * z for f in (fiber[:, 0], fiber[:, 1]))
    return z, x, fiber[:, 0, 2], y, fiber[:, 1, 2]


@functools.lru_cache(maxsize=8)
def _boundary_arrays(n: int) -> tuple[np.ndarray, ...]:
    """The hand-built pairs hitting every partition piece, as read-only arrays ``(z, xw, xs, yw, ys, piece)``.

    Over a representative inside each 2j-cell, with spread-out magnitudes:
    both pole antipodes (piece 2 + j).  Over the one inside the top cell:
    three off-pole antipodes (piece 1), then a point with itself, with the
    north pole and with a point 1e-3 from its antipode (piece 0).  They
    depend on n alone, so they are built once per n; every caller still
    checks, plans or classifies them.
    """
    head = [complex(math.cos(0.7 * (i + 1)), math.sin(0.7 * (i + 1))) for i in range(n + 1)]
    v = np.tril(np.array([head] * (n + 1)))  # row j: the first j + 1 coordinates
    cells = v / _norms(v)[:, np.newaxis]
    top = cells[n]
    skew = 0.6 * complex(math.cos(1.0), math.sin(1.0))
    near = -0.6 * complex(math.cos(1e-3), math.sin(1e-3))
    # over the top cell: equator, tilted and skew points to their antipodes, then
    # the tilted point to itself, to the north pole and to near
    tail_x = np.array([1.0, 0.6, skew, 0.6, 0.6, 0.6], dtype=complex)[:, np.newaxis] * top
    tail_y = np.concatenate([-tail_x[:3], tail_x[3:4], np.zeros((1, n + 1), complex), near * top[np.newaxis]])
    poles = np.zeros((2 * n + 2, n + 1), dtype=complex)
    pole_s = np.tile([1.0, -1.0], n + 1)
    arrays = (
        np.concatenate([np.repeat(cells, 2, axis=0), np.broadcast_to(top, (6, n + 1))]),
        np.concatenate([poles, tail_x]),
        np.concatenate([pole_s, [0.0, 0.8, -0.8, 0.8, 0.8, 0.8]]),
        np.concatenate([-poles, tail_y]),
        np.concatenate([-pole_s, [-0.0, -0.8, 0.8, 0.8, 1.0, -0.8]]),
        np.concatenate([np.repeat(np.arange(2, n + 3), 2), [1, 1, 1, 0, 0, 0]]),
    )
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _pair_points(z, xw, xs, yw, ys) -> list[tuple[BundlePoint, BundlePoint]]:
    """The pairs ``((z[i], xw[i], xs[i]), (z[i], yw[i], ys[i]))`` as points, checked once per array.

    A bad row raises as the constructors do, naming it.
    """
    reps = ProjectiveRep._from_rows(z)
    return list(zip(BundlePoint._from_rows(reps, xw, xs), BundlePoint._from_rows(reps, yw, ys)))


def boundary_pairs(n: int) -> list[tuple[BundlePoint, BundlePoint, int]]:
    """Hand-built pairs hitting every partition piece, with expected indices."""
    *rows, piece = _boundary_arrays(n)
    return [(x, y, k) for (x, y), k in zip(_pair_points(*rows), piece.tolist())]


def check_partition(n: int, trials: int = 1000, seed: int = DEFAULT_SEED) -> VerificationOutcome:
    """Classification totality and planner coverage of all n + 3 pieces.

    Random same-fiber pairs plus the hand-built boundary pairs must each
    receive exactly one in-range index, plan successfully, and jointly
    witness every piece; pairs over different base points must be rejected
    before classification.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    out = VerificationOutcome(f"partition(n={n})")
    rng = np.random.default_rng(seed)
    witnessed: set[int] = set()

    def run_case(x: BundlePoint, y: BundlePoint, digest: str, expected: int | None) -> None:
        out.cases += 1
        try:
            piece = classify_pair(x, y)
        except Exception as exc:  # classification must be total on same-fiber pairs
            out.record(digest, "classification raised", repr(exc))
            return
        if not 0 <= piece <= n + 2:
            out.record(digest, "piece out of range", piece)
            return
        if expected is not None and piece != expected:
            out.record(digest, f"expected piece {expected}", piece)
            return
        witnessed.add(piece)
        try:
            path = plan(x, y)
        except Exception as exc:
            out.record(digest, "plan raised", repr(exc))
            return
        if path.piece != piece:
            out.record(digest, "path piece mismatch", path.piece)

    for lo in range(0, trials, PAIR_CHUNK):  # drawn chunk by chunk, one stream, so memory stays flat
        for i, (x, y) in enumerate(_pair_points(*_random_pairs(rng, n, min(PAIR_CHUNK, trials - lo))), lo):
            run_case(x, y, f"random#{i}", None)
    for i, (x, y, expected) in enumerate(boundary_pairs(n)):
        run_case(x, y, f"boundary#{i}", expected)

    missing = set(range(n + 3)) - witnessed
    extra = witnessed - set(range(n + 3))
    out.cases += 1
    if missing or extra:
        out.record("coverage", "pieces witnessed", f"missing={sorted(missing)} extra={sorted(extra)}")

    out.cases += 1
    (xa, _), (xb, _) = _pair_points(*_random_pairs(rng, n, 2))
    if abs(complex(np.vdot(xa.z.z, xb.z.z))) < 0.999:
        try:
            classify_pair(xa, xb)
            out.record("cross-fiber", "not rejected", "classify_pair accepted")
        except NotSameFiberError:
            pass
    return out


def check_paths_random(
    n: int,
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
    samples: int = 21,
) -> VerificationOutcome:
    """Full path-invariant sweep over random and boundary pairs.

    One case per pair, each path checked as by :func:`check_path`; ``worst``
    holds the largest value of each invariant over all paths and ``pieces``
    the number of pairs on each piece.  The pairs go in chunks of
    ``CHECK_POINTS // samples`` (at least one), as arrays from draw to
    check: each chunk's random pairs are drawn then, continuing one stream,
    its points are checked once, and the batched planner plans them all.
    So memory does not grow with ``trials``.  The boundary rows and the
    grids are built once per n and per ``samples``; every call still checks,
    plans and evaluates every pair.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    out = VerificationOutcome(f"paths(n={n})")
    rng = np.random.default_rng(seed)
    *boundary, _ = _boundary_arrays(n)
    total = trials + len(boundary[0])
    pieces = np.zeros(n + 3, dtype=int)

    def label(lo: int):
        return lambda p: f"random#{lo + p} " if lo + p < trials else f"boundary#{lo + p - trials} "

    step = max(1, CHECK_POINTS // samples)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        rows = _random_pairs(rng, n, max(0, min(hi, trials) - lo))
        if hi > trials:
            tail = slice(max(lo, trials) - trials, hi - trials)
            rows = tuple(np.concatenate([drawn, built[tail]]) for drawn, built in zip(rows, boundary))
        z, xw, xs, yw, ys = rows
        points = (np.concatenate([z, z]), np.concatenate([xw, yw]), np.concatenate([xs, ys]))
        if not (_valid_reps(z).all() and _valid_points(*points).all()):
            _pair_points(*rows)  # raises as the constructors do, naming the first bad row
        piece, stack = _plan_stack(*rows)
        pieces += np.bincount(piece, minlength=n + 3)
        ends = points[1].reshape(2, len(z), n + 1), points[2].reshape(2, len(z))  # x rows, then y rows
        _check_paths(out, stack, z, ends, samples, label(lo))
        out.cases += len(z)
    out.pieces = dict(enumerate(pieces.tolist()))
    return out


# -- bound tables ----------------------------------------------------------------


def check_bounds_tables(n_max: int = 8) -> VerificationOutcome:
    """Regenerate the bound tables and compare with their pinned values.

    secat of the k-fold sum of the canonical line bundle over CP^n is
    floor(n/k); fiberwise TC of the canonical circle bundle is 1; fiberwise
    TC of (canonical + trivial) is n + 2 for even n and n + 1 for odd n.
    The odd-n value rests on the dimension argument behind R5 (derived in
    :mod:`paramtc.bounds`), so those rows, and only those, must carry
    :data:`~paramtc.bounds.NOTE_STRONGER`; a wrong note is recorded as its
    own invariant.
    """
    tables = [(f"secat k={k} n={n}", n // k, False, r) for n, k, r in family_table("k-eta", n_max)]
    tables += [(f"tc-circle n={n}", 1, False, r) for n, _, r in family_table("eta", n_max)]
    split = family_table("eta-plus-eps", n_max)
    tables += [(f"tc-split n={n}", n + 2 - n % 2, n % 2 == 1, r) for n, _, r in split]
    out = VerificationOutcome(f"bounds-tables(n_max={n_max})")
    for digest, value, stronger, r in tables:
        out.cases += 1
        if not (r.exact and r.lower == value):
            out.record(digest, f"expected exact {value}", f"[{r.lower}, {r.upper}]")
        if (NOTE_STRONGER in r.notes) != stronger:
            out.record(digest, "NOTE_STRONGER", "missing" if stronger else "unexpected")
    return out
