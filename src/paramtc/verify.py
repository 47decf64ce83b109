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


@dataclass
class VerificationOutcome:
    """Result of one suite: case count, the list of violations, worst margins.

    ``worst`` maps an invariant name to the largest value measured for it,
    failing or not, for the suites that measure one.
    """

    suite: str
    cases: int = 0
    failures: list[tuple[str, str, float | str]] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)

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


def _fiber_gap(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Euclidean length of fiber displacements: norms over the last axis of ``w``."""
    return np.hypot(np.linalg.norm(w, axis=-1), s)


def check_path(path: PlannedPath, samples: int = 50) -> VerificationOutcome:
    """Check the planned-path invariants on a uniform grid.

    Endpoint exactness, norm preservation, base-line constancy, and sampled
    continuity: within each segment the difference quotient between
    consecutive grid points, and at step 1e-4 of the segment's unit-time
    parametrization, must stay below 2*pi + 2 (each segment is a
    great-circle arc with angular speed at most pi, plus conditioning slack).
    The path and its segments are evaluated on the whole grid at once, as
    arrays.  A violation is recorded, never raised, even where the path
    leaves the sphere or the line; ``worst`` holds the largest measured
    value of each invariant.
    """
    return _check_paths([path], samples)[0]


def _check_paths(paths: Sequence[PlannedPath], samples: int) -> list[VerificationOutcome]:
    """:func:`check_path` for paths over one CP^n, their samples stacked into arrays.

    Failures are recorded in the order of the per-point checks: the two
    endpoints, then per sample normalization and drift, then per segment and
    grid point the coarse and the fine rate.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t = np.arange(samples) / (samples - 1)
    spacing = 1.0 / (samples - 1)
    u = np.arange(samples) * spacing
    fine = np.flatnonzero(u + LIPSCHITZ_STEP <= 1.0)

    # path samples [path, t]: endpoints, normalization, base line
    stack = _ArcStack(paths)
    w, s = stack.paths_at(t)
    endpoint = np.empty((len(paths), 2))
    ends = ([path.start for path in paths], [path.end for path in paths])
    for j, (index, points) in enumerate(zip((0, -1), ends)):
        gap_w, gap_s = w[:, index] - np.stack([p.w for p in points]), s[:, index] - [p.s for p in points]
        endpoint[:, j] = _fiber_gap(gap_w, gap_s)
    wn = np.linalg.norm(w, axis=-1)
    normalization = np.abs(np.hypot(wn, s) - 1.0)
    z0 = np.stack([path.z.z for path in paths])
    align = np.ones_like(wn)  # on the poles the stored representative carries the line
    np.divide(np.abs((z0.conj()[:, np.newaxis] * w).sum(axis=-1)), wn, out=align, where=wn > 1e-6)
    drift = 1.0 - align

    # segment grids [segment, u], then the fine points: coarse rates to the next
    # grid point, fine rates at the declared step
    first, counts = stack.first, stack.count
    grid = np.concatenate([u, u[fine] + LIPSCHITZ_STEP])
    gw, gs = stack.at(np.arange(len(stack.segments))[:, np.newaxis], grid)
    rate = np.full((len(stack.segments), samples, 2), -np.inf)  # [segment, grid point, coarse | fine]
    rate[:, :-1, 0] = _fiber_gap(np.diff(gw[:, :samples], axis=1), np.diff(gs[:, :samples], axis=1)) / spacing
    fine_w, fine_s = gw[:, samples:] - gw[:, fine], gs[:, samples:] - gs[:, fine]
    rate[:, fine, 1] = _fiber_gap(fine_w, fine_s) / LIPSCHITZ_STEP

    endpoint_fails = endpoint > ENDPOINT_TOL
    sample_fails = np.stack([normalization > NORM_DRIFT_TOL, align < 1.0 - BASE_DRIFT_TOL], axis=-1)
    rate_fails = rate > LIPSCHITZ_BOUND
    worst = {
        "endpoint": endpoint.max(axis=1),
        "normalization": normalization.max(axis=1),
        "base-line drift": drift.max(axis=1),
        "continuity": np.maximum.reduceat(rate.max(axis=(1, 2)), first),
    }
    cases = 2 + samples + counts * (samples - 1 + fine.size)
    outcomes = [
        VerificationOutcome("path", count, worst=dict(zip(worst, row)))
        for count, row in zip(cases.tolist(), zip(*(values.tolist() for values in worst.values())))
    ]

    failing = (
        endpoint_fails.any(axis=1)
        | sample_fails.any(axis=(1, 2))
        | np.logical_or.reduceat(rate_fails.any(axis=(1, 2)), first)
    )
    for p in np.flatnonzero(failing):
        out = outcomes[p]
        for j in np.flatnonzero(endpoint_fails[p]):
            out.record(("t=0", "t=1")[j], "endpoint", float(endpoint[p, j]))
        for i, j in np.argwhere(sample_fails[p]):
            invariant, value = (("normalization", normalization), ("base-line drift", drift))[j]
            out.record(f"t={t[i]:.6f}", invariant, float(value[p, i]))
        for k, i, j in np.argwhere(rate_fails[first[p] : first[p] + counts[p]]):
            out.record(f"segment={k} u={u[i]:.6f}", "continuity", float(rate[first[p] + k, i, j]))
    return outcomes


# -- pair generation ------------------------------------------------------------


def _random_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[BundlePoint, BundlePoint]]:
    """``count`` random same-fiber pairs over CP^n, drawn as one block of normals.

    Row i of the block holds pair i's draws in the order of drawing it alone:
    the real and then the imaginary parts of the representative, then x and
    y as vectors of C + R = R^3.  Each is normalised, and the points are
    checked once per array.
    """
    block = rng.standard_normal((count, 2 * n + 8))
    v = block[:, : n + 1] + 1j * block[:, n + 1 : 2 * n + 2]
    z = v / _norms(v)[:, np.newaxis]
    reps = ProjectiveRep._from_rows(z)
    fiber = block[:, 2 * n + 2 :].reshape(count, 2, 3)
    fiber = fiber / _norms(fiber)[..., np.newaxis]
    x, y = (
        BundlePoint._from_rows(reps, (f[:, 0] + 1j * f[:, 1])[:, np.newaxis] * z, f[:, 2])
        for f in (fiber[:, 0], fiber[:, 1])
    )
    return list(zip(x, y))


def _cell_rep(n: int, j: int) -> ProjectiveRep:
    """A representative inside the 2j-cell with spread-out magnitudes."""
    v = np.zeros(n + 1, dtype=complex)
    for i in range(j + 1):
        v[i] = complex(math.cos(0.7 * (i + 1)), math.sin(0.7 * (i + 1)))
    return ProjectiveRep.normalized(v)


def boundary_pairs(n: int) -> list[tuple[BundlePoint, BundlePoint, int]]:
    """Hand-built pairs hitting every partition piece, with expected indices."""
    pairs: list[tuple[BundlePoint, BundlePoint, int]] = []
    for j in range(n + 1):
        z = _cell_rep(n, j)
        up = BundlePoint.section_point(z, +1)
        down = BundlePoint.section_point(z, -1)
        pairs.append((up, up.antipode(), 2 + j))
        pairs.append((down, down.antipode(), 2 + j))
    z = _cell_rep(n, n)
    equator = BundlePoint.from_fiber(z, 1.0, 0.0)
    pairs.append((equator, equator.antipode(), 1))
    tilted = BundlePoint.from_fiber(z, 0.6, 0.8)
    pairs.append((tilted, tilted.antipode(), 1))
    skew = BundlePoint.from_fiber(z, 0.6 * complex(math.cos(1.0), math.sin(1.0)), -0.8)
    pairs.append((skew, skew.antipode(), 1))
    pairs.append((tilted, tilted, 0))
    pairs.append((tilted, BundlePoint.section_point(z), 0))
    near = BundlePoint.from_fiber(z, -0.6 * complex(math.cos(1e-3), math.sin(1e-3)), -0.8)
    pairs.append((tilted, near, 0))  # nearly antipodal but still piece 0
    return pairs


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

    for i, (x, y) in enumerate(_random_pairs(rng, n, trials)):
        run_case(x, y, f"random#{i}", None)
    for i, (x, y, expected) in enumerate(boundary_pairs(n)):
        run_case(x, y, f"boundary#{i}", expected)

    missing = set(range(n + 3)) - witnessed
    extra = witnessed - set(range(n + 3))
    out.cases += 1
    if missing or extra:
        out.record("coverage", "pieces witnessed", f"missing={sorted(missing)} extra={sorted(extra)}")

    out.cases += 1
    (xa, _), (xb, _) = _random_pairs(rng, n, 2)
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

    One case per pair, each path checked as by :func:`check_path`, planned
    and checked in chunks of ``CHECK_POINTS // samples`` pairs (at least
    one); ``worst`` holds the largest value of each invariant over all paths.
    The random pairs are drawn as one block, exactly the stream of drawing
    them one by one.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    out = VerificationOutcome(f"paths(n={n})")
    rng = np.random.default_rng(seed)
    cases = [(f"random#{i}", x, y) for i, (x, y) in enumerate(_random_pairs(rng, n, trials))]
    cases += [(f"boundary#{i}", x, y) for i, (x, y, _) in enumerate(boundary_pairs(n))]
    step = max(1, CHECK_POINTS // max(samples, 1))  # _check_paths refuses samples < 2
    for lo in range(0, len(cases), step):
        chunk = cases[lo : lo + step]
        for (digest, _, _), sub in zip(chunk, _check_paths([plan(x, y) for _, x, y in chunk], samples)):
            out.cases += 1
            for d, invariant, value in sub.failures:
                out.record(f"{digest} {d}", invariant, value)
            for invariant, value in sub.worst.items():
                out.worst[invariant] = max(out.worst.get(invariant, value), value)
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
