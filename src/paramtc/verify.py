"""Independent oracles and randomized verification suites.

The rewrite oracle re-derives products in the rank-two module over CP^n by
brute-force word expansion with a dense representation; it deliberately
shares no arithmetic with :mod:`paramtc.ring`, so agreement between the two
is evidence rather than tautology.  The path and partition suites drive the
planner on seeded random inputs plus hand-built boundary cases and check
the numeric invariants; the table suite regenerates the bound tables and
compares them against their pinned values.

Suites report a :class:`VerificationOutcome` instead of raising: failures
are data, carrying an input digest, the violated invariant and the measured
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .bounds import secat_sphere_bundle, tc_sphere_bundle
from .bundle import canonical_line_bundle, cpn, k_fold_sum, trivial_bundle, whitney_sum
from .planner import (
    BundlePoint,
    NotSameFiberError,
    PlannedPath,
    ProjectiveRep,
    classify_pair,
    fiber_distance,
    plan,
)
from .ring import LHElement, LHModule, RingDescriptor, Generator, lh_multiply

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


@dataclass
class VerificationOutcome:
    """Result of one suite: case count and the list of violations."""

    suite: str
    cases: int = 0
    failures: list[tuple[str, str, float | str]] = field(default_factory=list)

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


def lh_rewrite_oracle(expression: Expression, n: int, q: int = 3) -> tuple[list[int], list[int]]:
    """Normal form of a formal product of sums of words in {x, U}.

    Expands the product distributively into monomial words, then rewrites
    each word with the two relations ``x^{n+1} -> 0`` and ``U U -> x U``
    (letters commute, all degrees being even).  Returns dense coefficient
    vectors ``(a, b)`` with the value equal to ``a + b U``, where index i
    holds the coefficient of ``x^i``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    words: list[tuple[int, str]] = [(1, "")]
    for factor in expression:
        expanded: list[tuple[int, str]] = []
        for coeff, word in words:
            for c2, w2 in factor:
                expanded.append((coeff * int(c2), word + w2))
        words = expanded

    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for coeff, word in words:
        if any(ch not in "xU" for ch in word):
            raise ValueError(f"word {word!r} uses letters outside {{x, U}}")
        xs = word.count("x")
        us = word.count("U")
        if us == 0:
            if xs <= n:
                a[xs] += coeff
        else:
            # U^k -> x^{k-1} U for k >= 1
            e = xs + us - 1
            if e <= n:
                b[e] += coeff
    return a, b


def oracle_power(terms: Sequence[Word], k: int) -> Expression:
    """The k-th power of a sum of words, as an oracle expression."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    if k == 0:
        return [[(1, "")]]
    return [list(terms)] * k


def lh_to_dense(p: LHElement, n: int) -> tuple[list[int], list[int]]:
    """Dense (a, b) coefficient vectors of a module element over CP^n.

    Pure data conversion for comparing ring results with the oracle; does
    no arithmetic.
    """
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for exps, coeff in p.base.terms.items():
        a[exps[0]] += coeff
    for exps, coeff in p.fiber.terms.items():
        b[exps[0]] += coeff
    return a, b


def _cpn_module(n: int) -> LHModule:
    ring = RingDescriptor((Generator("x", 2, n + 1),))
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
        x = m.ring.generator("x")

        def monomial(a: int, b: int) -> LHElement:
            el = m.one()
            for _ in range(a):
                el = lh_multiply(el, m.element(x, m.ring.zero()))
            for _ in range(b):
                el = lh_multiply(el, m.u())
            return el

        basis = [(a, b) for a in range(n + 1) for b in range(3)]
        for (a1, b1), (a2, b2) in iter_product(basis, repeat=2):
            out.cases += 1
            lhs = lh_multiply(monomial(a1, b1), monomial(a2, b2))
            expr = [[(1, "x" * (a1 + a2) + "U" * (b1 + b2))]]
            expected = lh_rewrite_oracle(expr, n)
            if lh_to_dense(lhs, n) != expected:
                out.record(f"n={n} x^{a1}U^{b1} * x^{a2}U^{b2}", "oracle mismatch", str(expected))

        for name, terms, element in (
            ("U-x", [(1, "U"), (-1, "x")], m.u() - m.from_base(x)),
            ("-x+2U", [(-1, "x"), (2, "U")], m.u() * 2 - m.from_base(x)),
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


def _rate(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float], step: float) -> float:
    """Finite-difference speed between fiber points taken ``step`` apart."""
    (w0, s0), (w1, s1) = a, b
    return math.hypot(float(np.linalg.norm(w1 - w0)), s1 - s0) / step


def check_path(path: PlannedPath, samples: int = 50) -> VerificationOutcome:
    """Check the planned-path invariants on a uniform grid.

    Endpoint exactness, norm preservation, base-line constancy, and sampled
    continuity: within each segment the difference quotient between
    consecutive grid points, and at step 1e-4 of the segment's unit-time
    parametrization, must stay below 2*pi + 2 (each segment is a
    great-circle arc with angular speed at most pi, plus conditioning slack).
    """
    out = VerificationOutcome("path")
    if samples < 2:
        raise ValueError("samples must be >= 2")

    start, end = path.endpoints
    out.cases += 2
    d0 = fiber_distance(path.at(0.0), start)
    if d0 > ENDPOINT_TOL:
        out.record("t=0", "endpoint", d0)
    d1 = fiber_distance(path.at(1.0), end)
    if d1 > ENDPOINT_TOL:
        out.record("t=1", "endpoint", d1)

    z0 = path.z.z
    for i in range(samples):
        t = i / (samples - 1)
        w, s = path.fiber_at(t)
        out.cases += 1
        wn = float(np.linalg.norm(w))
        norm = math.hypot(wn, s)
        if abs(norm - 1.0) > NORM_DRIFT_TOL:
            out.record(f"t={t:.6f}", "normalization", abs(norm - 1.0))
        if wn > 1e-6:
            align = abs(complex(np.vdot(z0, w))) / wn
        else:
            align = 1.0  # on the poles the stored representative carries the line
        if align < 1.0 - BASE_DRIFT_TOL:
            out.record(f"t={t:.6f}", "base-line drift", 1.0 - align)

    spacing = 1.0 / (samples - 1)
    for k, segment in enumerate(path.segments):
        grid = [segment.fiber_at(i * spacing) for i in range(samples)]
        for i in range(samples):
            u = i * spacing
            rates = []
            if i + 1 < samples:  # coarse: to the next grid point
                rates.append(_rate(grid[i], grid[i + 1], spacing))
            if u + LIPSCHITZ_STEP <= 1.0:  # fine: at the declared step
                rates.append(_rate(grid[i], segment.fiber_at(u + LIPSCHITZ_STEP), LIPSCHITZ_STEP))
            for rate in rates:
                out.cases += 1
                if rate > LIPSCHITZ_BOUND:
                    out.record(f"segment={k} u={u:.6f}", "continuity", rate)
    return out


# -- pair generation ------------------------------------------------------------


def _random_rep(rng: np.random.Generator, n: int) -> ProjectiveRep:
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return ProjectiveRep.normalized(v)


def _random_fiber_point(rng: np.random.Generator, z: ProjectiveRep) -> BundlePoint:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return BundlePoint.from_fiber(z, complex(v[0], v[1]), float(v[2]))


def random_pair(rng: np.random.Generator, n: int) -> tuple[BundlePoint, BundlePoint]:
    z = _random_rep(rng, n)
    return _random_fiber_point(rng, z), _random_fiber_point(rng, z)


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

    for i in range(trials):
        x, y = random_pair(rng, n)
        run_case(x, y, f"random#{i}", None)
    for i, (x, y, expected) in enumerate(boundary_pairs(n)):
        run_case(x, y, f"boundary#{i}", expected)

    missing = set(range(n + 3)) - witnessed
    extra = witnessed - set(range(n + 3))
    out.cases += 1
    if missing or extra:
        out.record("coverage", "pieces witnessed", f"missing={sorted(missing)} extra={sorted(extra)}")

    out.cases += 1
    za, zb = _random_rep(rng, n), _random_rep(rng, n)
    if abs(complex(np.vdot(za.z, zb.z))) < 0.999:
        try:
            classify_pair(_random_fiber_point(rng, za), _random_fiber_point(rng, zb))
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
    """Full path-invariant sweep over random and boundary pairs."""
    out = VerificationOutcome(f"paths(n={n})")
    rng = np.random.default_rng(seed)
    cases = [(f"random#{i}", *random_pair(rng, n)) for i in range(trials)]
    cases += [(f"boundary#{i}", x, y) for i, (x, y, _) in enumerate(boundary_pairs(n))]
    for digest, x, y in cases:
        path = plan(x, y)
        sub = check_path(path, samples=samples)
        out.cases += 1
        for d, invariant, value in sub.failures:
            out.record(f"{digest} {d}", invariant, value)
    return out


# -- bound tables ----------------------------------------------------------------


def check_bounds_tables(n_max: int = 8) -> VerificationOutcome:
    """Regenerate the bound tables and compare with their pinned values.

    secat of the k-fold sum of the canonical line bundle over CP^n is
    floor(n/k); fiberwise TC of the canonical circle bundle is 1; fiberwise
    TC of (canonical + trivial) is n + 2 for even n.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    out = VerificationOutcome(f"bounds-tables(n_max={n_max})")
    for n in range(1, n_max + 1):
        eta = canonical_line_bundle(cpn(n))
        for k in range(1, n_max + 1):
            out.cases += 1
            r = secat_sphere_bundle(k_fold_sum(eta, k))
            if not (r.exact and r.lower == n // k):
                out.record(f"secat k={k} n={n}", f"expected exact {n // k}", f"[{r.lower}, {r.upper}]")

        out.cases += 1
        r = tc_sphere_bundle(eta)
        if not (r.exact and r.lower == 1):
            out.record(f"tc-circle n={n}", "expected exact 1", f"[{r.lower}, {r.upper}]")

        if n % 2 == 0:
            out.cases += 1
            xi = whitney_sum(eta, trivial_bundle(cpn(n), 1))
            r = tc_sphere_bundle(xi)
            if not (r.exact and r.lower == n + 2):
                out.record(f"tc-split n={n}", f"expected exact {n + 2}", f"[{r.lower}, {r.upper}]")
    return out
