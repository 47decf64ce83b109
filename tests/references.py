"""Independent references the tests check the engine's computations against.

Nothing under ``src/`` calls these.  Each restates a result in the form the
paper gives it, or a computation in its plainest scalar form, so that
agreement with the engine is independent evidence.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from paramtc.bounds import TCReport
from paramtc.bundle import DdotDescriptor
from paramtc.cli import UsageError, _build_parser
from paramtc.planner import BundlePoint, PlannedPath, ProjectiveRep
from paramtc.ring import RingElement, cup, height


def ddot_euler_height(d: DdotDescriptor) -> int:
    """Height of the complement-bundle Euler class, by the parity rule.

    With h the height of the base Euler class e: even powers collapse to
    ``e^{2m}`` pulled back, odd powers carry a ``2 e^{2m} U`` term, so the
    height is h + 1 when h is even (the base has no 2-torsion, as no base
    does) and h otherwise.  Always equals the direct power computation
    ``lh_height(euler_ddot)``.
    """
    if d.euler_ddot is None:
        raise ValueError("no symbolic Euler class is available for this bundle")
    h = height(d.euler_ddot.module.euler_eta)
    return h + 1 if h % 2 == 0 else h


def power(a: RingElement, k: int) -> RingElement:
    """k-th cup power as ``k`` products ``cup(acc, a)`` from the unit: the linear reference of the height tests.

    ``a^0`` is the unit; a negative ``k`` raises ``ValueError``.
    """
    if k < 0:
        raise ValueError("negative powers are not defined")
    result = a.ring.one()
    for _ in range(k):
        result = cup(result, a)
    return result


def dense_product(a: list[int], b: list[int], mod2: bool) -> list[int]:
    """Product in Z[x]/(x^t), or Z/2[x]/(x^t), of two dense coefficient lists of length t.

    ``a[i]`` is the coefficient of x^i.  The truncated convolution: entry k
    sums ``a[i] * b[k - i]`` over i <= k < t, reduced mod 2 over Z/2.
    """
    t = len(a)
    out = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(t)]
    return [c % 2 for c in out] if mod2 else out


def dense_sum(a: list[int], b: list[int], mod2: bool) -> list[int]:
    """Sum of two dense coefficient lists, reduced mod 2 over Z/2."""
    out = [x + y for x, y in zip(a, b)]
    return [c % 2 for c in out] if mod2 else out


def random_pair(rng: np.random.Generator, n: int) -> tuple[BundlePoint, BundlePoint]:
    """One random same-fiber pair over CP^n, drawn and checked point by point.

    A Gaussian representative through the public constructors, then two
    Gaussian fiber points of C + R, each normalised: the stream the path and
    partition suites draw as one block.
    """
    z = ProjectiveRep.normalized(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))

    def fiber_point() -> BundlePoint:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        return BundlePoint.from_fiber(z, complex(v[0], v[1]), float(v[2]))

    return fiber_point(), fiber_point()


def _cell_rep(n: int, j: int) -> ProjectiveRep:
    """A representative inside the 2j-cell with spread-out magnitudes."""
    v = np.zeros(n + 1, dtype=complex)
    for i in range(j + 1):
        v[i] = complex(math.cos(0.7 * (i + 1)), math.sin(0.7 * (i + 1)))
    return ProjectiveRep.normalized(v)


def boundary_pairs(n: int) -> list[tuple[BundlePoint, BundlePoint, int]]:
    """The suites' hand-built pairs, point by point through the public constructors.

    Both pole antipodes over each cell; over the top cell three off-pole
    antipodes, then a point with itself, with the north pole and with a
    point 1e-3 from its antipode.  Each with its expected piece.
    """
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


def masked_fiber_at(path: PlannedPath, t):
    """``path.fiber_at(t)`` by a per-segment mask dispatch over the path's stored arcs.

    Each time goes to the segment whose half-open interval of the
    breakpoints holds it (t = 1 to the last), and each segment evaluates its
    arc ``cos(a) p + sin(a) d`` once on all of its local times.
    """
    t = np.asarray(t, dtype=float)
    breaks = np.array(path.breakpoints)
    index = np.searchsorted(breaks[1:-1], t, side="right")
    u = (t - breaks[index]) / (breaks[index + 1] - breaks[index])
    w = np.empty(t.shape + path.z.z.shape, dtype=complex)
    s = np.empty(t.shape)
    arcs = path.stack
    for i in range(len(path.kinds)):
        on = index == i
        wp, sp, wd, sd, angle = arcs.wp[i], arcs.sp[i], arcs.wd[i], arcs.sd[i], arcs.angle[i]
        a = u[on] * angle
        c, sin = np.cos(a), np.sin(a)
        w[on] = np.multiply.outer(c, wp) + np.multiply.outer(sin, wd)
        s[on] = c * sp + sin * sd
    return w, s[()]


def plan_json(piece: int, kinds, breakpoints, samples: list[dict]) -> str:
    """The plan payload as ``json.dumps(..., sort_keys=True, indent=2)`` writes it.

    ``samples`` holds dicts of ``t``, ``s`` and ``w``, a list of ``[re, im]``.
    """
    segments = [{"kind": kind, "t0": breakpoints[i], "t1": breakpoints[i + 1]} for i, kind in enumerate(kinds)]
    return json.dumps({"piece": piece, "segments": segments, "samples": samples}, sort_keys=True, indent=2)


def render_plan(path: PlannedPath, count: int, fmt: str) -> str:
    """``paramtc plan``'s stdout for ``path`` at ``count`` samples, built as a payload of points.

    The samples are ``path.sample(count)`` at the times ``i / (count - 1)``,
    each turned into a dict of lists; json is :func:`plan_json` of the whole
    payload, tsv and human one line per sample.
    """
    samples = [
        {"t": i / (count - 1), "w": [[float(c.real), float(c.imag)] for c in p.w], "s": p.s}
        for i, p in enumerate(path.sample(count))
    ]
    if fmt == "json":
        return plan_json(path.piece, path.kinds, path.breakpoints, samples) + "\n"
    if fmt == "tsv":
        lines = ["t\ts\tw"]
        for entry in samples:
            w = ";".join(f"{re:.12g},{im:.12g}" for re, im in entry["w"])
            lines.append(f"{entry['t']:.6f}\t{entry['s']:.12g}\t{w}")
        return "\n".join(lines) + "\n"
    breaks = path.breakpoints
    seg_text = " | ".join(f"{kind} [{breaks[i]:.3f}, {breaks[i + 1]:.3f}]" for i, kind in enumerate(path.kinds))
    lines = [f"piece: {path.piece}", f"segments: {seg_text}"]
    for entry in samples:
        w = ", ".join(f"{re:.6f}{im:+.6f}i" for re, im in entry["w"])
        lines.append(f"t={entry['t']:.3f}  s={entry['s']:+.6f}  w=({w})")
    return "\n".join(lines) + "\n"


def complex_vector_from_json(data, what: str) -> np.ndarray:
    """A JSON list of ``[re, im]`` pairs as a complex vector, read entry by entry.

    Raises the CLI's ``UsageError`` for the first bad entry: a list that is
    empty or not a list, an entry that is not a pair, a value that is not a
    JSON number (booleans included), or an integer too large for a float.
    """
    if not isinstance(data, list) or not data:
        raise UsageError(f"{what} must be a non-empty list of [re, im] pairs")
    out = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise UsageError(f"{what} entries must be [re, im] pairs")
        parts = []
        for value in entry:
            if type(value) not in (int, float):
                raise UsageError(f"{what} must be a number, got {value!r}")
            try:
                parts.append(float(value))
            except OverflowError as exc:
                raise UsageError(f"{what} is too large: {exc}") from exc
        out.append(complex(*parts))
    return np.array(out, dtype=complex)


def report_json(report: TCReport, params: dict) -> str:
    """``paramtc bounds --format json``'s payload as ``json.dumps(..., sort_keys=True, indent=2)`` writes it."""
    return json.dumps({"report": report.to_dict(), **params}, sort_keys=True, indent=2)


def execute_through_the_top_level(argv: list[str]) -> int:
    """``paramtc.cli.execute`` with every argv parsed by the top-level parser, argparse's own way.

    The top-level parser classifies every argument, then hands everything
    after the command word to that command's subparser.
    """
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
