"""Independent references the tests check the engine's computations against.

Nothing under ``src/`` calls these.  Each restates a result in the form the
paper gives it, or a computation in its plainest scalar form, so that
agreement with the engine is independent evidence.
"""

from __future__ import annotations

import numpy as np

from paramtc.bundle import DdotDescriptor
from paramtc.planner import BundlePoint, PlannedPath, ProjectiveRep
from paramtc.ring import height


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


def masked_fiber_at(path: PlannedPath, t):
    """``path.fiber_at(t)`` by a per-segment mask dispatch.

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
    for i, segment in enumerate(path.segments):
        on = index == i
        wp, sp, wd, sd, angle = segment.arc
        a = u[on] * angle
        c, sin = np.cos(a), np.sin(a)
        w[on] = np.multiply.outer(c, wp) + np.multiply.outer(sin, wd)
        s[on] = c * sp + sin * sd
    return w, s[()]
