"""Continuity of the planners in the pair (x, y), piece by piece.

A parametrized motion planner is a partition of the pairs with a plan on
each piece that is continuous in (x, y).  Here pairs are moved a little
within their piece, and the two plans are compared in sup norm over t.  The
gap must stay below ``BOUND * move / margin``.  The move is the largest
displacement of x, of y and of the base line.  The margin says how well the
piece's formulas are conditioned at the pair: sqrt(1 + d) on piece 0, with d
the fiber inner product; |w| of x on piece 1; and on a pole piece the
magnitude |z_j| of the coordinate that fixes the cell, which the cell
section divides by.  A move that takes the pair off its piece is skipped and
counted.  Both planners are checked: ``plan`` point by point and
``_plan_stack`` on arrays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from paramtc.planner import BundlePoint, ProjectiveRep, _norms, _plan_stack, plan

# sup gap <= BOUND[kind] * move / margin on piece 0, piece 1 and the pole
# pieces; the largest ratios measured over CP^1..CP^3 (3 x 3000 pairs per
# kind, moves of 1e-13 to 1e-10) were about 2.5, 1.0 and 5.3
BOUND = (4.0, 4.0, 8.0)
TIMES = np.concatenate([np.linspace(0.0, 1.0, 241), [1 / 3, 2 / 3]])


def _unit(v):
    return v / _norms(v)[..., np.newaxis]


def _rows(z, c, s):
    """Fiber points ``(c[i] z[i], s[i])`` as rows ``(w, s)``."""
    return c[:, np.newaxis] * z, s


def _off_antipode(rng, c, s, gap):
    """The points -x turned by ``gap`` towards a random fiber direction orthogonal to x = (c, s)."""
    p = np.stack([c.real, c.imag, s], axis=1)
    v = rng.standard_normal(p.shape)
    v = _unit(v - (v * p).sum(axis=1)[:, np.newaxis] * p)
    q = -np.cos(gap)[:, np.newaxis] * p + np.sin(gap)[:, np.newaxis] * v
    return q[:, 0] + 1j * q[:, 1], q[:, 2]


def _pairs(rng, n, kind, count):
    """``count`` pairs over CP^n meant for piece 0, 1 or a pole piece, as ``(z, cx, sx, cy, sy, cell, margin)``.

    x and y are ``(c z, s)``.  Each pair is random on its piece, or near a
    classification threshold: y within 1e-8 of where piece 0 ends, |w| down
    to twice TOL_ANTI, |z_j| down to 1e-6.  ``cell`` is the last coordinate a
    move may change: every one off the poles, the cell's own on them.
    """
    z = _unit(rng.standard_normal((count, n + 1)) + 1j * rng.standard_normal((count, n + 1)))
    cell = np.full(count, n)
    if kind == 0:
        f = _unit(rng.standard_normal((count, 2, 3)))
        cx, sx, cy, sy = f[:, 0, 0] + 1j * f[:, 0, 1], f[:, 0, 2], f[:, 1, 0] + 1j * f[:, 1, 1], f[:, 1, 2]
        near_c, near_s = _off_antipode(rng, cx, sx, math.sqrt(2e-8) * rng.choice([1.01, 2.0, 10.0, 100.0], count))
        near = rng.random(count) < 0.5
        cy, sy = np.where(near, near_c, cy), np.where(near, near_s, sy)
        margin = np.sqrt(1.0 + (cy.conj() * cx).real + sx * sy)
    else:
        if kind == 1:
            r = np.exp(rng.uniform(math.log(2e-8), 0.0, count))
            margin = r
        else:
            r = rng.choice([0.0, 1e-9, 5e-9], count)
            cell = rng.integers(0, n + 1, count)
            margin = np.where(cell == 0, 1.0, np.exp(rng.uniform(math.log(1e-6), 0.0, count)))
            z = np.where(np.arange(n + 1) < cell[:, np.newaxis], z, 0.0)  # the coordinates before the cell's
            z *= (np.sqrt(1.0 - margin**2) / np.maximum(_norms(z), 1e-300))[:, np.newaxis]
            z[np.arange(count), cell] = margin * np.exp(1j * rng.uniform(-math.pi, math.pi, count))
            z = _unit(z)
        cx = r * np.exp(1j * rng.uniform(-math.pi, math.pi, count))
        sx = rng.choice([-1.0, 1.0], count) * np.sqrt(1.0 - r * r)
        cy, sy = _off_antipode(rng, cx, sx, rng.choice([0.0, 1e-13, 2e-12, 1e-9, 1e-6], count))
    return z, cx, sx, cy, sy, cell, margin


def _moved(rng, z, cx, sx, cy, sy, cell, size):
    """The pairs moved by about ``size[i]``: the base within coordinates 0..cell, x and y in the fiber."""
    g = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
    g[np.arange(z.shape[1]) > cell[:, np.newaxis]] = 0.0
    z2 = _unit(z + size[:, np.newaxis] * g / math.sqrt(2 * z.shape[1]))
    moved = [z2]
    for c, s in ((cx, sx), (cy, sy)):
        f = _unit(np.stack([c.real, c.imag, s], axis=1) + size[:, np.newaxis] * rng.standard_normal((len(c), 3)))
        moved += [f[:, 0] + 1j * f[:, 1], f[:, 2]]
    return moved


def _planner_rows(z, cx, sx, cy, sy):
    return (z, *_rows(z, cx, sx), *_rows(z, cy, sy))


def _sup_gaps(a, b, planner):
    """Sup over t of the fiber distance between the plans of the pairs ``a`` and ``b``, and both pieces."""
    if planner == "batch":
        (pa, sa), (pb, sb) = _plan_stack(*a), _plan_stack(*b)
        (wa, ta), (wb, tb) = sa.paths_at(TIMES), sb.paths_at(TIMES)
    else:
        paths = [[plan(*_points(rows, i)) for i in range(len(rows[0]))] for rows in (a, b)]
        pa, pb = (np.array([p.piece for p in side]) for side in paths)
        (wa, ta), (wb, tb) = ((np.array(v) for v in zip(*(p.fiber_at(TIMES) for p in side))) for side in paths)
    return np.hypot(np.linalg.norm(wa - wb, axis=-1), ta - tb).max(axis=-1), pa, pb


def _points(rows, i):
    z, xw, xs, yw, ys = rows
    rep = ProjectiveRep(z[i])
    return BundlePoint(rep, xw[i], xs[i]), BundlePoint(rep, yw[i], ys[i])


def _move(a, b):
    """The largest displacement of x, of y and of the base line between the pairs ``a`` and ``b``."""
    base = np.sqrt(np.maximum(0.0, 1.0 - np.abs(np.vecdot(a[0], b[0])) ** 2))
    x = np.hypot(_norms(a[1] - b[1]), a[2] - b[2])
    y = np.hypot(_norms(a[3] - b[3]), a[4] - b[4])
    return np.maximum(np.maximum(x, y), base)


@pytest.mark.parametrize("planner", ["batch", "plan"])
@pytest.mark.parametrize("kind", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 3])
def test_moves_within_a_piece_move_the_plan_as_little(n, kind, planner):
    rng = np.random.default_rng(100 * n + 10 * kind)
    count = 400 if planner == "batch" else 60
    z, cx, sx, cy, sy, cell, margin = _pairs(rng, n, kind, count)
    size = rng.choice([1e-12, 1e-11, 1e-10], count) * np.maximum(margin, 1e-3)
    a = _planner_rows(z, cx, sx, cy, sy)
    b = _planner_rows(*_moved(rng, z, cx, sx, cy, sy, cell, size))
    gap, pa, pb = _sup_gaps(a, b, planner)
    kept = (pa == pb) & ((pa == kind) if kind < 2 else (pa >= 2))
    assert kept.sum() >= 0.9 * count, f"{count - kept.sum()} of {count} moves left the piece"
    move = _move(a, b)
    assert (move[kept] > 0.0).all()
    ratio = gap[kept] / move[kept] * margin[kept]
    assert ratio.max() <= BOUND[kind], ratio.max()


@pytest.mark.parametrize("planner", ["batch", "plan"])
@pytest.mark.parametrize("pole", [False, True], ids=["off-pole", "pole"])
def test_y_either_side_of_a_picometre_from_the_antipode(planner, pole):
    # over CP^1, y at 1e-13 and at 2e-12 from -x: two pairs of piece 1 (x off
    # the poles) or of piece 3 (x a pole), 1.9e-12 apart
    z = np.array([[0.6, 0.8j]])
    c, s = (np.array([0.0j]), np.array([1.0])) if pole else (np.array([0.6 + 0.0j]), np.array([0.8]))
    ends = [_off_antipode(np.random.default_rng(7), c, s, np.array([gap])) for gap in (1e-13, 2e-12)]
    a, b = (_planner_rows(z, c, s, *end) for end in ends)
    gap, pa, pb = _sup_gaps(a, b, planner)
    assert pa.tolist() == pb.tolist() == [3 if pole else 1]
    margin = 0.8 if pole else 0.6  # |z_1| or |w|
    assert gap[0] <= BOUND[2 if pole else 1] * _move(a, b)[0] / margin


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_plan_does_not_see_the_representative(n):
    # z -> lambda z leaves every point alone; the plans must not move either:
    # bit for bit off the poles, where no formula reads z, and to rounding on them
    rng = np.random.default_rng(n)
    rows = [_pairs(rng, n, kind, 200)[:5] for kind in (0, 1, 2)]
    z, cx, sx, cy, sy = (np.concatenate(part) for part in zip(*rows))
    lam = np.exp(1j * rng.uniform(-math.pi, math.pi, len(z)))[:, np.newaxis]
    a = _planner_rows(z, cx, sx, cy, sy)
    b = (lam * z, *a[1:])
    (pa, sa), (pb, sb) = _plan_stack(*a), _plan_stack(*b)
    assert pa.tolist() == pb.tolist()
    (wa, ta), (wb, tb) = sa.paths_at(TIMES), sb.paths_at(TIMES)
    off = pa < 2
    assert wa[off].tobytes() == wb[off].tobytes() and ta[off].tobytes() == tb[off].tobytes()
    assert np.hypot(np.linalg.norm(wa - wb, axis=-1), ta - tb).max() <= 1e-15
