"""Tests for the fiberwise planners over complex projective space."""

from __future__ import annotations

import math

import numpy as np
import pytest

from paramtc.planner import (
    TOL_ANTI,
    TOL_ANTI_MIN,
    TOL_CELL,
    BundlePoint,
    DegenerateRepresentativeError,
    NotSameFiberError,
    PlannedPath,
    ProjectiveRep,
    _norms,
    _plan_stack,
    cell_index,
    cell_section,
    classify_pair,
    fiber_inner,
    plan,
    plan_hopf,
)
from paramtc.verify import boundary_pairs, check_path
from references import masked_fiber_at, random_pair

RNG = np.random.default_rng(20240517)


def random_rep(n: int) -> ProjectiveRep:
    v = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
    return ProjectiveRep.normalized(v)


def random_point(z: ProjectiveRep) -> BundlePoint:
    v = RNG.standard_normal(3)
    v /= np.linalg.norm(v)
    return BundlePoint.from_fiber(z, complex(v[0], v[1]), float(v[2]))


def distance(path: PlannedPath, t: float, point: BundlePoint) -> float:
    """Euclidean distance of the fiber coordinates of the path at t from those of ``point``."""
    w, s = path.fiber_at(t)
    return math.hypot(float(np.linalg.norm(w - point.w)), s - point.s)


class TestTypes:
    def test_rep_must_be_unit(self):
        with pytest.raises(ValueError):
            ProjectiveRep([1.0, 1.0])

    def test_point_w_must_lie_in_line(self):
        z = ProjectiveRep([1.0, 0.0])
        with pytest.raises(ValueError):
            BundlePoint(z, [0.0, 1.0], 0.0)

    def test_point_must_be_unit(self):
        z = ProjectiveRep([1.0, 0.0])
        with pytest.raises(ValueError):
            BundlePoint(z, [0.5, 0.0], 0.5)

    def test_section_point(self):
        p = BundlePoint.section_point(random_rep(2))
        assert p.w_norm == 0.0 and p.s == 1.0
        assert BundlePoint.section_point(p.z, -0.5).s == -1.0 and not p.w.flags.writeable
        for not_a_rep in (p, [1.0, 0.0]):
            with pytest.raises(TypeError, match="needs a ProjectiveRep"):
                BundlePoint.section_point(not_a_rep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rep_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProjectiveRep([1.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_w_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BundlePoint(ProjectiveRep([1.0, 0.0]), [complex(bad, 0.0), 0.0], 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_s_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BundlePoint(ProjectiveRep([1.0, 0.0]), [0.0, 0.0], bad)


class TestFiberInner:
    def test_self_inner_is_one(self):
        x = random_point(random_rep(2))
        assert fiber_inner(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_poles(self):
        z = random_rep(2)
        sigma = BundlePoint.section_point(z)
        assert fiber_inner(sigma, sigma.antipode()) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_sum_metric(self):
        z = random_rep(1)
        tilted = BundlePoint.from_fiber(z, 1 / math.sqrt(2), 1 / math.sqrt(2))
        assert fiber_inner(tilted, BundlePoint.section_point(z)) == pytest.approx(
            1 / math.sqrt(2)
        )

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiberError):
            fiber_inner(random_point(random_rep(2)), random_point(random_rep(2)))


class TestCells:
    def test_point_cell(self):
        assert cell_index(ProjectiveRep([1.0, 0.0, 0.0])) == 0

    def test_top_cell(self):
        assert cell_index(ProjectiveRep([0.0, 0.0, 1.0])) == 2

    def test_last_nonzero_wins(self):
        z = ProjectiveRep(np.array([1.0, 1j, 0.0]) / math.sqrt(2))
        assert cell_index(z) == 1

    def test_degenerate_with_coarse_tolerance(self):
        z = ProjectiveRep(np.array([1.0, 1.0]) / math.sqrt(2))
        with pytest.raises(DegenerateRepresentativeError):
            cell_index(z, tol_cell=0.99)

    @pytest.mark.parametrize("tol_cell", [-1.0, float("nan"), 1.0])
    def test_tolerance_outside_unit_interval_refused(self, tol_cell):
        # -1 once put [1, 0] in cell 1 and sectioned it to NaNs; NaN raised DegenerateRepresentativeError
        z = ProjectiveRep([1.0, 0.0])
        with pytest.raises(ValueError, match="tol_cell must lie in"):
            cell_index(z, tol_cell=tol_cell)
        for j in (0, 1):
            with pytest.raises(ValueError, match="tol_cell must lie in"):
                cell_section(z, j, tol_cell=tol_cell)

    def test_section_normalises_phase(self):
        out = cell_section(ProjectiveRep([0.0, 1j]), 1)
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_section_fixed_point(self):
        out = cell_section(ProjectiveRep([1.0, 0.0]), 0)
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

    def test_section_makes_coordinate_real_positive(self):
        for _ in range(20):
            z = random_rep(3)
            j = cell_index(z)
            out = cell_section(z, j)
            assert out[j].imag == pytest.approx(0.0, abs=1e-12)
            assert out[j].real > 0

    def test_section_is_gauge_invariant(self):
        z = random_rep(2)
        lam = complex(math.cos(1.1), math.sin(1.1))
        j = cell_index(z)
        a = cell_section(z, j)
        b = cell_section(ProjectiveRep(lam * z.z), j)
        assert np.allclose(a, b, atol=1e-12)

    def test_section_rejects_vanishing_coordinate(self):
        with pytest.raises(DegenerateRepresentativeError):
            cell_section(ProjectiveRep([1.0, 0.0]), 1)


class TestClassify:
    def test_generic_pair_is_piece_zero(self):
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 1.0, 0.0)
        y = BundlePoint.section_point(z)
        assert classify_pair(x, y) == 0

    def test_tilted_antipodal_pair(self):
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 0.5, math.sqrt(0.75))
        assert classify_pair(x, x.antipode()) == 1

    def test_pole_pair_over_point_cell(self):
        z = ProjectiveRep([1.0, 0.0, 0.0])
        sigma = BundlePoint.section_point(z)
        assert classify_pair(sigma, sigma.antipode()) == 2
        # a negative tol_cell would put the pole on the top cell, where the section divides by 0
        for tol in (-1.0, -1e-300, 1.0, math.inf, math.nan):
            for refuse in (classify_pair, plan):
                with pytest.raises(ValueError, match="tol_cell must lie in"):
                    refuse(sigma, sigma.antipode(), tol_cell=tol)

    def test_both_pole_signs_share_a_piece(self):
        z = random_rep(2)
        j = cell_index(z)
        up = BundlePoint.section_point(z, +1)
        down = BundlePoint.section_point(z, -1)
        assert classify_pair(up, up.antipode()) == 2 + j
        assert classify_pair(down, down.antipode()) == 2 + j


class TestPlanHopf:
    def test_equal_inputs_constant(self):
        z = random_rep(2).z
        path = plan_hopf(z, z)
        assert path.piece == 0
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(path.fiber_at(t)[0], z, atol=1e-12)
        assert plan_hopf(z, z, tol_anti=0.0).piece == 0
        # at tol_anti >= 1 the pair would be planned as antipodal, ending at -z
        for tol in (1.0, 5.0, -1e-3):
            with pytest.raises(ValueError, match=r"tol_anti must lie in \[0, 1\)"):
                plan_hopf(z, z, tol_anti=tol)

    def test_quarter_turn_formula(self):
        z = random_rep(1).z
        z2 = complex(0, 1) * z
        path = plan_hopf(z, z2)
        assert path.piece == 0
        for t in (0.0, 0.25, 0.5, 1.0):
            expected = np.exp(1j * math.pi * t / 2) * z
            assert np.allclose(path.fiber_at(t)[0], expected, atol=1e-12)

    def test_antipodal_rotation(self):
        z = random_rep(2).z
        path = plan_hopf(z, -z)
        assert path.piece == 1
        assert np.allclose(path.fiber_at(0.5)[0], 1j * z, atol=1e-12)
        assert np.allclose(path.fiber_at(1.0)[0], -z, atol=1e-12)

    def test_non_proportional_rejected(self):
        with pytest.raises(NotSameFiberError):
            plan_hopf([1.0, 0.0], [0.0, 1.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"^z and z2 must have the same length, got 1 and 2$"):
            plan_hopf([1.0], [1j, 0.0])
        with pytest.raises(ValueError, match=r"^z and z2 must have the same length, got 2 and 1$"):
            plan_hopf([1.0, 0.0], [1j])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            plan_hopf([1.0, 0.0], [complex(0.0, bad), 0.0])
        with pytest.raises(ValueError, match="finite"):
            plan_hopf([complex(bad, 0.0), 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="tol_anti must lie in"):
            plan_hopf([1.0, 0.0], [1.0, 0.0], tol_anti=bad)


class TestPlan:
    def test_equal_endpoints_constant_piece_zero(self):
        z = random_rep(2)
        x = random_point(z)
        path = plan(x, x)
        assert path.piece == 0
        for t in (0.0, 0.37, 1.0):
            assert distance(path, t, x) < 1e-12

    def test_piece_one_passes_through_equator(self):
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 0.6, 0.8)
        path = plan(x, x.antipode())
        assert path.piece == 1
        assert path.kinds == ("interpolation", "phase-rotation", "interpolation")
        for t in (1 / 3, 0.5, 2 / 3):
            _, s = path.fiber_at(t)
            assert s == pytest.approx(0.0, abs=1e-12)
        # halfway the equatorial phase is i
        w_half, _ = path.fiber_at(0.5)
        assert np.allclose(w_half, 1j * x.w / x.w_norm, atol=1e-12)
        assert distance(path, 0.0, x) < 1e-12
        assert distance(path, 1.0, x.antipode()) < 1e-12

    def test_piece_one_alpha_checkpoint(self):
        # the first third flattens along the great circle from (0.6, 0.8) to
        # (1, 0): t = 1/6 is its midpoint (2, 1)/sqrt(5)
        z = random_rep(1)
        x = BundlePoint.from_fiber(z, 0.6, 0.8)
        path = plan(x, x.antipode())
        w, s = path.fiber_at(1 / 6)
        assert s == pytest.approx(1 / math.sqrt(5), abs=1e-12)
        assert np.allclose(w, 2 / math.sqrt(5) * x.w / x.w_norm, atol=1e-12)

    def test_piece_zero_closed_form(self):
        # the arc is the slerp sin((1-t)θ)/sinθ x + sin(tθ)/sinθ y
        checked = 0
        while checked < 40:
            z = random_rep(2)
            x, y = random_point(z), random_point(z)
            theta = math.acos(fiber_inner(x, y))
            if not 0.3 <= theta <= 2.8:
                continue
            checked += 1
            path = plan(x, y)
            assert path.piece == 0
            for t in np.linspace(0.0, 1.0, 11):
                a = math.sin((1 - t) * theta) / math.sin(theta)
                b = math.sin(t * theta) / math.sin(theta)
                w, s = path.fiber_at(t)
                assert np.allclose(w, a * x.w + b * y.w, rtol=0.0, atol=1e-12)
                assert s == pytest.approx(a * x.s + b * y.s, rel=0.0, abs=1e-12)

    def test_pole_pair_polar_formula(self):
        # a quarter turn to the cell direction, then the geodesic on to -x: one
        # half turn at constant speed
        z = ProjectiveRep([1.0, 0.0, 0.0])
        sigma = BundlePoint.section_point(z)
        path = plan(sigma, sigma.antipode())
        assert path.piece == 2 and path.kinds == ("polar-rotation", "interpolation")
        phi0 = cell_section(z, 0)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            w, s = path.fiber_at(t)
            assert np.allclose(w, math.sin(math.pi * t) * phi0, atol=1e-12)
            assert s == pytest.approx(math.cos(math.pi * t), abs=1e-12)

    def test_snap_segment_restores_endpoint(self):
        # y close to but not exactly -x is still routed to piece 1, whose last
        # arc runs to y itself
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 0.6, 0.8)
        eps = 4e-5
        y = BundlePoint.from_fiber(z, -0.6 * np.exp(1j * eps), -0.8)
        assert fiber_inner(x, y) < -1.0 + 1e-8
        path = plan(x, y)
        assert path.piece == 1
        assert len(path.kinds) == 3
        assert distance(path, 1.0, y) < 1e-12

    def test_gauge_invariance(self):
        z = random_rep(2)
        x, y = random_point(z), random_point(z)
        lam = complex(math.cos(0.77), math.sin(0.77))
        z2 = ProjectiveRep(lam * z.z)
        x2 = BundlePoint(z2, x.w, x.s)
        y2 = BundlePoint(z2, y.w, y.s)
        a, b = plan(x, y), plan(x2, y2)
        t = np.linspace(0.0, 1.0, 33)
        (wa, sa), (wb, sb) = a.fiber_at(t), b.fiber_at(t)
        assert np.hypot(np.linalg.norm(wa - wb, axis=-1), sa - sb).max() < 1e-9

    def test_gauge_invariance_on_pole_piece(self):
        z = random_rep(2)
        lam = complex(math.cos(2.1), math.sin(2.1))
        sigma = BundlePoint.section_point(z)
        sigma2 = BundlePoint.section_point(ProjectiveRep(lam * z.z))
        a = plan(sigma, sigma.antipode())
        b = plan(sigma2, sigma2.antipode())
        t = np.linspace(0.0, 1.0, 17)
        (wa, sa), (wb, sb) = a.fiber_at(t), b.fiber_at(t)
        assert np.hypot(np.linalg.norm(wa - wb, axis=-1), sa - sb).max() < 1e-9

    def test_random_pairs_keep_invariants(self):
        for n in (1, 2, 3):
            for _ in range(60):
                z = random_rep(n)
                x, y = random_point(z), random_point(z)
                path = plan(x, y)
                assert distance(path, 0.0, x) < 1e-9
                assert distance(path, 1.0, y) < 1e-9
                for point in path.sample(13):
                    norm = math.hypot(point.w_norm, point.s)
                    assert abs(norm - 1.0) < 1e-9
                    assert point.z.same_line(x.z)

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiberError):
            plan(random_point(random_rep(2)), random_point(random_rep(2)))
        x = BundlePoint.section_point(ProjectiveRep([1.0, 0.0]))
        for call, name in (
            (lambda: plan("a", "b"), "str"),
            (lambda: plan(x, None), "NoneType"),
            (lambda: classify_pair(x, (x.z, 0.0)), "tuple"),
            (lambda: fiber_inner(x.w, x), "ndarray"),
        ):
            with pytest.raises(TypeError, match=f"^expected a BundlePoint, got {name}$"):
                call()


def _cell_rep(n: int, j: int) -> ProjectiveRep:
    """A representative inside the open 2j-cell of CP^n."""
    v = np.zeros(n + 1, dtype=complex)
    v[: j + 1] = np.exp(1j * np.arange(1, j + 2))
    return ProjectiveRep.normalized(v)


# |w| log-spaced over piece 1, then just either side of the pole tolerance
PIECE_ONE_RADII = [*np.geomspace(2 * TOL_ANTI, 1.0, 40), 0.99 * TOL_ANTI, 1.01 * TOL_ANTI]


@pytest.mark.parametrize("n, j", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2), (3, 3)])
def test_off_pole_antipodes_keep_the_speed_bound(n, j):
    z = _cell_rep(n, j)
    for r in PIECE_ONE_RADII:
        height = math.sqrt(max(0.0, 1.0 - r * r))
        for sign in (1.0, -1.0):
            for phase in (0.0, 2.0, -2.5):
                x = BundlePoint.from_fiber(z, r * complex(math.cos(phase), math.sin(phase)), sign * height)
                targets = [x.antipode()]
                if phase == 0.0:
                    # -x turned 3e-5 rad towards (i z, 0), a unit vector orthogonal
                    # to x: still antipodal within TOL_ANTI, and the last arc ends on it
                    eps = 3e-5
                    w = -math.cos(eps) * x.w + 1j * math.sin(eps) * z.z
                    targets.append(BundlePoint(z, w, -math.cos(eps) * x.s))
                for y in targets:
                    path = plan(x, y)
                    assert path.piece == (1 if r > TOL_ANTI else 2 + j)
                    outcome = check_path(path, samples=21)
                    assert outcome.passed, (r, sign, phase, outcome.failures[:3])


def test_tol_anti_floor():
    """At TOL_ANTI_MIN exact and near antipodes plan cleanly; below it, and from 1 on, plan refuses."""
    for n in (1, 3, 6):
        z = random_rep(n)
        for _ in range(40):
            p = RNG.standard_normal(3)
            p /= np.linalg.norm(p)
            v = RNG.standard_normal(3)
            v -= (v @ p) * p
            v /= np.linalg.norm(v)
            x = BundlePoint.from_fiber(z, complex(p[0], p[1]), p[2])
            targets = [x.antipode()]
            # -p turned towards v by angles either side of the piece-0 threshold,
            # where <x, y> = -cos(angle) crosses -1 + TOL_ANTI_MIN
            for factor in (0.9, 0.999, 1.001, 1.01, 1.1, 2.0):
                angle = factor * math.sqrt(2 * TOL_ANTI_MIN)
                q = -math.cos(angle) * p + math.sin(angle) * v
                targets.append(BundlePoint.from_fiber(z, complex(q[0], q[1]), q[2]))
            for y in targets:
                path = plan(x, y, tol_anti=TOL_ANTI_MIN)
                outcome = check_path(path, samples=21)
                assert outcome.passed, (n, outcome.failures[:3])
                assert len(path.sample(9)) == 9  # validated points, as plan prints them
    for tol in (0.0, 1e-13, TOL_ANTI_MIN / 2, -1.0, math.nan, 1.0, 5.0, math.inf):
        with pytest.raises(ValueError, match="tol_anti must lie in"):
            plan(x, x.antipode(), tol_anti=tol)


class TestPlannedPath:
    def test_array_times_match_float_times(self):
        z = random_rep(2)
        x = random_point(z)
        sigma = BundlePoint.section_point(z)
        near = BundlePoint.from_fiber(z, -0.6 * np.exp(4e-5j), -0.8)
        tilted = BundlePoint.from_fiber(z, 0.6, 0.8)
        paths = [plan(x, random_point(z)), plan(x, x.antipode()), plan(sigma, sigma.antipode())]
        paths.append(plan(tilted, near))
        assert [len(p.kinds) for p in paths] == [1, 3, 2, 3]
        for path in paths:
            t = RNG.permutation(np.concatenate([np.linspace(0.0, 1.0, 29), path.breakpoints]))
            w, s = path.fiber_at(t)
            assert w.shape == (t.size, 3) and s.shape == (t.size,)
            for i, ti in enumerate(t.tolist()):
                wi, si = path.fiber_at(ti)
                assert np.array_equal(w[i], wi) and s[i] == si
        with pytest.raises(ValueError):
            paths[0].fiber_at(np.array([0.5, 1.5]))

    @staticmethod
    def _near_threshold_pairs(n):
        """Pairs either side of the classification tolerances over CP^n.

        Antipodes with |w| at 0.5x and 2x TOL_ANTI, and pole antipodes over
        a base point whose coordinate after the j-th has magnitude 0.5x or 2x
        TOL_CELL (none after the last); each exact and with y nudged 1e-9 off -x.
        """
        pairs = []
        for factor in (0.5, 2.0):
            z = random_rep(n)
            r, phase = factor * TOL_ANTI, np.exp(0.7j)
            x = BundlePoint.from_fiber(z, r * phase, math.sqrt(1.0 - r * r))
            nudged = BundlePoint.from_fiber(z, -(r + 1e-9) * phase, -math.sqrt(1.0 - (r + 1e-9) ** 2))
            pairs += [(x, x.antipode()), (x, nudged)]
            for j in range(n + 1):
                head = RNG.standard_normal(j + 1) + 1j * RNG.standard_normal(j + 1)
                m = factor * TOL_CELL if j < n else 0.0
                v = np.zeros(n + 1, dtype=complex)
                v[: j + 1] = head / np.linalg.norm(head) * math.sqrt(1.0 - m * m)
                v[j + 1 :] = m * np.exp(2.1j)
                pole = BundlePoint.section_point(ProjectiveRep.normalized(v), -1.0)
                near = BundlePoint.from_fiber(pole.z, 1e-9, math.sqrt(1.0 - 1e-18))
                pairs += [(pole, pole.antipode()), (pole, near)]
        return pairs

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_stacked_evaluation_matches_the_masked_dispatch(self, n):
        rng = np.random.default_rng(n)
        pairs = [random_pair(rng, n) for _ in range(30)] + self._near_threshold_pairs(n)
        pairs += [(x, y) for x, y, _ in boundary_pairs(n)] if n >= 1 else []
        paths = [plan(x, y) for x, y in pairs]
        assert {len(path.kinds) for path in paths} == {1, 2, 3}
        breaks = [0.25, 0.5, 0.75, 1 / 3, 2 / 3]
        t = np.concatenate([np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, 40), breaks])
        stacked_w, stacked_s = _plan_stack(*_rows(pairs))[1].paths_at(t)
        for k, path in enumerate(paths):
            w, s = masked_fiber_at(path, t)
            # bit for bit, signed zeros included
            for got_w, got_s in (path.fiber_at(t), (stacked_w[k], stacked_s[k])):
                assert got_w.tobytes() == w.tobytes() and got_s.tobytes() == s.tobytes()
            for ti in t[::7].tolist():
                wi, si = masked_fiber_at(path, ti)
                got_w, got_s = path.fiber_at(ti)
                assert got_w.tobytes() == wi.tobytes()
                assert np.float64(got_s).tobytes() == np.float64(si).tobytes()

    def test_sample_raises_as_the_constructor_on_a_broken_path(self):
        z = random_rep(2)
        x = random_point(z)
        for corrupt in (
            lambda arcs: (1.01 * arcs.wp, 1.01 * arcs.sp, 1.01 * arcs.wd, 1.01 * arcs.sd, arcs.angle),  # off the sphere
            lambda arcs: (arcs.wp + 1e-3 * np.array([0, 1, 1j]), arcs.sp, arcs.wd, arcs.sd, arcs.angle),  # off the line
            lambda arcs: (arcs.wp, arcs.sp, arcs.wd, arcs.sd, np.full(1, math.nan)),  # not finite
        ):
            path = plan(x, random_point(z))
            stack = path.stack
            stack.wp, stack.sp, stack.wd, stack.sd, stack.angle = corrupt(stack)
            w, s = path.fiber_at(np.arange(9) / 8)
            with pytest.raises(ValueError) as expected:
                [BundlePoint(z, wi, si) for wi, si in zip(w, s)]
            with pytest.raises(ValueError) as got:
                path.sample(9)
            assert str(got.value) == str(expected.value)

    def test_sample_points_are_the_checked_constructor_points(self):
        z = random_rep(3)
        x = random_point(z)
        path = plan(x, x.antipode())
        w, s = path.fiber_at(np.arange(9) / 8)
        for point, wi, si in zip(path.sample(9), w, s):
            expected = BundlePoint(z, wi, si)
            assert point.z is z and point.w.tobytes() == expected.w.tobytes() and point.s == expected.s
            assert type(point.s) is float and not point.w.flags.writeable

    def test_sample_counts(self):
        z = random_rep(1)
        path = plan(random_point(z), random_point(z))
        assert len(path.sample(7)) == 7
        with pytest.raises(ValueError):
            path.sample(1)

    @staticmethod
    def _paths():
        z = random_rep(4)
        x = random_point(z)
        sigma = BundlePoint.section_point(z)
        hopf = plan_hopf(z.z, np.exp(0.3j) * z.z)
        return [plan(x, random_point(z)), plan(x, x.antipode()), plan(sigma, sigma.antipode()), hopf]

    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_sliced_samples_are_one_evaluation(self, size, monkeypatch):
        fiber_at = PlannedPath.fiber_at
        calls = []

        def counting(path, t):
            calls.append(np.array(t))
            return fiber_at(path, t)

        monkeypatch.setattr(PlannedPath, "fiber_at", counting)
        for path in self._paths():
            for count in (2, size, size + 1, 3 * size + 5):
                if count < 2:
                    continue
                calls.clear()
                t, w, s = path._checked_samples(count, size)
                sliced = list(calls)
                expected = path._checked_samples(count)
                for got, want in zip((t, w, s), expected):  # bit for bit, signed zeros included
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                # in order, each slice at most size long, one call when the grid fits in one
                assert np.array_equal(np.concatenate(sliced), t) and max(map(len, sliced)) <= size
                assert len(sliced) == -(-count // size)

    def test_sliced_samples_raise_for_the_first_bad_sample(self, monkeypatch):
        fiber_at = PlannedPath.fiber_at

        def broken(path, t):
            w, s = fiber_at(path, t)
            w = np.where((t > 0.5)[:, np.newaxis], 2 * w, w)  # off the sphere, in a later slice
            return w, np.where(t > 0.75, math.nan, s)

        path = self._paths()[1]
        monkeypatch.setattr(PlannedPath, "fiber_at", broken)
        with pytest.raises(ValueError) as whole:
            path._checked_samples(100)
        with pytest.raises(ValueError) as sliced:
            path._checked_samples(100, 16)
        assert "is not 1" in str(whole.value) and str(sliced.value) == str(whole.value)


class TestNorms:
    def test_each_norm_is_that_of_its_row(self):
        # np.linalg.norm(row) bit for bit; np.linalg.norm(a, axis=-1) sums in another order
        rng = np.random.default_rng(11)
        differs = 0
        for length in range(1, 71):
            scale = 10.0 ** rng.integers(-150, 150, size=(300, 1))
            a = scale * (rng.standard_normal((300, length)) + 1j * rng.standard_normal((300, length)))
            for rows in (a, a.real.copy()):
                got = _norms(rows)
                assert got.tobytes() == np.array([np.linalg.norm(row) for row in rows]).tobytes()
            differs += np.count_nonzero(_norms(a) != np.linalg.norm(a, axis=-1))
        assert differs > 0


def _rows(pairs):
    """The pairs as the batched planner's arrays ``(z, xw, xs, yw, ys)``."""
    return (
        np.stack([x.z.z for x, _ in pairs]),
        np.stack([x.w for x, _ in pairs]),
        np.array([x.s for x, _ in pairs]),
        np.stack([y.w for _, y in pairs]),
        np.array([y.s for _, y in pairs]),
    )


def _off_antipodes(n):
    """Pairs with y at 0, 1e-13, 2e-12 and 1e-9 from -x, and either side of where piece 0 begins."""
    pairs = []
    for _ in range(6):
        z = random_rep(n)
        p = RNG.standard_normal(3)
        p /= np.linalg.norm(p)
        v = RNG.standard_normal(3)
        v -= (v @ p) * p
        v /= np.linalg.norm(v)
        x = BundlePoint.from_fiber(z, complex(p[0], p[1]), p[2])
        pairs.append((x, x.antipode()))
        for gap in (1e-13, 2e-12, 1e-9, 0.99 * math.sqrt(2 * TOL_ANTI), 1.01 * math.sqrt(2 * TOL_ANTI)):
            q = -math.cos(gap) * p + math.sin(gap) * v
            pairs.append((x, BundlePoint.from_fiber(z, complex(q[0], q[1]), q[2])))
    return pairs


class TestPlanStack:
    """A mixed batch against one-row batches through ``plan``: the same arcs bit for bit.

    A mixed batch gathers each template's pairs, and a one-row batch takes
    its row whole, so this compares the two ways through the one planner.
    """

    @staticmethod
    def _assert_plans_match(pairs, tol_anti=TOL_ANTI, tol_cell=TOL_CELL):
        piece, stack = _plan_stack(*_rows(pairs), tol_anti, tol_cell)
        paths = [plan(x, y, tol_anti, tol_cell) for x, y in pairs]
        assert piece.tolist() == [path.piece for path in paths]
        assert stack.count.tolist() == [len(path.kinds) for path in paths]
        for k, path in enumerate(paths):
            rows = slice(stack.first[k], stack.first[k] + stack.count[k])
            for name in ("wp", "sp", "wd", "sd", "angle"):
                assert getattr(stack, name)[rows].tobytes() == getattr(path.stack, name).tobytes(), (k, name)
        t = np.concatenate([np.linspace(0.0, 1.0, 41), [0.25, 0.5, 0.75, 1 / 3, 2 / 3]])
        got_w, got_s = stack.paths_at(t)
        for k, path in enumerate(paths):
            w, s = path.fiber_at(t)
            assert got_w[k].tobytes() == w.tobytes() and got_s[k].tobytes() == s.tobytes()
        return piece, stack

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_random_and_boundary_pairs(self, n):
        rng = np.random.default_rng(100 + n)
        pairs = [random_pair(rng, n) for _ in range(200)]
        pairs += [(x, y) for x, y, _ in boundary_pairs(n)]
        piece, _ = self._assert_plans_match(pairs)
        assert set(piece.tolist()) == set(range(n + 3))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_near_the_thresholds(self, n):
        pairs = _off_antipodes(n) + TestPlannedPath._near_threshold_pairs(n)
        _, stack = self._assert_plans_match(pairs)
        assert set(stack.count.tolist()) == {1, 2, 3}  # one count per template, whether or not y = -x

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("tol_anti, tol_cell", [(TOL_ANTI_MIN, TOL_CELL), (0.5, 0.3)])
    def test_user_tolerances(self, n, tol_anti, tol_cell):
        rng = np.random.default_rng(200 + n)
        pairs = [random_pair(rng, n) for _ in range(200)] + _off_antipodes(n)
        pairs += TestPlannedPath._near_threshold_pairs(n) + [(x, y) for x, y, _ in boundary_pairs(n)]
        piece, _ = self._assert_plans_match(pairs, tol_anti, tol_cell)
        assert set(piece.tolist()) == set(range(n + 3))

    def test_empty_batch(self):
        z = np.zeros((0, 3), dtype=complex)
        piece, stack = _plan_stack(z, z, np.zeros(0), z, np.zeros(0))
        assert piece.size == 0 and stack.count.size == 0 and stack.angle.size == 0

