"""Tests for the fiberwise planners over complex projective space."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paramtc.planner import (
    TOL_ANTI,
    TOL_ANTI_MIN,
    BundlePoint,
    DegenerateRepresentativeError,
    NotSameFiberError,
    ProjectiveRep,
    cell_index,
    cell_section,
    classify_pair,
    fiber_distance,
    fiber_inner,
    plan,
    plan_hopf,
)
from paramtc.verify import check_path

RNG = np.random.default_rng(20240517)


def random_rep(n: int) -> ProjectiveRep:
    v = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
    return ProjectiveRep.normalized(v)


def random_point(z: ProjectiveRep) -> BundlePoint:
    v = RNG.standard_normal(3)
    v /= np.linalg.norm(v)
    return BundlePoint.from_fiber(z, complex(v[0], v[1]), float(v[2]))


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
            assert np.allclose(path.at(t).w, z, atol=1e-12)

    def test_quarter_turn_formula(self):
        z = random_rep(1).z
        z2 = complex(0, 1) * z
        path = plan_hopf(z, z2)
        assert path.piece == 0
        for t in (0.0, 0.25, 0.5, 1.0):
            expected = np.exp(1j * math.pi * t / 2) * z
            assert np.allclose(path.at(t).w, expected, atol=1e-12)

    def test_antipodal_rotation(self):
        z = random_rep(2).z
        path = plan_hopf(z, -z)
        assert path.piece == 1
        assert np.allclose(path.at(0.5).w, 1j * z, atol=1e-12)
        assert np.allclose(path.at(1.0).w, -z, atol=1e-12)

    def test_non_proportional_rejected(self):
        with pytest.raises(NotSameFiberError):
            plan_hopf([1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            plan_hopf([1.0, 0.0], [complex(0.0, bad), 0.0])
        with pytest.raises(ValueError, match="finite"):
            plan_hopf([complex(bad, 0.0), 0.0], [1.0, 0.0])


class TestPlan:
    def test_equal_endpoints_constant_piece_zero(self):
        z = random_rep(2)
        x = random_point(z)
        path = plan(x, x)
        assert path.piece == 0
        for t in (0.0, 0.37, 1.0):
            assert fiber_distance(path.at(t), x) < 1e-12

    def test_piece_one_passes_through_equator(self):
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 0.6, 0.8)
        path = plan(x, x.antipode())
        assert path.piece == 1
        assert len(path.segments) == 3
        for t in (1 / 3, 0.5, 2 / 3):
            _, s = path.fiber_at(t)
            assert s == pytest.approx(0.0, abs=1e-12)
        # halfway the equatorial phase is i
        w_half, _ = path.fiber_at(0.5)
        assert np.allclose(w_half, 1j * x.w / x.w_norm, atol=1e-12)
        assert fiber_distance(path.at(0.0), x) < 1e-12
        assert fiber_distance(path.at(1.0), x.antipode()) < 1e-12

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
        z = ProjectiveRep([1.0, 0.0, 0.0])
        sigma = BundlePoint.section_point(z)
        path = plan(sigma, sigma.antipode())
        assert path.piece == 2
        phi0 = cell_section(z, 0)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            w, s = path.fiber_at(t)
            assert np.allclose(w, math.sin(math.pi * t) * phi0, atol=1e-12)
            assert s == pytest.approx(math.cos(math.pi * t), abs=1e-12)

    def test_snap_segment_restores_endpoint(self):
        # y close to but not exactly -x is still routed to piece 1
        z = random_rep(2)
        x = BundlePoint.from_fiber(z, 0.6, 0.8)
        eps = 4e-5
        y = BundlePoint.from_fiber(z, -0.6 * np.exp(1j * eps), -0.8)
        assert fiber_inner(x, y) < -1.0 + 1e-8
        path = plan(x, y)
        assert path.piece == 1
        assert len(path.segments) == 4
        assert fiber_distance(path.at(1.0), y) < 1e-12

    def test_gauge_invariance(self):
        z = random_rep(2)
        x, y = random_point(z), random_point(z)
        lam = complex(math.cos(0.77), math.sin(0.77))
        z2 = ProjectiveRep(lam * z.z)
        x2 = BundlePoint(z2, x.w, x.s)
        y2 = BundlePoint(z2, y.w, y.s)
        a, b = plan(x, y), plan(x2, y2)
        for t in np.linspace(0.0, 1.0, 33):
            assert fiber_distance(a.at(t), b.at(t)) < 1e-9

    def test_gauge_invariance_on_pole_piece(self):
        z = random_rep(2)
        lam = complex(math.cos(2.1), math.sin(2.1))
        sigma = BundlePoint.section_point(z)
        sigma2 = BundlePoint.section_point(ProjectiveRep(lam * z.z))
        a = plan(sigma, sigma.antipode())
        b = plan(sigma2, sigma2.antipode())
        for t in np.linspace(0.0, 1.0, 17):
            assert fiber_distance(a.at(t), b.at(t)) < 1e-9

    def test_random_pairs_keep_invariants(self):
        for n in (1, 2, 3):
            for _ in range(60):
                z = random_rep(n)
                x, y = random_point(z), random_point(z)
                path = plan(x, y)
                assert fiber_distance(path.at(0.0), x) < 1e-9
                assert fiber_distance(path.at(1.0), y) < 1e-9
                for point in path.sample(13):
                    norm = math.hypot(point.w_norm, point.s)
                    assert abs(norm - 1.0) < 1e-9
                    assert point.z.same_line(x.z)

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiberError):
            plan(random_point(random_rep(2)), random_point(random_rep(2)))


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
                    # to x: still antipodal within TOL_ANTI, so a snap segment ends the path
                    eps = 3e-5
                    w = -math.cos(eps) * x.w + 1j * math.sin(eps) * z.z
                    targets.append(BundlePoint(z, w, -math.cos(eps) * x.s))
                for y in targets:
                    path = plan(x, y)
                    assert path.piece == (1 if r > TOL_ANTI else 2 + j)
                    outcome = check_path(path, samples=21)
                    assert outcome.passed, (r, sign, phase, outcome.failures[:3])


def test_tol_anti_floor():
    """At TOL_ANTI_MIN exact and near antipodes plan cleanly; below it plan refuses."""
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
    for tol in (0.0, 1e-13, TOL_ANTI_MIN / 2, -1.0, math.nan):
        with pytest.raises(ValueError):
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
        assert [len(p.segments) for p in paths] == [1, 3, 1, 4]
        for path in paths:
            t = RNG.permutation(np.concatenate([np.linspace(0.0, 1.0, 29), path.breakpoints]))
            w, s = path.fiber_at(t)
            assert w.shape == (t.size, 3) and s.shape == (t.size,)
            for i, ti in enumerate(t.tolist()):
                wi, si = path.fiber_at(ti)
                assert np.array_equal(w[i], wi) and s[i] == si
        with pytest.raises(ValueError):
            paths[0].fiber_at(np.array([0.5, 1.5]))

    def test_sample_counts(self):
        z = random_rep(1)
        path = plan(random_point(z), random_point(z))
        assert len(path.sample(7)) == 7
        with pytest.raises(ValueError):
            path.sample(1)


def test_planner_demo_script_runs_clean():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "planner_demo.py"), "--trials", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert "FAIL" not in result.stdout
    assert "paths(n=3)" in result.stdout
