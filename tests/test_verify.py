"""Tests for the rewrite oracle and the verification suites."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import paramtc.verify as verify_mod
from paramtc.planner import BundlePoint, PlannedPath, ProjectiveRep, plan
from paramtc.ring import lh_power
from paramtc.verify import (
    BASE_DRIFT_TOL,
    CHECK_CHUNK,
    DEFAULT_SEED,
    ENDPOINT_TOL,
    LIPSCHITZ_BOUND,
    LIPSCHITZ_STEP,
    NORM_DRIFT_TOL,
    VerificationOutcome,
    boundary_pairs,
    check_bounds_tables,
    check_lh_oracle,
    check_partition,
    check_path,
    check_paths_random,
    lh_rewrite_oracle,
    lh_to_dense,
    oracle_power,
    random_pair,
    _check_paths,
    _cpn_module,
)


def _expand_words(expression, n):
    """Reference oracle: expand every word as a string, then rewrite each one."""
    words = [(1, "")]
    for factor in expression:
        words = [(c * c2, w + w2) for c, w in words for c2, w2 in factor]
    a, b = [0] * (n + 1), [0] * (n + 1)
    for c, w in words:
        if set(w) - {"x", "U"}:
            raise ValueError(f"bad word {w!r}")
        xs, us = w.count("x"), w.count("U")
        if us == 0 and xs <= n:
            a[xs] += c
        elif us > 0 and xs + us - 1 <= n:  # U^k -> x^{k-1} U
            b[xs + us - 1] += c
    return a, b


POWER_FAMILIES = {"U-x": [(1, "U"), (-1, "x")], "-x+2U": [(-1, "x"), (2, "U")]}


class TestRewriteOracle:
    def test_u_squared(self):
        a, b = lh_rewrite_oracle([[(1, "U")], [(1, "U")]], n=4)
        assert a == [0] * 5
        assert b == [0, 1, 0, 0, 0]

    def test_kernel_generator_squared(self):
        # (U - x)^2 = x^2 - x U
        a, b = lh_rewrite_oracle(oracle_power([(1, "U"), (-1, "x")], 2), n=4)
        assert a == [0, 0, 1, 0, 0]
        assert b == [0, -1, 0, 0, 0]

    def test_truncation(self):
        n = 3
        a, b = lh_rewrite_oracle([[(1, "x" * (n + 1))]], n=n)
        assert a == [0] * (n + 1)
        assert b == [0] * (n + 1)

    def test_zeroth_power_is_one(self):
        a, b = lh_rewrite_oracle(oracle_power([(1, "U")], 0), n=2)
        assert a == [1, 0, 0]
        assert b == [0, 0, 0]

    def test_rejects_bad_letters(self):
        # also beside words already past degree n, whose products are dropped
        for expression in (
            [[(1, "y")]],
            [[(1, "x" * 9)], [(1, "y")]],
            [[(1, "y")], [(1, "x" * 9)]],
            [[(1, "U" * 5), (2, "xq")], [(1, "x")]],
            [[(0, "x" * 4)], [(1, "U"), (1, "y")]],
        ):
            with pytest.raises(ValueError):
                lh_rewrite_oracle(expression, n=2)

    def test_empty_factor_gives_zero_without_checking_words(self):
        zero = ([0, 0, 0], [0, 0, 0])
        assert lh_rewrite_oracle([[(1, "x")], []], n=2) == zero
        assert lh_rewrite_oracle([[(1, "y")], [], [(1, "U")]], n=2) == zero

    def test_matches_word_expansion_on_random_expressions(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(2000):
            n = rng.randint(1, 6)
            expression = [
                [
                    (rng.randint(-3, 3), "".join(rng.choice("xU") for _ in range(rng.randint(0, 3))))
                    for _ in range(rng.randint(0, 3))
                ]
                for _ in range(rng.randint(0, 6))
            ]
            assert lh_rewrite_oracle(expression, n) == _expand_words(expression, n), (expression, n)

    @pytest.mark.parametrize("name", sorted(POWER_FAMILIES))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_power_families_match_word_expansion(self, name, n):
        for k in range(2 * n + 4):
            expression = oracle_power(POWER_FAMILIES[name], k)
            assert lh_rewrite_oracle(expression, n) == _expand_words(expression, n), k

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lh_rewrite_oracle([[(1, "x")]], n=0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_module_powers(self, n):
        m = _cpn_module(n)
        x = m.ring.generator("x")
        x0 = m.u() - m.from_base(x)
        for k in range(1, n + 3):
            expected = lh_rewrite_oracle(oracle_power([(1, "U"), (-1, "x")], k), n)
            assert lh_to_dense(lh_power(x0, k), n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_height_found_by_oracle_expansion(self, n):
        # largest k whose expanded power is nonzero, versus the module height
        from paramtc.ring import lh_height

        m = _cpn_module(n)
        e = m.u() * 2 - m.from_base(m.ring.generator("x"))
        terms = [(-1, "x"), (2, "U")]
        zero = [0] * (n + 1)
        oracle_height = 0
        for k in range(1, 2 * n + 4):
            a, b = lh_rewrite_oracle(oracle_power(terms, k), n)
            if a != zero or b != zero:
                oracle_height = k
        assert oracle_height == lh_height(e)
        assert oracle_height == (n + 1 if n % 2 == 0 else n)

    def test_suite_runs_clean(self):
        out = check_lh_oracle(n_max=12)
        assert out.passed
        assert out.cases > 0


def _rate(a, b, step):
    (w0, s0), (w1, s1) = a, b
    return math.hypot(float(np.linalg.norm(w1 - w0)), s1 - s0) / step


def _scalar_check_path(path, samples):
    """Reference: the checker's per-point loops, one scalar ``fiber_at`` per point.

    Endpoints are measured on the fiber coordinates of the t = 0 and t = 1
    samples, so a path that leaves the sphere or the line is recorded, not raised.
    """
    out = VerificationOutcome("path")

    def measure(invariant, value):
        out.worst[invariant] = max(out.worst.get(invariant, value), value)
        return value

    out.cases += 2
    for t, point, digest in ((0.0, path.start, "t=0"), (1.0, path.end, "t=1")):
        w, s = path.fiber_at(t)
        d = measure("endpoint", math.hypot(float(np.linalg.norm(w - point.w)), s - point.s))
        if d > ENDPOINT_TOL:
            out.record(digest, "endpoint", d)

    z0 = path.z.z
    for i in range(samples):
        t = i / (samples - 1)
        w, s = path.fiber_at(t)
        out.cases += 1
        wn = float(np.linalg.norm(w))
        norm = math.hypot(wn, s)
        if measure("normalization", abs(norm - 1.0)) > NORM_DRIFT_TOL:
            out.record(f"t={t:.6f}", "normalization", abs(norm - 1.0))
        align = abs(complex(np.vdot(z0, w))) / wn if wn > 1e-6 else 1.0
        measure("base-line drift", 1.0 - align)
        if align < 1.0 - BASE_DRIFT_TOL:
            out.record(f"t={t:.6f}", "base-line drift", 1.0 - align)

    spacing = 1.0 / (samples - 1)
    for k, segment in enumerate(path.segments):
        grid = [segment.fiber_at(i * spacing) for i in range(samples)]
        for i in range(samples):
            u = i * spacing
            rates = []
            if i + 1 < samples:
                rates.append(_rate(grid[i], grid[i + 1], spacing))
            if u + LIPSCHITZ_STEP <= 1.0:
                rates.append(_rate(grid[i], segment.fiber_at(u + LIPSCHITZ_STEP), LIPSCHITZ_STEP))
            for rate in rates:
                out.cases += 1
                if measure("continuity", rate) > LIPSCHITZ_BOUND:
                    out.record(f"segment={k} u={u:.6f}", "continuity", rate)
    return out


def _assert_same_outcome(got, expected):
    """Equal cases and failure order; values to 1e-12 relative.

    Normalization and base-line drift are differences from 1, taken after
    sums the array checker orders differently, so they may also differ by a
    few units in the last place of 1.0, hence the absolute 1e-15.
    """
    assert got.cases == expected.cases
    assert [f[:2] for f in got.failures] == [f[:2] for f in expected.failures]
    close = lambda value: pytest.approx(value, rel=1e-12, abs=1e-15)  # noqa: E731
    assert [f[2] for f in got.failures] == [close(f[2]) for f in expected.failures]
    assert got.worst == {k: close(v) for k, v in expected.worst.items()}


def _corrupted(path, corrupt):
    """``path`` with every segment's ``fiber_at`` passed through ``corrupt(u, w, s)``."""

    class Corrupted:
        def __init__(self, inner):
            self.kind = inner.kind
            self.inner = inner

        def fiber_at(self, u):
            return corrupt(u, *self.inner.fiber_at(u))

    segments = [Corrupted(segment) for segment in path.segments]
    return PlannedPath(path.piece, segments, path.start, path.end)


def _sign_flip(u, w, s):
    return w, np.where(u > 0.5, -s, s)


def _norm_drift(u, w, s):
    # |x| = 1 + 2e-9 sin(pi u): past NORM_DRIFT_TOL only for u in (1/6, 5/6)
    scale = 1.0 + 2e-9 * np.sin(np.pi * u)
    return w * np.expand_dims(scale, -1), s * scale


def _fine_jump(u, w, s):
    # a phase jump on (0.35005, 0.35015): no grid point at samples=21, one fine point
    inside = (u > 0.35005) & (u < 0.35015)
    return w * np.expand_dims(np.where(inside, np.exp(0.01j), 1.0), -1), s


def _scaled_w(u, w, s):
    return 1.01 * w, s


def _pushed_off_line(u, w, s):
    w = w.copy()
    w[..., 0] += 1e-3 * u
    return w, s


class TestCheckPath:
    def _pair(self):
        z = ProjectiveRep.normalized(np.array([1.0, 0.5 + 0.25j, -0.25j]))
        x = BundlePoint.from_fiber(z, complex(0.48, 0.36), 0.8)
        y = BundlePoint.from_fiber(z, complex(-0.6, 0.0), 0.64 + 0.16)
        return x, y

    def test_valid_path_passes(self):
        x, y = self._pair()
        out = check_path(plan(x, y), samples=40)
        assert out.passed

    def test_constant_path_passes(self):
        x, _ = self._pair()
        assert check_path(plan(x, x), samples=10).passed

    def test_corrupted_path_fails_continuity(self):
        x, y = self._pair()
        out = check_path(_corrupted(plan(x, y), _sign_flip), samples=40)
        assert not out.passed
        assert any(invariant == "continuity" for _, invariant, _ in out.failures)


    def test_path_off_the_sphere_is_recorded_not_raised(self):
        x, y = self._pair()
        out = check_path(_corrupted(plan(x, y), _scaled_w), samples=21)
        invariants = {invariant for _, invariant, _ in out.failures}
        assert {"endpoint", "normalization"} <= invariants
        assert [d for d, invariant, _ in out.failures if invariant == "endpoint"] == ["t=0", "t=1"]

    def test_path_off_the_line_is_recorded_not_raised(self):
        x, y = self._pair()
        out = check_path(_corrupted(plan(x, y), _pushed_off_line), samples=21)
        failed = {(d, invariant) for d, invariant, _ in out.failures}
        assert ("t=1", "endpoint") in failed
        assert ("t=1.000000", "base-line drift") in failed

    def test_worst_margins(self):
        x, y = self._pair()
        clean = check_paths_random(2, trials=100, samples=21)
        assert clean.passed
        assert clean.worst.keys() == {"endpoint", "normalization", "base-line drift", "continuity"}
        assert clean.worst["endpoint"] <= ENDPOINT_TOL
        assert clean.worst["normalization"] <= NORM_DRIFT_TOL
        assert clean.worst["base-line drift"] <= BASE_DRIFT_TOL
        assert 0.0 < clean.worst["continuity"] <= LIPSCHITZ_BOUND
        out = check_path(_corrupted(plan(x, y), _sign_flip), samples=40)
        assert out.worst["continuity"] == max(v for _, inv, v in out.failures if inv == "continuity")


class TestArrayChecker:
    """The array checker against the per-point reference ``_scalar_check_path``."""

    CORRUPTIONS = [_sign_flip, _norm_drift, _fine_jump, _scaled_w, _pushed_off_line]

    def _paths(self):
        z = ProjectiveRep.normalized(np.array([1.0, 0.5 + 0.25j, -0.25j]))
        x = BundlePoint.from_fiber(z, complex(0.48, 0.36), 0.8)
        y = BundlePoint.from_fiber(z, complex(-0.6, 0.0), 0.8)
        up, down = BundlePoint.section_point(z), BundlePoint.section_point(z, -1)
        return [plan(x, y), plan(x, x.antipode()), plan(up, down)]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_corrupted_paths_match_the_reference(self, corrupt):
        for path in self._paths():
            corrupted = _corrupted(path, corrupt)
            expected = _scalar_check_path(corrupted, 21)
            assert not expected.passed
            _assert_same_outcome(check_path(corrupted, samples=21), expected)

    def test_drift_and_jump_fire_where_intended(self):
        path = self._paths()[0]
        drift = check_path(_corrupted(path, _norm_drift), samples=21)
        assert {d for d, _, _ in drift.failures} == {f"t={i / 20:.6f}" for i in range(4, 17)}
        jump = check_path(_corrupted(path, _fine_jump), samples=21)
        assert [f[:2] for f in jump.failures] == [("segment=0 u=0.350000", "continuity")]

    def test_mixed_batch_matches_the_reference(self):
        paths = self._paths()
        batch = paths + [_corrupted(p, c) for c in self.CORRUPTIONS for p in paths] + paths
        for got, path in zip(_check_paths(batch, 21), batch):
            _assert_same_outcome(got, _scalar_check_path(path, 21))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_paths_random_matches_merged_reference(self, n):
        trials = CHECK_CHUNK + 88  # two chunks
        out = check_paths_random(n, trials=trials, seed=DEFAULT_SEED + n, samples=21)
        rng = np.random.default_rng(DEFAULT_SEED + n)
        cases = [(f"random#{i}", *random_pair(rng, n)) for i in range(trials)]
        cases += [(f"boundary#{i}", x, y) for i, (x, y, _) in enumerate(boundary_pairs(n))]
        expected = VerificationOutcome(out.suite)
        for digest, x, y in cases:
            sub = _scalar_check_path(plan(x, y), 21)
            expected.cases += 1
            for d, invariant, value in sub.failures:
                expected.record(f"{digest} {d}", invariant, value)
            for invariant, value in sub.worst.items():
                expected.worst[invariant] = max(expected.worst.get(invariant, value), value)
        _assert_same_outcome(out, expected)


class TestCheckPartition:
    def test_small_suite_passes(self):
        out = check_partition(2, trials=400, seed=DEFAULT_SEED)
        assert out.passed, out.failures[:3]

    def test_n1_witnesses_four_pieces(self):
        # witnessing is part of the suite; a pass means indices 0..3 occurred
        assert check_partition(1, trials=200).passed

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            check_partition(0)


class TestCheckPathsRandom:
    def test_small_sweep_passes(self):
        out = check_paths_random(2, trials=150, seed=DEFAULT_SEED, samples=15)
        assert out.passed, out.failures[:3]


class TestCheckBoundsTables:
    def test_full_table_passes(self):
        out = check_bounds_tables(8)
        assert out.passed
        assert out.cases == 8 * 8 + 8 + 8

    def test_missing_note_is_a_recorded_failure(self, monkeypatch):
        real = verify_mod.family_table

        def without_notes(family, n_max):
            return [(n, k, replace(r, notes=())) for n, k, r in real(family, n_max)]

        monkeypatch.setattr(verify_mod, "family_table", without_notes)
        out = check_bounds_tables(3)
        assert out.cases == 3 * 3 + 3 + 3
        assert out.failures == [(f"tc-split n={n}", "NOTE_STRONGER", "missing") for n in (1, 3)]

    def test_summary_format(self):
        out = check_bounds_tables(2)
        assert "PASS" in out.summary()
