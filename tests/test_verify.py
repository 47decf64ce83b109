"""Tests for the rewrite oracle and the verification suites."""

from __future__ import annotations

import copy
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

import paramtc.planner as planner_mod
import paramtc.verify as verify_mod
from paramtc.planner import BundlePoint, ProjectiveRep, plan
from paramtc.ring import lh_power
from paramtc.verify import (
    BASE_DRIFT_TOL,
    CHECK_POINTS,
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
    _check_paths,
    _cpn_module,
)
from references import boundary_pairs as reference_boundary_pairs, random_pair


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

    def test_suite_runs_clean_at_n_max_16(self):
        out = check_lh_oracle(n_max=16)
        assert out.passed, out.failures[:3]
        assert out.cases > 0


def _rate(a, b, step):
    (w0, s0), (w1, s1) = a, b
    return math.hypot(float(np.linalg.norm(w1 - w0)), s1 - s0) / step


def _scalar_check_path(path, samples):
    """Reference: the checker's per-point loops, one scalar ``fiber_at`` per point.

    Endpoints are measured on the fiber coordinates of the t = 0 and t = 1
    samples, so a path that leaves the sphere or the line is recorded, not raised.
    Junction k compares segment k - 1 at u = 1 with segment k at u = 0.
    """
    out = VerificationOutcome("path")

    def measure(invariant, value):
        out.worst[invariant] = float(np.maximum(out.worst.get(invariant, value), value))  # NaN stays
        return value

    out.cases += 2
    for t, point, digest in ((0.0, path.start, "t=0"), (1.0, path.end, "t=1")):
        w, s = path.fiber_at(t)
        d = measure("endpoint", math.hypot(float(np.linalg.norm(w - point.w)), s - point.s))
        if not d <= ENDPOINT_TOL:
            out.record(digest, "endpoint", d)

    z0 = path.z.z
    for i in range(samples):
        t = i / (samples - 1)
        w, s = path.fiber_at(t)
        out.cases += 1
        wn = float(np.linalg.norm(w))
        norm = math.hypot(wn, s)
        if not measure("normalization", abs(norm - 1.0)) <= NORM_DRIFT_TOL:
            out.record(f"t={t:.6f}", "normalization", abs(norm - 1.0))
        align = abs(complex(np.vdot(z0, w))) / wn if wn > 1e-6 else 1.0
        measure("base-line drift", 1.0 - align)
        if not align >= 1.0 - BASE_DRIFT_TOL:
            out.record(f"t={t:.6f}", "base-line drift", 1.0 - align)

    spacing = 1.0 / (samples - 1)
    segments = len(path.kinds)

    def segment_at(k, u):
        return path.stack.at(k, np.float64(u))

    for k in range(segments):
        grid = [segment_at(k, i * spacing) for i in range(samples)]
        for i in range(samples):
            u = i * spacing
            rates = []
            if i + 1 < samples:
                rates.append(_rate(grid[i], grid[i + 1], spacing))
            if u + LIPSCHITZ_STEP <= 1.0:
                rates.append(_rate(grid[i], segment_at(k, u + LIPSCHITZ_STEP), LIPSCHITZ_STEP))
            for rate in rates:
                out.cases += 1
                if not measure("continuity", rate) <= LIPSCHITZ_BOUND:
                    out.record(f"segment={k} u={u:.6f}", "continuity", rate)

    measure("junction", 0.0)
    for k in range(1, segments):
        out.cases += 1
        (w0, s0), (w1, s1) = segment_at(k - 1, 1.0), segment_at(k, 0.0)
        gap = math.hypot(float(np.linalg.norm(w1 - w0)), s1 - s0)
        if not measure("junction", gap) <= ENDPOINT_TOL:
            out.record(f"segment={k} junction", "junction", gap)
    return out


def _assert_same_outcome(got, expected):
    """Equal cases and failure order; values to 1e-12 relative.

    Normalization and base-line drift are differences from 1, taken after
    sums the array checker orders differently, so they may also differ by a
    few units in the last place of 1.0, hence the absolute 1e-15.
    """
    assert got.cases == expected.cases
    assert [f[:2] for f in got.failures] == [f[:2] for f in expected.failures]
    close = lambda value: pytest.approx(value, rel=1e-12, abs=1e-15, nan_ok=True)  # noqa: E731
    assert [f[2] for f in got.failures] == [close(f[2]) for f in expected.failures]
    assert got.worst == {k: close(v) for k, v in expected.worst.items()}


def _corrupted(path, corrupt, only=None):
    """A copy of ``path`` with each segment's evaluations passed through ``corrupt(u, w, s)``.

    Every segment, or only segment ``only``.  The copy's stored stack only
    tags its rows with the corruption: the ``corruptible`` fixture applies it
    inside the one arc evaluator, so the array checker and the per-point
    reference both see the same corrupted path.
    """
    corrupted = copy.copy(path)
    corrupted.stack = copy.copy(path.stack)
    corrupted.stack.tags = [corrupt if only in (None, k) else None for k in range(len(path.kinds))]
    return corrupted


def _stacked(paths):
    """One stack of the stored arcs of ``paths``, in order, with their rows' corruption tags."""
    stacks = [path.stack for path in paths]
    arrays = (np.concatenate([getattr(stack, name) for stack in stacks]) for name in ("wp", "sp", "wd", "sd", "angle"))
    stacked = planner_mod._ArcStack(np.concatenate([stack.count for stack in stacks]), *arrays)
    stacked.tags = [tag for stack in stacks for tag in getattr(stack, "tags", [None] * len(stack.angle))]
    return stacked


@pytest.fixture
def corruptible(monkeypatch):
    """Pass every arc evaluation of a row through the corruption its stack tags it with, if any.

    Only stacks :func:`_corrupted` and :func:`_stacked` build carry tags.
    """
    real = planner_mod._ArcStack.at

    def at(stack, index, u):
        w, s = real(stack, index, u)
        tags = getattr(stack, "tags", [])
        for corrupt in set(tags) - {None}:
            on = np.isin(index, [i for i, tag in enumerate(tags) if tag is corrupt])
            bad_w, bad_s = corrupt(u, w, s)
            w, s = np.where(on[..., np.newaxis], bad_w, w), np.where(on, bad_s, s)
        return w, s

    monkeypatch.setattr(planner_mod._ArcStack, "at", at)


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


def _turned(u, w, s):
    # w turned by e^{0.5i}: the same line, sphere and speed, so only junctions see it
    return w * np.exp(0.5j), s


def _nan_at_start(u, w, s):
    # NaN where the segment starts: its junction with the segment before reads NaN
    return w, np.where(u == 0.0, math.nan, s)


@pytest.mark.usefixtures("corruptible")
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
        assert clean.worst.keys() == {"endpoint", "normalization", "base-line drift", "continuity", "junction"}
        assert clean.worst["endpoint"] <= ENDPOINT_TOL
        assert clean.worst["junction"] <= ENDPOINT_TOL
        assert clean.worst["normalization"] <= NORM_DRIFT_TOL
        assert clean.worst["base-line drift"] <= BASE_DRIFT_TOL
        assert 0.0 < clean.worst["continuity"] <= LIPSCHITZ_BOUND
        out = check_path(_corrupted(plan(x, y), _sign_flip), samples=40)
        assert out.worst["continuity"] == max(v for _, inv, v in out.failures if inv == "continuity")


@pytest.mark.usefixtures("corruptible")
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

    def test_turned_middle_arc_fails_exactly_its_junctions(self):
        piece_one = self._paths()[1]
        assert len(piece_one.kinds) == 3
        turned = _corrupted(piece_one, _turned, only=1)
        expected = _scalar_check_path(turned, 21)
        out = check_path(turned, samples=21)
        _assert_same_outcome(out, expected)
        assert [f[:2] for f in out.failures] == [("segment=1 junction", "junction"), ("segment=2 junction", "junction")]
        assert [f[2] for f in out.failures] == [pytest.approx(2 * math.sin(0.25))] * 2
        assert out.worst["junction"] == pytest.approx(2 * math.sin(0.25))

    def test_nan_junction_fails(self):
        turned = _corrupted(self._paths()[1], _nan_at_start, only=1)
        expected = _scalar_check_path(turned, 21)
        out = check_path(turned, samples=21)
        _assert_same_outcome(out, expected)
        junctions = [f for f in out.failures if f[1] == "junction"]
        assert [f[0] for f in junctions] == ["segment=1 junction"] and math.isnan(junctions[0][2])
        assert math.isnan(out.worst["junction"])

    def test_one_segment_path_has_no_junction(self):
        out = check_path(self._paths()[0], samples=21)
        assert out.passed and out.worst["junction"] == 0.0

    def test_mixed_batch_matches_the_reference(self):
        # one stacked check of all paths against the merged per-path references
        paths = self._paths()
        batch = paths + [_corrupted(p, c) for c in self.CORRUPTIONS for p in paths] + paths
        batch.append(_corrupted(paths[1], _turned, only=1))
        got = VerificationOutcome("batch")
        points = [[p.start for p in batch], [p.end for p in batch]]  # ends[start | end, path]
        ends = np.array([[q.w for q in row] for row in points]), np.array([[q.s for q in row] for row in points])
        z = np.stack([path.z.z for path in batch])
        stack = _stacked(batch)
        got.cases = _check_paths(got, stack, z, ends, 21, lambda p: f"path#{p} ")
        expected = VerificationOutcome("batch")
        for i, path in enumerate(batch):
            sub = _scalar_check_path(path, 21)
            expected.cases += sub.cases
            for d, invariant, value in sub.failures:
                expected.record(f"path#{i} {d}", invariant, value)
            for invariant, value in sub.worst.items():
                expected.worst[invariant] = max(expected.worst.get(invariant, value), value)
        _assert_same_outcome(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_paths_random_matches_merged_reference(self, n):
        trials = CHECK_POINTS // 21 + 88  # two chunks
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

    def test_random_pairs_are_drawn_in_chunks(self, monkeypatch):
        drawn = []
        real = verify_mod._random_pairs

        def recording(rng, n, count):
            drawn.append(real(rng, n, count))
            return drawn[-1]

        monkeypatch.setattr(verify_mod, "_random_pairs", recording)
        monkeypatch.setattr(verify_mod, "PAIR_CHUNK", 7)
        assert check_partition(1, trials=30).cases == 30 + len(boundary_pairs(1)) + 2
        assert [len(rows[0]) for rows in drawn] == [7, 7, 7, 7, 2, 2]  # the last two: the cross-fiber pair
        block = real(np.random.default_rng(DEFAULT_SEED), 1, 32)
        for got, expected in zip(zip(*drawn), block):
            assert np.array_equal(np.concatenate(got), expected)  # one stream, as drawn at once

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="^trials must be >= 0, got -1"):
            check_partition(2, trials=-1)


class TestCheckPathsRandom:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_block_draw_is_the_per_pair_draw(self, n):
        rng, reference = np.random.default_rng(DEFAULT_SEED + n), np.random.default_rng(DEFAULT_SEED + n)
        z, xw, xs, yw, ys = verify_mod._random_pairs(rng, n, 40)
        expected = [random_pair(reference, n) for _ in range(40)]
        for k, (x, y) in enumerate(expected):
            assert z[k].tobytes() == x.z.z.tobytes() == y.z.z.tobytes()
            assert xw[k].tobytes() == x.w.tobytes() and yw[k].tobytes() == y.w.tobytes()
            assert (xs[k], ys[k]) == (x.s, y.s)
        for pair, reference_pair in zip(verify_mod._pair_points(z, xw, xs, yw, ys), expected):
            for point, ref in zip(pair, reference_pair):
                assert point.w.tobytes() == ref.w.tobytes() and point.s == ref.s and type(point.s) is float
                assert not (point.z.z.flags.writeable or point.w.flags.writeable)
        assert rng.standard_normal() == reference.standard_normal()  # the same stream position

    def test_chunked_draw_is_the_block_draw(self):
        whole = np.random.default_rng(DEFAULT_SEED).standard_normal((1000, 7))
        rng = np.random.default_rng(DEFAULT_SEED)
        chunks = [rng.standard_normal((size, 7)) for size in (300, 1, 699)]
        assert np.array_equal(np.concatenate(chunks), whole)
        rng = np.random.default_rng(DEFAULT_SEED + 1)
        drawn = [verify_mod._random_pairs(rng, 2, size) for size in (300, 0, 1, 699)]
        block = verify_mod._random_pairs(np.random.default_rng(DEFAULT_SEED + 1), 2, 1000)
        for got, expected in zip(zip(*drawn), block):
            assert np.array_equal(np.concatenate(got), expected)

    @pytest.mark.parametrize("n", range(7))
    def test_boundary_pairs_match_the_reference(self, n):
        got, expected = boundary_pairs(n), reference_boundary_pairs(n)
        assert [k for _, _, k in got] == [k for _, _, k in expected]
        for (x, y, _), (x_ref, y_ref, _) in zip(got, expected):
            for point, ref in ((x, x_ref), (y, y_ref)):
                assert np.array_equal(point.z.z, ref.z.z) and np.array_equal(point.w, ref.w)
                assert point.s == ref.s and type(point.s) is float

    def test_pieces_from_the_boundary_pairs_alone(self):
        out = check_paths_random(1, 0)
        assert out.passed and out.pieces == {0: 3, 1: 3, 2: 2, 3: 2}
        assert sum(check_paths_random(2, 300).pieces.values()) == 300 + len(boundary_pairs(2))

    def test_no_scalar_planning(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the path suite planned a pair with the scalar planner")

        for module in (planner_mod, verify_mod):
            monkeypatch.setattr(module, "plan", refuse)
            monkeypatch.setattr(module, "classify_pair", refuse)
        out = check_paths_random(2, trials=CHECK_POINTS // 21 + 5, samples=21)
        assert out.passed and out.cases == CHECK_POINTS // 21 + 5 + len(boundary_pairs(2))

    def test_a_bad_point_raises_as_the_constructor(self, monkeypatch):
        real = verify_mod._random_pairs

        def off_the_sphere(rng, n, count):
            z, xw, xs, yw, ys = real(rng, n, count)
            return z, xw, xs * (1.0 + 1e-6), yw, ys

        monkeypatch.setattr(verify_mod, "_random_pairs", off_the_sphere)
        with pytest.raises(ValueError, match="is not 1"):
            check_paths_random(1, trials=3)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n": 1, "trials": -5}, "trials"), ({"n": -1}, "n"), ({"n": -3}, "n")],
    )
    def test_bad_arguments_are_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
            check_paths_random(**{"trials": 2, **kwargs})

    def test_small_sweep_passes(self):
        out = check_paths_random(2, trials=150, seed=DEFAULT_SEED, samples=15)
        assert out.passed, out.failures[:3]

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            check_paths_random(1, trials=2, samples=samples)

    def test_chunks_shrink_as_samples_grow(self, monkeypatch):
        sizes = []
        real = verify_mod._check_paths

        def counting(out, stack, *rest):
            sizes.append(len(stack.count))
            return real(out, stack, *rest)

        monkeypatch.setattr(verify_mod, "_check_paths", counting)
        out = check_paths_random(1, trials=25, seed=DEFAULT_SEED, samples=1000)
        assert out.passed, out.failures[:3]
        assert max(sizes) == CHECK_POINTS // 1000 and sum(sizes) == out.cases


class TestCheckerParts:
    """The checker's norm helper, its grid and the boundary rows it builds once."""

    def test_row_norms_are_linalg_norm_bit_for_bit(self):
        # lengths 1-70 cover numpy's pairwise summation, which starts at 8
        rng = np.random.default_rng(5)
        for length in range(1, 71):
            for shape in ((40, length), (6, 7, length)):
                w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                w *= 10.0 ** rng.integers(-100, 100, size=shape[:-1] + (1,))
                w[..., 1, :] = math.nan
                w[..., 2, -1] = complex(math.inf, 1.0)
                w[..., 3, 0] = complex(0.0, -math.inf)
                with np.errstate(invalid="ignore"):  # inf * 0 in the complex products
                    got, expected = verify_mod._row_norms(w), np.linalg.norm(w, axis=-1)
                assert got.shape == shape[:-1] and got.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
                assert np.isnan(got[..., 1]).all() and np.isposinf(got[..., 2:4]).all()

    def test_fine_points_are_a_prefix_of_the_grid(self):
        for samples in [*range(2, 1001), 12_345]:  # past 10,001 samples, more than u = 1 lacks a fine point
            t, u, spacing, nfine, grid = verify_mod._grid(samples)
            assert np.array_equal(t, np.arange(samples) / (samples - 1)) and spacing == 1.0 / (samples - 1)
            assert np.array_equal(u, np.arange(samples) * spacing)
            fine = np.flatnonzero(u + LIPSCHITZ_STEP <= 1.0)
            assert np.array_equal(fine, np.arange(nfine)), samples
            assert np.array_equal(grid, np.concatenate([u, u[fine] + LIPSCHITZ_STEP, [1.0]]))
            assert nfine == samples - 1 if samples <= 10_001 else nfine < samples - 1
            assert not any(a.flags.writeable for a in (t, u, grid))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_boundary_rows_are_read_only_and_never_change(self, n):
        rows = verify_mod._boundary_arrays(n)
        before = [a.copy() for a in rows]
        assert not any(a.flags.writeable for a in rows)
        with pytest.raises(ValueError):
            rows[1][0, 0] = 1.0
        check_paths_random(n, trials=5, seed=DEFAULT_SEED)
        if n >= 1:
            check_partition(n, trials=5, seed=DEFAULT_SEED)
            boundary_pairs(n)
        verify_mod._boundary_arrays.cache_clear()
        for arrays in (rows, verify_mod._boundary_arrays(n), verify_mod._boundary_arrays(n)):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(arrays, before, strict=True))

    @pytest.mark.parametrize("n", [0, 2])
    def test_each_call_plans_and_checks_every_boundary_pair(self, n, monkeypatch):
        planned = []
        real = verify_mod._plan_stack

        def counting(z, *rest):
            planned.append(len(z))
            return real(z, *rest)

        monkeypatch.setattr(verify_mod, "_plan_stack", counting)
        first, second = (check_paths_random(n, trials=8, seed=DEFAULT_SEED, samples=9) for _ in range(2))
        boundary = len(verify_mod._boundary_arrays(n)[0])
        assert first == second and first.cases == 8 + boundary
        assert planned == [8 + boundary] * 2


class TestCheckBoundsTables:
    def test_full_table_passes(self):
        out = check_bounds_tables(8)
        assert out.passed
        assert out.cases == 8 * 8 + 8 + 8

    def test_full_table_passes_at_n_max_32(self):
        out = check_bounds_tables(32)
        assert out.passed, out.failures[:3]
        assert out.cases == 32 * 32 + 32 + 32

    def test_full_table_passes_at_the_cap_within_budget(self):
        # one k-fold chain per n; rebuilding every row took about 2.5-3.8 s on a 2-vCPU host
        budget_s = 1.0
        start = time.perf_counter()
        out = check_bounds_tables(64)
        elapsed = time.perf_counter() - start
        assert out.passed, out.failures[:3]
        assert out.cases == 64 * 64 + 64 + 64
        assert elapsed < budget_s, f"check_bounds_tables(64) took {elapsed:.2f} s, budget {budget_s} s"

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
