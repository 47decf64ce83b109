"""Tests for the rewrite oracle and the verification suites."""

from __future__ import annotations

import random

import numpy as np
import pytest

from paramtc.planner import BundlePoint, PlannedPath, ProjectiveRep, plan
from paramtc.ring import lh_power
from paramtc.verify import (
    DEFAULT_SEED,
    check_bounds_tables,
    check_lh_oracle,
    check_partition,
    check_path,
    check_paths_random,
    lh_rewrite_oracle,
    lh_to_dense,
    oracle_power,
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
        with pytest.raises(ValueError):
            lh_rewrite_oracle([[(1, "x")]], n=2, q=1)

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
        path = plan(x, y)

        class SignFlip:
            kind = "interpolation"

            def __init__(self, inner):
                self.inner = inner

            def fiber_at(self, u):
                w, s = self.inner.fiber_at(u)
                return (w, -s) if u > 0.5 else (w, s)

        corrupted = PlannedPath(
            piece=path.piece,
            z=path.z,
            segments=[SignFlip(path.segments[0])],
            breakpoints=path.breakpoints,
            start=path.start,
            end=path.end,
        )
        out = check_path(corrupted, samples=40)
        assert not out.passed
        assert any(invariant == "continuity" for _, invariant, _ in out.failures)


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
        assert out.cases == 8 * 8 + 8 + 4

    def test_summary_format(self):
        out = check_bounds_tables(2)
        assert "PASS" in out.summary()
