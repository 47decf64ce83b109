"""Acceptance gate: every exit criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from paramtc.bounds import (
    NOTE_STRONGER,
    secat_sphere_bundle,
    tc_dimension_upper,
    tc_sphere_bundle,
    tc_split_upper,
)
from paramtc.bundle import canonical_line_bundle, cpn, ddot_of, k_fold_sum, trivial_bundle, whitney_sum
from paramtc.ring import lh_multiply, lh_power
from paramtc.verify import (
    DEFAULT_SEED,
    check_partition,
    check_paths_random,
    lh_rewrite_oracle,
    lh_to_dense,
    oracle_power,
    _cpn_module,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed <= budget_seconds else "FAIL"
        print(f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s <= {budget_seconds:g}s) {description}")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"


def eta(n):
    return canonical_line_bundle(cpn(n))


def eta_plus_eps(n):
    base = cpn(n)
    return whitney_sum(canonical_line_bundle(base), trivial_bundle(base, 1))


def test_criterion_1_secat_floor_table():
    with criterion(1, "secat of k-fold canonical sums equals floor(n/k)", 1.0):
        for n in range(1, 9):
            for k in range(1, 9):
                r = secat_sphere_bundle(k_fold_sum(eta(n), k))
                assert r.exact, (n, k, r)
                assert r.lower == n // k, (n, k, r.lower)


def test_criterion_2_circle_bundle_tc():
    with criterion(2, "fiberwise TC of the canonical circle bundle is exactly 1", 1.0):
        for n in range(1, 9):
            r = tc_sphere_bundle(eta(n))
            assert r.exact and r.lower == 1, (n, r)


def test_criterion_3_even_n_tc():
    with criterion(3, "TC of (canonical + trivial) is exactly n + 2 for even n", 1.0):
        for n in (2, 4, 6, 8):
            r = tc_sphere_bundle(eta_plus_eps(n))
            assert r.exact and r.lower == n + 2, (n, r)
            assert r.has_rule("R3"), r.provenance
            assert any(
                p.rule in ("R4", "R5", "R6", "R8") and ("upper" in p.detail or "exact" in p.detail)
                for p in r.provenance
            ), r.provenance


def test_criterion_4_odd_n_interval():
    with criterion(4, "odd n stays in [n+1, n+2]; exactness carries the stronger-range flag", 1.0):
        for n in (1, 3, 5, 7):
            r = tc_sphere_bundle(eta_plus_eps(n))
            assert r.lower >= n + 1, (n, r)
            assert r.upper is not None and r.upper <= n + 2, (n, r)
            if r.exact:
                assert NOTE_STRONGER in r.notes, (n, r)


def test_criterion_5_kernel_cuplength():
    with criterion(5, "height of U - x is n + 1 and matches the rewrite oracle", 5.0):
        from paramtc.ring import lh_height

        for n in range(1, 7):
            m = _cpn_module(n)
            x0 = m.u() - m.from_base(m.ring.generator("x"))
            assert lh_height(x0) == n + 1, n
            acc = m.one()
            for k in range(1, n + 3):
                acc = lh_multiply(acc, x0)
                expected = lh_rewrite_oracle(oracle_power([(1, "U"), (-1, "x")], k), n)
                assert lh_to_dense(acc, n) == expected, (n, k)


def test_criterion_6_power_formulas():
    with criterion(6, "powers of -x + 2U match the closed even/odd forms term-by-term", 5.0):
        from references import power

        for n in range(1, 7):
            m = _cpn_module(n)
            x = m.ring.generator("x")
            e = m.u() * 2 - m.from_base(x)
            for k in range(1, 2 * n + 4):
                got = lh_power(e, k)
                if k % 2 == 0:
                    expected = m.from_base(power(x, k))
                else:
                    expected = m.element(power(x, k) * -1, power(x, k - 1) * 2)
                assert got == expected, (n, k)


def test_criterion_7_planner_property_suite():
    with criterion(7, "planner invariants on 10^4 seeded pairs per base, n in {1,2,3}", 60.0):
        for n in (1, 2, 3):
            out = check_paths_random(n, trials=10_000, seed=DEFAULT_SEED + n, samples=21)
            assert out.passed, (n, out.failures[:5])


def test_criterion_8_piece_count_witness():
    with criterion(8, "exactly n + 3 partition pieces, all witnessed", 10.0):
        for n in (1, 2, 3):
            out = check_partition(n, trials=3000, seed=DEFAULT_SEED)
            assert out.passed, (n, out.failures[:5])


def test_criterion_9_dimension_upper_bound():
    with criterion(9, "dimension upper bound gives n + 2 for the 2-sphere fiber", 1.0):
        for n in range(1, 9):
            assert tc_dimension_upper(2, 1, 2 * n) == n + 2, n


def test_criterion_10_split_upper_rules():
    with criterion(10, "split upper bound reproduces TC <= 2 for both section rules", 1.0):
        import dataclasses

        assert tc_split_upper(0, 0) == 2

        base = cpn(3)
        # complex factor with a nowhere-zero section
        tau = dataclasses.replace(
            trivial_bundle(base, 2), has_complex_structure=True, independent_sections=1
        )
        hint = ddot_of(tau).secat_ddot_hint
        sphere = secat_sphere_bundle(tau)
        assert hint == 0 and sphere.exact and sphere.lower == 0
        assert tc_split_upper(hint, sphere.lower) == 2

        # two independent nowhere-zero sections on the whole bundle
        xi = dataclasses.replace(
            trivial_bundle(base, 4), independent_sections=2, trivial_summands=0,
            complement_euler=None,
        )
        r = tc_sphere_bundle(xi)
        assert r.upper == 2 and r.has_rule("R8"), r
