"""Tests for the secat / parametrized-TC rule engine."""

from __future__ import annotations

import dataclasses

import pytest

from paramtc.bounds import (
    ContradictionError,
    NOTE_STRONGER,
    Quantity,
    TCReport,
    family_table,
    kernel_cuplength,
    secat_sphere_bundle,
    tc_dimension_upper,
    tc_sphere_bundle,
    tc_split_upper,
)
from paramtc.bundle import (
    FAMILIES,
    BundleDescriptor,
    canonical_line_bundle,
    cpn,
    family_bundle,
    k_fold_sum,
    trivial_bundle,
    whitney_sum,
)


def eta(n):
    return canonical_line_bundle(cpn(n))


def eta_plus_eps(n):
    base = cpn(n)
    return whitney_sum(canonical_line_bundle(base), trivial_bundle(base, 1))


class TestSecatSphereBundle:
    def test_canonical_line_over_cp4(self):
        r = secat_sphere_bundle(eta(4))
        assert r.exact and r.lower == 4
        assert r.has_rule("dimension-equality")

    def test_two_fold_sum_over_cp5(self):
        r = secat_sphere_bundle(k_fold_sum(eta(5), 2))
        assert r.exact and r.lower == 2

    def test_large_multiple_has_a_section_up_to_homotopy(self):
        # Euler class vanishes and the dimension rule still applies: exact 0
        r = secat_sphere_bundle(k_fold_sum(eta(3), 5))
        assert r.exact and r.lower == 0

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_floor_table(self, n, k):
        r = secat_sphere_bundle(k_fold_sum(eta(n), k))
        assert r.exact
        assert r.lower == n // k

    def test_trivial_bundle_is_exactly_zero(self):
        r = secat_sphere_bundle(trivial_bundle(cpn(3), 2))
        assert r.exact and r.lower == 0
        assert r.has_rule("section")

    def test_unknown_upper_is_unbounded(self):
        # non-orientable: only the Stiefel-Whitney lower bound applies
        base = cpn(8)
        sw = base.mod2_ring.one() + base.mod2_ring.element({(4,): 1})
        xi = BundleDescriptor(base=base, rank=8, euler=None, sw_total=sw)
        r = secat_sphere_bundle(xi)
        assert r.lower == 2
        assert r.upper is None
        assert r.has_rule("sw-height")
        assert r.has_rule("none")

    def test_inconsistent_declaration_trips(self):
        # the constructor refuses a section beside a nonzero Euler class, so
        # the declaration is forced past __post_init__ to reach the engine
        xi = eta(3)
        object.__setattr__(xi, "independent_sections", 1)
        with pytest.raises(ContradictionError):
            secat_sphere_bundle(xi)


class TestTCDimensionUpper:
    def test_two_sphere_fiber_over_projective_space(self):
        for n in range(1, 9):
            assert tc_dimension_upper(2, 1, 2 * n) == n + 2

    def test_circle_fiber(self):
        for n in range(1, 5):
            assert tc_dimension_upper(1, 0, 2 * n) == 2 * n + 2

    def test_three_sphere_over_a_point(self):
        assert tc_dimension_upper(3, 2, 0) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tc_dimension_upper(-1, 0, 0)


class TestKernelCuplength:
    def test_integral_over_cpn(self):
        for n in (2, 3, 5):
            ring = cpn(n).ring
            integral, mod_two = kernel_cuplength(3, euler_eta=ring.generator("x"))
            assert integral == n + 1
            assert mod_two is None

    def test_vanishing_euler(self):
        ring = cpn(4).ring
        integral, _ = kernel_cuplength(3, euler_eta=ring.zero())
        assert integral == 1

    def test_mod2_over_cpn(self):
        for n in (2, 4):
            sw = cpn(n).mod2_ring.generator("x")
            _, mod_two = kernel_cuplength(3, sw_top=sw)
            assert mod_two == n + 1

    def test_degree_mismatch(self):
        ring = cpn(3).ring
        with pytest.raises(ValueError):
            kernel_cuplength(5, euler_eta=ring.generator("x"))

    def test_wrong_coefficients(self):
        with pytest.raises(ValueError):
            kernel_cuplength(3, euler_eta=cpn(3).mod2_ring.generator("x"))


class TestTCSphereBundle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_canonical_line_bundle_exact_one(self, n):
        r = tc_sphere_bundle(eta(n))
        assert r.exact and r.lower == 1
        assert r.has_rule("R7")

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_even_n_exact(self, n):
        r = tc_sphere_bundle(eta_plus_eps(n))
        assert r.exact and r.lower == n + 2
        assert r.has_rule("R3")
        assert r.has_rule("R5") or r.has_rule("R6")
        assert NOTE_STRONGER not in r.notes

    @pytest.mark.parametrize("n", (1, 3, 5, 7))
    def test_odd_n_interval_and_flag(self, n):
        r = tc_sphere_bundle(eta_plus_eps(n))
        assert r.lower >= n + 1
        assert r.upper is not None and r.upper <= n + 2
        if r.exact:
            assert NOTE_STRONGER in r.notes

    def test_two_sections_upper(self):
        base = cpn(3)
        xi = BundleDescriptor(
            base=base,
            rank=4,
            euler=base.ring.zero(),
            sw_total=base.mod2_ring.one(),
            independent_sections=2,
        )
        r = tc_sphere_bundle(xi)
        assert r.upper == 2
        assert r.has_rule("R8")

    def test_complex_factor_with_section(self):
        # a non-complex factor plus a complex factor with a section: TC <= 2
        base = cpn(3)
        other = BundleDescriptor(
            base=base,
            rank=2,
            euler=base.ring.generator("x"),
            sw_total=base.mod2_ring.one() + base.mod2_ring.generator("x"),
        )
        tau = dataclasses.replace(
            trivial_bundle(base, 2), has_complex_structure=True, independent_sections=1
        )
        xi = whitney_sum(other, tau)
        r = tc_sphere_bundle(xi)
        assert not r.has_rule("R7")
        assert r.upper == 2
        assert r.has_rule("R8")

    def test_split_factor_upper_over_cp_odd(self):
        # eta + eps split: the canonical factor gives upper n + 2 through R8
        r = tc_sphere_bundle(eta_plus_eps(5))
        assert any(p.rule == "R8" and "upper <= 7" in p.detail for p in r.provenance)

    def test_fiber_lower_bound_even_sphere(self):
        # trivial rank-3 bundle over a small base: fiber S^2 forces TC >= 2
        r = tc_sphere_bundle(trivial_bundle(cpn(1), 3))
        assert r.lower >= 2

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            tc_sphere_bundle(trivial_bundle(cpn(1), 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_interval_is_never_empty(self, n):
        for xi in (eta(n), eta_plus_eps(n), k_fold_sum(eta(n), 2)):
            r = tc_sphere_bundle(xi)
            assert r.upper is None or r.lower <= r.upper

    @pytest.mark.parametrize("n", range(1, 9))
    def test_r2_uses_the_module_height(self, n):
        from paramtc.bundle import ddot_of
        from paramtc.ring import lh_height

        xi = eta_plus_eps(n)
        h2 = lh_height(ddot_of(xi).euler_ddot)
        r = tc_sphere_bundle(xi)
        entry = next(p for p in r.provenance if p.rule == "R2")
        assert entry.detail == f"lower >= {h2 + 1}"


class TestSplitUpper:
    def test_both_zero(self):
        assert tc_split_upper(0, 0) == 2

    def test_arithmetic(self):
        assert tc_split_upper(1, 2) == 5

    def test_affine_in_second(self):
        for n in range(5):
            assert tc_split_upper(0, n) == n + 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tc_split_upper(-1, 0)


class TestFamilyTable:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_the_constructions(self, family):
        if family == "k-eta":
            expected = [
                (n, k, secat_sphere_bundle(k_fold_sum(eta(n), k)))
                for n in range(1, 11)
                for k in range(1, 11)
            ]
        else:
            build = eta if family == "eta" else eta_plus_eps
            expected = [(n, 1, tc_sphere_bundle(build(n))) for n in range(1, 11)]
        rows = family_table(family, 10)
        assert [(n, k, r.to_dict()) for n, k, r in rows] == [
            (n, k, r.to_dict()) for n, k, r in expected
        ]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_bundle("moebius", 2)
        with pytest.raises(ValueError, match="unknown family"):
            family_table("moebius", 2)

    def test_k_applies_only_to_k_eta(self):
        assert family_bundle("k-eta", 3, 2) == k_fold_sum(eta(3), 2)
        with pytest.raises(ValueError, match="k-eta"):
            family_bundle("eta", 3, 2)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            family_table("eta", 0)


class TestReportPlumbing:
    def test_round_trip(self):
        r = tc_sphere_bundle(eta_plus_eps(4))
        assert TCReport.from_dict(r.to_dict()) == r

    def test_quantity_values(self):
        assert Quantity("parametrized_tc") is Quantity.PARAMETRIZED_TC

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            TCReport(Quantity.PARAMETRIZED_TC, lower=3, upper=2)
