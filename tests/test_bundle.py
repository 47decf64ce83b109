"""Tests for bundle descriptors and the complement-bundle construction."""

from __future__ import annotations

import dataclasses

import pytest

from paramtc.bundle import (
    BundleDescriptor,
    canonical_line_bundle,
    cpn,
    ddot_euler_height,
    ddot_of,
    k_fold_sum,
    point,
    trivial_bundle,
    whitney_sum,
)
from paramtc.ring import cup, lh_height, mod2_reduce, power


def eta(n: int) -> BundleDescriptor:
    return canonical_line_bundle(cpn(n))


def eta_plus_eps(n: int) -> BundleDescriptor:
    base = cpn(n)
    return whitney_sum(canonical_line_bundle(base), trivial_bundle(base, 1))


class TestWhitneySum:
    def test_two_canonical_lines(self):
        s = whitney_sum(eta(5), eta(5))
        x = cpn(5).ring.generator("x")
        assert s.rank == 4
        assert s.euler == power(x, 2)
        assert s.has_complex_structure

    def test_canonical_plus_trivial(self):
        s = eta_plus_eps(4)
        assert s.rank == 3
        assert s.euler is not None and s.euler.is_zero
        assert s.trivial_summands == 1
        assert not s.has_complex_structure
        assert s.complement_euler == cpn(4).ring.generator("x")

    def test_two_trivial_lines(self):
        base = cpn(2)
        s = whitney_sum(trivial_bundle(base, 1), trivial_bundle(base, 1))
        assert s.rank == 2
        assert s.independent_sections == 2

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            whitney_sum(eta(2), eta(3))

    def test_commutative_and_associative(self):
        base = cpn(3)
        a, b, c = canonical_line_bundle(base), trivial_bundle(base, 1), canonical_line_bundle(base)
        assert whitney_sum(a, b) == whitney_sum(b, a)
        assert whitney_sum(whitney_sum(a, b), c) == whitney_sum(a, whitney_sum(b, c))

    def test_top_sw_is_mod2_euler(self):
        for n in (2, 4):
            for k in (1, 2, 3):
                s = k_fold_sum(eta(n), k)
                assert mod2_reduce(s.euler) == s.top_sw


class TestKFoldSum:
    def test_two_fold(self):
        s = k_fold_sum(eta(5), 2)
        assert s.euler == power(cpn(5).ring.generator("x"), 2)

    def test_one_fold_is_identity(self):
        assert k_fold_sum(eta(4), 1) == eta(4)

    def test_truncation_kills_euler(self):
        s = k_fold_sum(eta(3), 4)
        assert s.rank == 8
        assert s.euler.is_zero

    def test_zero_fold_rejected(self):
        with pytest.raises(ValueError):
            k_fold_sum(eta(3), 0)


class TestDescriptorValidation:
    def test_complex_structure_needs_even_rank(self):
        base = cpn(2)
        with pytest.raises(ValueError):
            BundleDescriptor(
                base=base,
                rank=3,
                euler=base.ring.zero(),
                sw_total=base.mod2_ring.one(),
                has_complex_structure=True,
            )

    def test_trivial_summand_forces_zero_euler(self):
        base = cpn(2)
        with pytest.raises(ValueError):
            BundleDescriptor(
                base=base,
                rank=2,
                euler=base.ring.generator("x"),
                sw_total=base.mod2_ring.one() + base.mod2_ring.generator("x"),
                trivial_summands=1,
            )

    def test_section_refused_beside_nonzero_euler_class(self):
        # η over CP^2: e = x != 0 and w_2 = x, so no nowhere-zero section
        with pytest.raises(ValueError, match="SW classes above degree 1"):
            dataclasses.replace(eta(2), independent_sections=1)
        # e = 2x reduces to w_2 = 0, so only the Euler class refuses the section
        base = cpn(2)
        with pytest.raises(ValueError, match="vanishing Euler class"):
            BundleDescriptor(
                base=base,
                rank=2,
                euler=cup(base.ring.scalar(2), base.ring.generator("x")),
                sw_total=base.mod2_ring.one(),
                independent_sections=1,
            )

    def test_sections_bound_the_nonzero_sw_degrees(self):
        # η⊕ε over CP^2 has w_2 = x: one section fits, two would leave rank 1
        assert dataclasses.replace(eta_plus_eps(2), independent_sections=1).independent_sections == 1
        with pytest.raises(ValueError, match="SW classes above degree 1"):
            dataclasses.replace(eta_plus_eps(2), independent_sections=2)

    def test_orientable_exactly_when_euler_present(self):
        base = cpn(2)
        assert eta(2).orientable
        assert not BundleDescriptor(base=base, rank=2, euler=None, sw_total=base.mod2_ring.one()).orientable

    def test_top_sw_must_match_euler(self):
        base = cpn(2)
        with pytest.raises(ValueError):
            BundleDescriptor(
                base=base,
                rank=2,
                euler=base.ring.generator("x"),
                sw_total=base.mod2_ring.one(),
            )

    def test_point_base(self):
        b = trivial_bundle(point(), 3)
        assert b.rank == 3


class TestDdot:
    def test_trivial_line_splitting(self):
        d = ddot_of(eta_plus_eps(4))
        m = d.euler_ddot
        assert m is not None
        ring = cpn(4).ring
        x = ring.generator("x")
        assert m.base == -x
        assert m.fiber == ring.scalar(2)
        assert m.module.u_degree == 2
        assert d.secat_ddot_hint is None

    def test_complex_structure_hint(self):
        d = ddot_of(eta(3))
        assert d.secat_ddot_hint == 0
        assert d.euler_ddot is None

    def test_generic_bundle_unmodelled(self):
        base = cpn(1)
        generic = BundleDescriptor(
            base=base,
            rank=2,
            euler=base.ring.generator("x"),
            sw_total=base.mod2_ring.one() + base.mod2_ring.generator("x"),
        )
        d = ddot_of(generic)
        assert d.euler_ddot is None
        assert d.secat_ddot_hint is None

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            ddot_of(trivial_bundle(cpn(1), 1))


class TestDdotEulerHeight:
    def test_even_height_upgrades(self):
        # complement Euler height 2 over CP^2: torsion free, so 3
        assert ddot_euler_height(ddot_of(eta_plus_eps(2))) == 3

    def test_odd_height_stays(self):
        # height 3 over CP^3: (-x+2U)^3 = (-x^3, 2x^2) != 0, fourth power = x^4 = 0
        assert ddot_euler_height(ddot_of(eta_plus_eps(3))) == 3

    def test_vanishing_complement_euler(self):
        # e = 0: 2U is nonzero, (2U)^2 = 4eU = 0
        d = ddot_of(trivial_bundle(cpn(2), 3))
        assert ddot_euler_height(d) == 1

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError):
            ddot_euler_height(ddot_of(eta(2)))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_parity_rule_matches_power_computation(self, n):
        d = ddot_of(eta_plus_eps(n))
        assert ddot_euler_height(d) == lh_height(d.euler_ddot)
