"""Tests for bundle descriptors and the complement-bundle construction."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paramtc.bundle import (
    BaseSpace,
    BundleDescriptor,
    DdotDescriptor,
    canonical_line_bundle,
    cpn,
    ddot_of,
    k_fold_sum,
    k_fold_sums,
    point,
    trivial_bundle,
    whitney_sum,
)
from paramtc.ring import cup, lh_height, mod2_reduce
from references import ddot_euler_height, power


def eta(n: int) -> BundleDescriptor:
    return canonical_line_bundle(cpn(n))


def eta_plus_eps(n: int) -> BundleDescriptor:
    base = cpn(n)
    return whitney_sum(canonical_line_bundle(base), trivial_bundle(base, 1))


class TestBaseSpace:
    def test_dimension_is_the_top_degree(self):
        for n in range(6):
            assert cpn(n).dimension == 2 * n
        assert point().dimension == 0

    def test_base_is_its_family_and_ring(self):
        assert [f.name for f in dataclasses.fields(BaseSpace)] == ["family", "ring"]

    def test_separately_built_bases_are_equal(self):
        a, b = cpn(3), cpn(3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != cpn(2)

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            cpn(n)

    def test_mod2_ring_refused(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            BaseSpace("CPn", cpn(3).mod2_ring)

    def test_mod2_ring_is_built_once(self):
        for base in (cpn(0), cpn(4), point()):
            assert base.mod2_ring is base.mod2_ring is base.ring.mod2_shadow()
            assert mod2_reduce(base.ring.one()).ring is base.mod2_ring
        a, b = cpn(3), cpn(3)
        a.mod2_ring  # stored on a's ring, not yet on b's
        assert a == b and hash(a) == hash(b)
        assert a.mod2_ring == b.mod2_ring and repr(a.mod2_ring) == repr(b.mod2_ring)

    def test_sw_class_in_a_foreign_ring_refused(self):
        base = cpn(3)
        for foreign in (cpn(4).mod2_ring, base.ring):
            with pytest.raises(ValueError, match="mod-2 base ring"):
                BundleDescriptor(base=base, rank=1, euler=None, sw_total=foreign.one())
        # the shadow of an equal ring built apart is the same ring, so it is accepted
        apart = cpn(3).mod2_ring
        assert apart is not base.mod2_ring
        assert BundleDescriptor(base=base, rank=1, euler=None, sw_total=apart.one()).sw_total.ring is apart


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


class TestKFoldSums:
    def test_chain_is_the_k_fold_sums(self):
        a = eta_plus_eps(3)
        chain = k_fold_sums(a, 5)
        assert chain == [k_fold_sum(a, k) for k in range(1, 6)]
        assert chain[0] is a

    def test_chain_is_left_nested(self):
        a = eta(4)
        chain = k_fold_sums(a, 4)
        for k in range(1, 4):
            assert chain[k].split[0] is chain[k - 1] and chain[k].split[1] is a

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            k_fold_sums(eta(3), 0)


@st.composite
def construction_trees(draw):
    """A descriptor built by the module's constructions over CP^n (n <= 6) or the point."""
    n = draw(st.sampled_from([None, *range(7)]))
    base = point() if n is None else cpn(n)
    leaves = [trivial_bundle(base, rank) for rank in (1, 2, 3)]
    if n is not None:
        line = canonical_line_bundle(base)
        leaves += [line, whitney_sum(line, leaves[0]), whitney_sum(leaves[0], line)]
    trees = st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(
            st.builds(whitney_sum, kids, kids),
            st.builds(k_fold_sum, kids, st.integers(1, 4)),
        ),
        max_leaves=6,
    )
    return draw(trees)


def _parts(d):
    """``d`` and every summand its ``split`` remembers, recursively."""
    yield d
    if d.split is not None:
        for part in d.split:
            yield from _parts(part)


@given(construction_trees())
@example(whitney_sum(eta(4), eta_plus_eps(4)))  # the complement rules that cup an Euler class
@example(whitney_sum(eta_plus_eps(4), eta(4)))
@settings(max_examples=200, deadline=None)
def test_constructions_pass_the_public_checks(d):
    # the constructions skip __post_init__; dataclasses.replace runs it on every field
    for part in _parts(d):
        checked = dataclasses.replace(part)
        assert checked == part
        assert checked.split == part.split
        assert checked.complement_euler == part.complement_euler


def _bad_fields():
    """(descriptor, updates, error, message) rows, each refused by ``__post_init__`` for one field."""
    base = cpn(2)
    x, mod2 = base.ring.generator("x"), base.mod2_ring
    two_x = cup(base.ring.scalar(2), x)  # degree 2, but 0 mod 2
    line = canonical_line_bundle(base)
    trivial = trivial_bundle(base, 1)
    plus = whitney_sum(line, trivial)
    return {
        "rank": (line, {"rank": 0}, ValueError, "rank must be >= 1"),
        "euler-ring": (line, {"euler": cpn(3).ring.generator("x")}, ValueError, "Euler class must live in the base ring"),
        "euler-degree": (line, {"euler": cup(x, x)}, ValueError, "Euler class degree 4 != rank 2"),
        "sw-ring": (line, {"sw_total": base.ring.one()}, ValueError, "mod-2 base ring"),
        "sw-degree-0": (line, {"sw_total": mod2.generator("x")}, ValueError, "degree-0 part equal to 1"),
        "trivial-negative": (line, {"trivial_summands": -1}, ValueError, "non-negative"),
        "sections-negative": (line, {"independent_sections": -1}, ValueError, "non-negative"),
        "counts-above-rank": (plus, {"independent_sections": 4}, ValueError, "cannot exceed the rank"),
        "sw-above-sections": (line, {"independent_sections": 1}, ValueError, "SW classes above degree 1"),
        "top-sw": (line, {"euler": two_x}, ValueError, "top SW class"),
        "section-euler": (
            line,
            {"euler": two_x, "sw_total": mod2.one(), "has_complex_structure": False, "independent_sections": 1},
            ValueError,
            "vanishing Euler class",
        ),
        "complex-odd-rank": (plus, {"has_complex_structure": True}, ValueError, "even rank"),
        "complement-no-trivial": (line, {"complement_euler": base.ring.zero()}, ValueError, "trivial line subbundle"),
        "complement-degree": (plus, {"complement_euler": cup(x, x)}, ValueError, "degree rank - 1"),
        # the counts are exact ints: a float or a bool is refused before any comparison
        "rank-float": (line, {"rank": 1.5}, TypeError, "rank must be an int, not float"),
        "rank-bool": (trivial, {"rank": True}, TypeError, "rank must be an int, not bool"),
        "trivial-float": (plus, {"trivial_summands": 1.0}, TypeError, "trivial_summands must be an int, not float"),
        "trivial-bool": (plus, {"trivial_summands": True}, TypeError, "trivial_summands must be an int, not bool"),
        "sections-float": (plus, {"independent_sections": 1.0}, TypeError, "independent_sections must be an int"),
        "sections-bool": (plus, {"independent_sections": True}, TypeError, "independent_sections must be an int"),
    }


BAD_FIELDS = _bad_fields()


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_public_constructor_refuses_each_bad_field(case):
    d, updates, error, message = BAD_FIELDS[case]
    fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
    with pytest.raises(error, match=message):
        BundleDescriptor(**{**fields, **updates})
    with pytest.raises(error, match=message):
        dataclasses.replace(d, **updates)


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

    def test_sections_count_trivial_summands_and_declared_sections(self):
        assert eta(2).sections == 0
        assert eta_plus_eps(2).sections == 1
        three = trivial_bundle(cpn(2), 3)
        assert dataclasses.replace(three, independent_sections=0).sections == 3
        assert dataclasses.replace(three, trivial_summands=1, independent_sections=2).sections == 2

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

    @pytest.mark.parametrize("rank", [1.5, 2.0, True])
    def test_trivial_bundle_rank_must_be_an_int(self, rank):
        # built without the public re-check, so its entry check is the only one
        with pytest.raises(TypeError, match="rank must be an int"):
            trivial_bundle(cpn(2), rank)


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

    def test_only_the_euler_class_is_stored(self):
        # everything else about the complement bundle is read off the parent
        assert [f.name for f in dataclasses.fields(DdotDescriptor)] == ["parent", "euler_ddot"]


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
