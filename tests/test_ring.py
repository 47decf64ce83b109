"""Tests for the truncated-ring arithmetic and the rank-two module."""

from __future__ import annotations

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramtc.bundle import cpn, ddot_of, family_bundle, point
from paramtc.ring import (
    Coefficients,
    CoefficientDomainError,
    Generator,
    HomogeneityError,
    LHElement,
    LHModule,
    RingDescriptor,
    RingElement,
    RingMismatchError,
    cup,
    height,
    lh_height,
    lh_multiply,
    lh_power,
    mod2_reduce,
    _height,
)
from references import ddot_euler_height, dense_product, dense_sum, power


def cpn_ring(n: int) -> RingDescriptor:
    return RingDescriptor((Generator("x", 2, n + 1),))


def lh_cpn(n: int) -> LHModule:
    """Rank-two module over CP^n with e = x and deg U = 2."""
    ring = cpn_ring(n)
    return LHModule(ring, ring.generator("x"), 2)


class TestCup:
    def test_square_of_generator(self):
        r = cpn_ring(2)  # Z[x]/(x^3)
        x = r.generator("x")
        assert cup(x, x) == r.element({2: 1})

    def test_truncation_kills_product(self):
        r = cpn_ring(2)
        x2 = r.element({2: 1})
        assert cup(x2, x2).is_zero

    def test_characteristic_two_square(self):
        r = cpn_ring(3).mod2_shadow()
        one_plus_x = r.one() + r.generator("x")
        assert cup(one_plus_x, one_plus_x) == r.one() + r.element({2: 1})

    def test_ring_mismatch_rejected(self):
        a = cpn_ring(2).generator("x")
        b = cpn_ring(3).generator("x")
        with pytest.raises(RingMismatchError):
            cup(a, b)


class TestRingsBuiltApart:
    """Rings and modules are compared by identity first, then by value."""

    def test_equal_rings_combine(self):
        r, s = cpn(3).ring, cpn(3).ring
        assert r is not s and r == s
        x, y = r.generator("x"), s.generator("x")
        assert cup(x, y) == r.element({2: 1})
        assert x + y == r.element({1: 2})
        assert (x - y).is_zero
        m, n = LHModule(r, x, 2), LHModule(s, y, 2)
        assert m is not n and m == n
        assert lh_multiply(m.u(), n.u()) == m.from_fiber(x)
        assert LHElement(m, y, s.one()) == n.element(x, r.one())

    @pytest.mark.parametrize(
        "other", [lambda: cpn(4).ring, lambda: cpn(3).ring.mod2_shadow()], ids=["CP4", "Z/2"]
    )
    def test_unequal_rings_refused(self, other):
        r, s = cpn(3).ring, other()
        x, y = r.generator("x"), s.generator("x")
        for op in (cup, operator.add, operator.sub):
            with pytest.raises(RingMismatchError):
                op(x, y)
        m, n = LHModule(r, x, 2), LHModule(s, y, 2)
        with pytest.raises(RingMismatchError):
            lh_multiply(m.u(), n.u())
        with pytest.raises(RingMismatchError):
            LHElement(m, y, r.zero())
        with pytest.raises(RingMismatchError):
            LHElement(m, r.zero(), y)

    def test_mod2_shadow_is_one_object(self):
        r = cpn(3).ring
        shadow = r.mod2_shadow()
        assert shadow is r.mod2_shadow() and shadow.mod2_shadow() is shadow
        assert shadow == cpn(3).ring.mod2_shadow() and repr(shadow) == "Z/2[x(deg 2)^4=0]"
        assert mod2_reduce(r.generator("x")).ring is shadow


class TestConstruction:
    """The descriptor form the benchmark builds, and the shapes the ring refuses."""

    @pytest.mark.parametrize("n", range(5))
    def test_generator_form_is_cpn(self, n):
        r = RingDescriptor((Generator("x", 2, n + 1),))
        assert r == cpn(n).ring
        assert r.generator("x") == cpn(n).ring.generator("x")

    @pytest.mark.parametrize(
        "generators",
        [
            (Generator("x", 2, 3), Generator("y", 2, 3)),
            (Generator("x", 1, 3),),
            (Generator("x", 4, 3),),
            (Generator("x", 2, 0),),
        ],
        ids=["two-generators", "degree-1", "degree-4", "truncation-0"],
    )
    def test_other_shapes_refused(self, generators):
        with pytest.raises(ValueError):
            RingDescriptor(generators)

    @pytest.mark.parametrize("coefficients", ["Z/2", "Z", 2, None], ids=["str-mod2", "str-z", "int", "none"])
    def test_coefficients_must_be_a_member(self, coefficients):
        with pytest.raises(TypeError, match="coefficients must be a Coefficients member"):
            RingDescriptor((Generator("x", 2, 3),), coefficients)

    def test_generators_must_be_a_tuple_of_generators(self):
        with pytest.raises(TypeError, match="generators must be a tuple, not list"):
            RingDescriptor([Generator("x", 2, 3)])
        with pytest.raises(TypeError, match="generators must hold Generator values"):
            RingDescriptor(("x",))

    def test_point_ring_is_truncated_at_one(self):
        r = RingDescriptor(())
        assert r == point().ring
        assert r.truncation == 1 and r.top_degree() == 0
        assert r.element({0: 3, 1: 5}) == r.scalar(3)


class TestTermTypes:
    """Terms enter keyed by an int power of x, with integer coefficients."""

    def test_float_coefficient_refused(self):
        with pytest.raises(TypeError, match="2.7"):
            cpn_ring(3).element({1: 2.7})

    def test_str_coefficient_refused(self):
        with pytest.raises(TypeError, match="'3'"):
            cpn_ring(3).element({1: "3"})

    def test_bool_key_refused(self):
        with pytest.raises(TypeError, match="True"):
            cpn_ring(3).element({True: 1})

    def test_negative_key_refused(self):
        with pytest.raises(ValueError, match="-1"):
            cpn_ring(3).element({-1: 1})

    def test_tuple_key_refused(self):
        with pytest.raises(TypeError, match=r"\(2,\).*must be an int"):
            cpn_ring(3).element({(2,): 1})

    def test_numpy_integer_coefficient_accepted(self):
        r = cpn_ring(3)
        assert r.element({1: np.int64(3)}) == r.generator("x") * 3
        assert type(r.element({1: np.int64(3)}).terms[1]) is int


class TestPower:
    def test_inside_truncation(self):
        r = cpn_ring(4)  # Z[x]/(x^5)
        assert power(r.generator("x"), 4) == r.element({4: 1})

    def test_at_truncation(self):
        r = cpn_ring(4)
        assert power(r.generator("x"), 5).is_zero

    def test_square_generator_overshoots(self):
        r = cpn_ring(5)  # Z[x]/(x^6)
        assert power(r.element({2: 1}), 3).is_zero

    def test_zeroth_power_is_one(self):
        r = cpn_ring(3)
        assert power(r.zero(), 0) == r.one()

    def test_negative_power_rejected(self):
        r = cpn_ring(3)
        with pytest.raises(ValueError):
            power(r.generator("x"), -1)
        with pytest.raises(ValueError, match="negative powers"):
            lh_power(lh_cpn(3).u(), -1)


class TestHeight:
    def test_zero_class(self):
        assert height(cpn_ring(3).zero()) == 0

    def test_generator_forced_by_truncation(self):
        assert height(cpn_ring(4).generator("x")) == 4

    def test_square_of_generator(self):
        # x^2 in Z[x]/(x^6): (x^2)^2 = x^4 != 0, (x^2)^3 = x^6 = 0
        r = cpn_ring(5)
        assert height(r.element({2: 1})) == 2

    def test_non_homogeneous_rejected(self):
        r = cpn_ring(3)
        with pytest.raises(HomogeneityError):
            height(r.one() + r.generator("x"))

    def test_degree_zero_rejected(self):
        with pytest.raises(HomogeneityError):
            height(cpn_ring(3).one())

    def test_scaled_class_over_integers(self):
        r = cpn_ring(3)
        assert height(r.generator("x") * 2) == 3


class TestMod2Reduce:
    def test_even_coefficient_dies(self):
        r = cpn_ring(3)
        assert mod2_reduce(r.generator("x") * 2).is_zero

    def test_odd_coefficients_survive(self):
        r = cpn_ring(3)
        a = r.element({1: 1, 2: 3})
        assert mod2_reduce(a) == r.mod2_shadow().element({1: 1, 2: 1})

    def test_sign_is_irrelevant(self):
        n = 4
        r = cpn_ring(n)
        assert mod2_reduce(r.element({n: -1})) == r.mod2_shadow().element({n: 1})

    def test_already_mod2_rejected(self):
        r = cpn_ring(3).mod2_shadow()
        with pytest.raises(CoefficientDomainError):
            mod2_reduce(r.generator("x"))

    def test_multiplicative(self):
        r = cpn_ring(5)
        a = r.element({1: 3, 2: -2})
        b = r.element({0: 1, 1: 5})
        assert mod2_reduce(cup(a, b)) == cup(mod2_reduce(a), mod2_reduce(b))


class TestLHMultiply:
    def test_u_squared(self):
        m = lh_cpn(4)
        x = m.ring.generator("x")
        assert lh_multiply(m.u(), m.u()) == m.from_fiber(x)

    def test_one_is_identity(self):
        m = lh_cpn(3)
        p = m.element(m.ring.element({1: 2}), m.ring.one())
        assert lh_multiply(m.one(), p) == p

    def test_x0_square_collapses(self):
        # x0 = U - x satisfies x0^2 = -x * x0 = (x^2, -x)
        m = lh_cpn(4)
        x = m.ring.generator("x")
        x0 = m.u() - m.from_base(x)
        sq = lh_multiply(x0, x0)
        assert sq == m.element(cup(x, x), -x)
        assert sq == m.from_base(-x) * x0

    def test_parameter_mismatch_rejected(self):
        r = cpn_ring(3)
        a = LHModule(r, r.generator("x"), 2).u()
        b = LHModule(r, r.zero(), 2).u()
        with pytest.raises(RingMismatchError):
            lh_multiply(a, b)


class TestLHModule:
    def test_parameters_checked_at_construction(self):
        r = cpn_ring(3)
        with pytest.raises(ValueError, match="degree"):
            LHModule(r, r.element({2: 1}), 2)  # deg e = 4 != deg U
        with pytest.raises(RingMismatchError):
            LHModule(r, cpn_ring(4).generator("x"), 2)
        with pytest.raises(ValueError, match="u_degree"):
            LHModule(r, r.zero(), 0)

    @pytest.mark.parametrize("u_degree", [2.5, 2.0, True, "2", None])
    def test_u_degree_must_be_an_int(self, u_degree):
        r = cpn_ring(3)
        with pytest.raises(TypeError, match="u_degree must be an int"):
            LHModule(r, r.zero(), u_degree)

    @pytest.mark.parametrize("euler_eta", [0, None, {1: 1}])
    def test_euler_eta_must_be_a_ring_element(self, euler_eta):
        with pytest.raises(TypeError, match="euler_eta must be a RingElement"):
            LHModule(cpn_ring(3), euler_eta, 2)


class TestLHElement:
    def test_fields_are_read_only(self):
        p = lh_cpn(3).u()
        with pytest.raises(AttributeError):
            p.base = p.fiber

    def test_equal_elements_built_apart_are_equal_and_hash_equal(self):
        m = lh_cpn(3)
        p = LHElement(lh_cpn(3), cpn_ring(3).generator("x"), cpn_ring(3).one())
        q = m.element(m.ring.generator("x"), m.ring.one())
        assert p is not q and p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_same_components_in_other_modules_differ(self):
        r = cpn_ring(3)
        a = LHModule(r, r.generator("x"), 2).u()
        b = LHModule(r, r.zero(), 2).u()
        assert (a.base, a.fiber) == (b.base, b.fiber)
        assert a != b

    def test_components_must_live_in_the_module_ring(self):
        with pytest.raises(RingMismatchError):
            LHElement(lh_cpn(3), cpn_ring(4).one(), cpn_ring(3).zero())


class TestLHHeight:
    def test_kernel_generator_over_cp3(self):
        # height of U - x over CP^3 is n + 1 = 4
        m = lh_cpn(3)
        x0 = m.u() - m.from_base(m.ring.generator("x"))
        assert lh_height(x0) == 4

    def test_u_with_vanishing_parameter(self):
        r = cpn_ring(3)
        m = LHModule(r, r.zero(), 2)
        assert lh_height(m.u()) == 1

    def test_complement_euler_class_over_cp2(self):
        # -x + 2U over CP^2: square is x^2, cube is (0, 2x^2), fourth is 0
        m = lh_cpn(2)
        e = m.u() * 2 - m.from_base(m.ring.generator("x"))
        assert lh_height(e) == 3

    def test_zero_element(self):
        assert lh_height(lh_cpn(2).zero()) == 0

    def test_non_homogeneous_rejected(self):
        m = lh_cpn(3)
        with pytest.raises(HomogeneityError):
            lh_height(m.one() + m.u())


class TestInductionFormula:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_x0_powers_closed_form(self, n):
        # (U - e)^m = (-1)^m e^m + (-1)^(m-1) e^(m-1) U for every m >= 1
        m = lh_cpn(n)
        e = m.ring.generator("x")
        x0 = m.u() - m.from_base(e)
        for k in range(1, n + 3):
            sign = 1 if k % 2 == 0 else -1
            expected = m.element(power(e, k) * sign, power(e, k - 1) * (-sign))
            assert lh_power(x0, k) == expected


# -- algebraic property suites ---------------------------------------------


# the rings the package builds: the point's and CP^0 ... CP^6, over Z and Z/2
RINGS = [RingDescriptor(())] + [cpn_ring(n) for n in range(7)]
RINGS += [r.mod2_shadow() for r in RINGS]


def _elements(ring: RingDescriptor, coeffs=(-2, -1, 0, 1, 2)):
    """Every element on 1, x and the top power of x with coefficients from ``coeffs``."""
    powers = sorted({0, 1, ring.truncation - 1})
    for cs in itertools.product(coeffs, repeat=len(powers)):
        yield ring.element(dict(zip(powers, cs)))


def test_exhaustive_commutativity_small_ring():
    for ring in RINGS:
        els = list(_elements(ring, coeffs=(-1, 0, 2)))
        for a, b in itertools.product(els, repeat=2):
            assert cup(a, b) == cup(b, a)


@st.composite
def ring_and_elements(draw, count=3):
    ring = draw(st.sampled_from(RINGS))
    elements = []
    for _ in range(count):
        powers = draw(st.lists(st.integers(0, ring.truncation), max_size=3, unique=True))
        elements.append(ring.element({k: draw(st.integers(-3, 3)) for k in powers}))
    return ring, elements


@given(ring_and_elements())
@settings(max_examples=200, deadline=None)
def test_ring_axioms(data):
    ring, (a, b, c) = data
    assert cup(a, b) == cup(b, a)
    assert cup(cup(a, b), c) == cup(a, cup(b, c))
    assert cup(a, b + c) == cup(a, b) + cup(a, c)
    assert cup(ring.one(), a) == a
    assert (a + b) - b == a


@given(ring_and_elements(count=2))
@settings(max_examples=150, deadline=None)
def test_mod2_reduction_is_a_homomorphism(data):
    ring, (a, b) = data
    if ring.coefficients is Coefficients.MOD2:
        return
    assert mod2_reduce(cup(a, b)) == cup(mod2_reduce(a), mod2_reduce(b))
    assert mod2_reduce(a + b) == mod2_reduce(a) + mod2_reduce(b)


@given(st.integers(1, 8), st.booleans(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_cup_and_sum_match_the_dense_reference(t, mod2, point_ring, data):
    ring = RingDescriptor(()) if t == 1 and point_ring else cpn_ring(t - 1)
    if mod2:
        ring = ring.mod2_shadow()
    coeffs = st.lists(st.integers(-5, 5), min_size=t, max_size=t)
    a, b = data.draw(coeffs), data.draw(coeffs)
    left, right = ring.element(dict(enumerate(a))), ring.element(dict(enumerate(b)))

    def dense(e):
        return [e.terms.get(k, 0) for k in range(t)]

    assert dense(cup(left, right)) == dense_product(a, b, mod2)
    assert dense(left + right) == dense_sum(a, b, mod2)


@st.composite
def sparse_operands(draw):
    """A ring over Z or Z/2, two sparse term dicts and an int.

    Powers lean to the top one, t - 1; coefficients include even ones; the
    second dict repeats or negates some terms of the first, so sums and
    differences cancel to zero.
    """
    t = draw(st.integers(1, 8))
    ring = cpn_ring(t - 1)
    if draw(st.booleans()):
        ring = ring.mod2_shadow()
    powers = st.one_of(st.just(t - 1), st.integers(0, t - 1))
    coeffs = st.integers(-6, 6)
    a = draw(st.dictionaries(powers, coeffs, max_size=4))
    b = draw(st.dictionaries(powers, coeffs, max_size=4))
    for k in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []:
        b[k] = draw(st.sampled_from((-1, 1))) * a[k]
    return ring, a, b, draw(st.integers(-4, 4))


@given(sparse_operands())
@settings(max_examples=300, deadline=None)
def test_arithmetic_builds_the_canonical_form(operands):
    ring, a, b, c = operands
    t, mod2 = ring.truncation, ring.coefficients is Coefficients.MOD2
    left, right = RingElement(ring, a), RingElement(ring, b)
    dense_a, dense_b = [a.get(k, 0) for k in range(t)], [b.get(k, 0) for k in range(t)]

    def scalar(s: int) -> list[int]:
        return [s] + [0] * (t - 1)

    cases = [
        (cup(left, right), dense_product(dense_a, dense_b, mod2)),
        (left + right, dense_sum(dense_a, dense_b, mod2)),
        (left - right, dense_sum(dense_a, [-x for x in dense_b], mod2)),
        (-left, dense_product(dense_a, scalar(-1), mod2)),
        (left * c, dense_product(dense_a, scalar(c), mod2)),
        (c * left, dense_product(dense_a, scalar(c), mod2)),
    ]
    for result, dense in cases:
        assert result == RingElement(ring, dict(enumerate(dense)))
    top = [c if k == t - 1 else 0 for k, c in enumerate(dense_a)]
    results = [result for result, _ in cases] + [left.homogeneous_part(2 * (t - 1))]
    assert results[-1] == RingElement(ring, dict(enumerate(dense_sum(top, [0] * t, mod2))))
    if not mod2:
        reduced = mod2_reduce(left)
        assert reduced.ring is ring.mod2_shadow()
        assert reduced == RingElement(reduced.ring, dict(enumerate(dense_sum(dense_a, [0] * t, True))))
        results.append(reduced)
    for result in results:
        # each result owns a dict built for it, never an operand's
        assert result.terms is not left.terms and result.terms is not right.terms
        assert all(result.terms.values())
        if result.ring.coefficients is Coefficients.MOD2:
            assert set(result.terms.values()) <= {1}


def test_canonical_takes_ownership_of_a_zero_free_integral_dict():
    ring = cpn_ring(3)
    terms = {0: 2, 2: -1}
    assert RingElement._canonical(ring, terms).terms is terms
    with_zero = {0: 2, 1: 0, 2: -1}
    element = RingElement._canonical(ring, with_zero)
    assert element.terms == {0: 2, 2: -1} and element == RingElement(ring, with_zero)
    # over Z/2 the dict is rebuilt, reduced, whatever it holds
    reduced = RingElement._canonical(ring.mod2_shadow(), terms)
    assert reduced.terms == {2: 1} and reduced.terms is not terms


@given(st.integers(1, 6), st.integers(1, 3), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_height_characterisation(n, exp, coeff):
    ring = cpn_ring(n)
    a = ring.element({exp: coeff})
    k = height(a)
    if a.is_zero:
        assert k == 0
    else:
        assert not power(a, k).is_zero
        assert power(a, k + 1).is_zero
        degree = a.homogeneous_degree()
        assert k <= ring.top_degree() // degree


@st.composite
def homogeneous_ring_elements(draw):
    """A homogeneous class c * x^k, k >= 1, zero included (k at the truncation, or c = 0)."""
    ring = draw(st.sampled_from(RINGS))
    return ring.element({draw(st.integers(1, ring.truncation)): draw(st.integers(-3, 3))})


@st.composite
def homogeneous_module_elements(draw):
    """A homogeneous class of positive degree over CP^n with e = x^j or e = 0 and deg U = 2j."""
    n, j = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    ring = cpn_ring(n)
    if draw(st.booleans()):
        ring = ring.mod2_shadow()
    e = ring.element({j: 1}) if draw(st.booleans()) else ring.zero()
    m = LHModule(ring, e, 2 * j)
    half = draw(st.integers(1, n + j + 1))  # total degree 2 * half
    fiber = ring.element({half - j: draw(st.integers(-3, 3))}) if half >= j else ring.zero()
    return m.element(ring.element({half: draw(st.integers(-3, 3))}), fiber)


def _repeated_product_count(a, multiply) -> int:
    count, acc = 0, a
    while not acc.is_zero:
        count, acc = count + 1, multiply(acc, a)
    return count


@pytest.mark.parametrize(
    "elements, power_, height_, multiply",
    [
        (homogeneous_ring_elements(), power, height, cup),
        (homogeneous_module_elements(), lh_power, lh_height, lh_multiply),
    ],
    ids=["ring", "module"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_height_and_power_characterise_each_other(elements, power_, height_, multiply, data):
    a = data.draw(elements)
    h = height_(a)
    assert not power_(a, h).is_zero
    assert power_(a, h + 1).is_zero
    assert h == _repeated_product_count(a, multiply)


# n = 2^m - 1, 2^m, 2^m + 1 for m = 1 ... 9: every bit length of a height up to 513
BIT_BOUNDARIES = sorted({2**m + j for m in range(1, 10) for j in (-1, 0, 1)})


class TestHeightAtBitBoundaries:
    """The logarithmic height against the linear reference, at every descent branch."""

    @pytest.mark.parametrize("n", BIT_BOUNDARIES)
    def test_ring_powers_of_x(self, n):
        # the closed form against the linear reference and the squaring loop, for c * x^k
        for ring in (cpn_ring(n), cpn_ring(n).mod2_shadow()):
            for k, c in itertools.product((1, 2, 3), range(-4, 5)):
                a = ring.element({k: c})
                h = 0 if a.is_zero else n // k
                assert height(a) == h == _repeated_product_count(a, cup) == _height(a, cup, ring.top_degree())

    @pytest.mark.parametrize("n", BIT_BOUNDARIES)
    def test_kernel_generator(self, n):
        m = lh_cpn(n)
        x0 = m.u() - m.from_base(m.ring.generator("x"))
        assert lh_height(x0) == n + 1 == _repeated_product_count(x0, lh_multiply)

    @pytest.mark.parametrize("n", BIT_BOUNDARIES)
    def test_complement_euler_class(self, n):
        d = ddot_of(family_bundle("eta-plus-eps", n))
        h = lh_height(d.euler_ddot)
        assert h == ddot_euler_height(d) == _repeated_product_count(d.euler_ddot, lh_multiply)

    def test_nilpotent_at_once(self):
        m = LHModule(cpn_ring(3), cpn_ring(3).zero(), 2)
        cases = [
            # x^2 lies above the top degree of CP^1: the cap stops the squaring, no product
            (cpn_ring(1).generator("x"), 1, height, cup, 2, 0),
            # with e = 0, U * U = 0 in degree 4 < 8: the zero check stops it after one product
            (m.u(), 1, lh_height, lh_multiply, 8, 1),
            (cpn_ring(3).mod2_shadow().element({1: 2}), 0, height, cup, 6, 0),
        ]
        for a, h, height_, multiply, top, products in cases:
            counted, calls = _counting(multiply)
            assert height_(a) == _height(a, counted, top) == h == _repeated_product_count(a, multiply)
            assert calls[0] == products


def _counting(multiply):
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return multiply(p, q)

    return counted, calls


GUARD_NS = sorted(set(range(1, 1025, 37)) | set(BIT_BOUNDARIES))


class TestHeightProductCount:
    """At most 2 * h.bit_length() products per height, counted, not timed."""

    def test_generator_over_cpn(self):
        for n in GUARD_NS:
            ring = cpn_ring(n)
            counted, calls = _counting(cup)
            h = _height(ring.generator("x"), counted, ring.top_degree())
            assert h == n
            assert calls[0] <= 2 * h.bit_length(), n

    def test_complement_euler_class(self):
        # -x + 2U in the module of the complement bundle of eta + eps over CP^n
        for n in GUARD_NS:
            p = ddot_of(family_bundle("eta-plus-eps", n)).euler_ddot
            counted, calls = _counting(lh_multiply)
            h = _height(p, counted, p.module.ring.top_degree() + p.module.u_degree)
            assert h == (n + 1 if n % 2 == 0 else n)
            assert calls[0] <= 2 * h.bit_length(), n


def test_lh_bilinearity_sample():
    m = lh_cpn(4)
    x = m.ring.generator("x")
    p = m.element(x, m.ring.one())
    q = m.element(m.ring.one() * 3, x * -1)
    r_ = m.element(power(x, 2), m.ring.one() * 2)
    assert lh_multiply(p, q + r_) == lh_multiply(p, q) + lh_multiply(p, r_)
    assert lh_multiply(p, q) == lh_multiply(q, p)
    assert lh_multiply(lh_multiply(p, q), r_) == lh_multiply(p, lh_multiply(q, r_))
