"""Vector-bundle descriptors and the constructions the bound engine consumes.

A :class:`BundleDescriptor` records what is known about a metric vector
bundle: base space, rank, Euler class (present exactly when the bundle is
orientable), total Stiefel-Whitney class and a handful of declared
structural facts (complex structure, trivial summands, independent
nowhere-zero sections).  Declared sections are checked against the
characteristic classes they force to vanish; beyond that the structural
flags are not verified -- deciding them is a hard topology problem this
package does not attempt.  Descriptors are immutable and constructions
(:func:`whitney_sum`, :func:`k_fold_sum`, :func:`ddot_of`) are pure.

The base ring is assumed to be a faithful free model of the integral
cohomology; torsion is only consulted through the declared per-degree
predicate, which all built-in bases answer with "torsion free".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .ring import (
    Coefficients,
    Generator,
    LHElement,
    LHModule,
    RingDescriptor,
    RingElement,
    cup,
    height,
    mod2_reduce,
)

__all__ = [
    "FAMILIES",
    "BaseSpace",
    "BundleDescriptor",
    "DdotDescriptor",
    "cpn",
    "point",
    "canonical_line_bundle",
    "trivial_bundle",
    "whitney_sum",
    "k_fold_sum",
    "ddot_of",
    "ddot_euler_height",
    "family_bundle",
]

# the named bundle families over CP^n; the order is the CLI's choice order
FAMILIES = ("k-eta", "eta", "eta-plus-eps")


def _always_torsion_free(degree: int) -> bool:
    return True


@dataclass(frozen=True)
class BaseSpace:
    """A CW base space with a free integral cohomology model.

    ``dimension`` is the CW dimension; it must be at least the top nonzero
    degree of the ring.  ``torsion_free`` answers, per degree, whether the
    integral cohomology has no 2-torsion there; custom bases with torsion
    must declare it.
    """

    family: str
    ring: RingDescriptor
    dimension: int
    torsion_free: Callable[[int], bool] = field(default=_always_torsion_free, compare=False)

    def __post_init__(self) -> None:
        if self.ring.coefficients is not Coefficients.INTEGER:
            raise ValueError("base ring must have integer coefficients")
        if self.dimension < 0:
            raise ValueError("dimension must be non-negative")
        if self.ring.top_degree() > self.dimension:
            raise ValueError(
                f"ring has classes up to degree {self.ring.top_degree()} "
                f"but the declared dimension is {self.dimension}"
            )

    @property
    def mod2_ring(self) -> RingDescriptor:
        return self.ring.mod2_shadow()


def cpn(n: int) -> BaseSpace:
    """Complex projective n-space: Z[x]/(x^{n+1}) with deg x = 2, dimension 2n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ring = RingDescriptor((Generator("x", 2, n + 1),))
    return BaseSpace("CPn", ring, 2 * n)


def point() -> BaseSpace:
    return BaseSpace("point", RingDescriptor(()), 0)


@dataclass(frozen=True)
class BundleDescriptor:
    """A metric vector bundle, described by characteristic data and flags.

    The bundle is orientable exactly when ``euler`` is present.  s
    independent nowhere-zero sections, or s trivial summands, split off a
    trivial rank-s subbundle, so s >= 1 forces a vanishing Euler class and
    the Stiefel-Whitney classes above degree rank - s vanish; the
    constructor refuses declarations that contradict these classes.
    ``complement_euler``, when present, declares a splitting off a trivial
    line subbundle with an orientable complement of the stated Euler class;
    ``split`` remembers the two summands of a Whitney sum.  Both are
    bookkeeping for the bound rules and do not take part in descriptor
    equality.
    """

    base: BaseSpace
    rank: int
    euler: RingElement | None
    sw_total: RingElement
    has_complex_structure: bool = False
    trivial_summands: int = 0
    independent_sections: int = 0
    complement_euler: RingElement | None = field(default=None, compare=False)
    split: "tuple[BundleDescriptor, BundleDescriptor] | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.euler is not None:
            if self.euler.ring != self.base.ring:
                raise ValueError("Euler class must live in the base ring")
            d = self.euler.homogeneous_degree()
            if d is not None and d != self.rank:
                raise ValueError(f"Euler class degree {d} != rank {self.rank}")
        if self.sw_total.ring != self.base.mod2_ring:
            raise ValueError("total SW class must live in the mod-2 base ring")
        if self.sw_total.homogeneous_part(0) != self.base.mod2_ring.one():
            raise ValueError("total SW class must have degree-0 part equal to 1")
        if self.trivial_summands < 0 or self.independent_sections < 0:
            raise ValueError("structure counts must be non-negative")
        sections = max(self.trivial_summands, self.independent_sections)
        if sections > self.rank:
            raise ValueError("structure counts cannot exceed the rank")
        if any(d > self.rank - sections for d in self.sw_total.degrees()):
            raise ValueError(
                f"SW classes above degree {self.rank - sections} must vanish "
                f"(rank {self.rank}, {sections} sections)"
            )
        if self.orientable:
            if mod2_reduce(self.euler) != self.sw_total.homogeneous_part(self.rank):
                raise ValueError("mod-2 reduction of the Euler class must be the top SW class")
            if sections >= 1 and not self.euler.is_zero:
                raise ValueError("a nowhere-zero section forces a vanishing Euler class")
        if self.has_complex_structure and self.rank % 2:
            raise ValueError("a complex structure requires even rank")
        if self.complement_euler is not None:
            if self.trivial_summands < 1:
                raise ValueError("a declared complement requires a trivial line subbundle")
            d = self.complement_euler.homogeneous_degree()
            if d is not None and d != self.rank - 1:
                raise ValueError("complement Euler class must have degree rank - 1")

    @property
    def orientable(self) -> bool:
        return self.euler is not None

    @property
    def top_sw(self) -> RingElement:
        return self.sw_total.homogeneous_part(self.rank)

    @property
    def is_trivial_line(self) -> bool:
        return self.rank == 1 and self.trivial_summands >= 1


def canonical_line_bundle(base: BaseSpace) -> BundleDescriptor:
    """The tautological complex line bundle, viewed as a rank-2 real bundle.

    Its Euler class generates degree 2; only defined over the projective
    space family (the generic case carries no canonical class).
    """
    if base.family != "CPn":
        raise ValueError("the canonical line bundle is defined over CPn bases")
    # over CP^0 the generator is truncated away, giving the zero class
    x = base.ring.generator("x")
    sw = base.mod2_ring.one() + base.mod2_ring.generator("x")
    return BundleDescriptor(
        base=base,
        rank=2,
        euler=x,
        sw_total=sw,
        has_complex_structure=True,
    )


def trivial_bundle(base: BaseSpace, rank: int) -> BundleDescriptor:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return BundleDescriptor(
        base=base,
        rank=rank,
        euler=base.ring.zero(),
        sw_total=base.mod2_ring.one(),
        trivial_summands=rank,
        independent_sections=rank,
        complement_euler=base.ring.zero() if rank >= 2 else None,
    )


def _sum_complement(a: BundleDescriptor, b: BundleDescriptor) -> RingElement | None:
    """Euler class of an orientable complement of a trivial line in ``a + b``.

    All descriptors carrying a complement already have a trivial summand and
    hence a vanishing Euler class, so the rule order below cannot produce
    conflicting answers.
    """
    if b.is_trivial_line and a.orientable:
        return a.euler
    if a.is_trivial_line and b.orientable:
        return b.euler
    if a.orientable and b.complement_euler is not None:
        return cup(a.euler, b.complement_euler)
    if b.orientable and a.complement_euler is not None:
        return cup(b.euler, a.complement_euler)
    return None


def whitney_sum(a: BundleDescriptor, b: BundleDescriptor) -> BundleDescriptor:
    """Fiberwise direct sum: ranks add, Euler and total SW classes multiply.

    Orientability is only propagated when both summands are declared
    orientable (two non-orientable summands may have an orientable sum, but
    no Euler class is available for it at the descriptor level).
    """
    if a.base != b.base:
        raise ValueError("Whitney sum requires a common base space")
    return BundleDescriptor(
        base=a.base,
        rank=a.rank + b.rank,
        euler=cup(a.euler, b.euler) if a.orientable and b.orientable else None,
        sw_total=cup(a.sw_total, b.sw_total),
        has_complex_structure=a.has_complex_structure and b.has_complex_structure,
        trivial_summands=a.trivial_summands + b.trivial_summands,
        independent_sections=a.independent_sections + b.independent_sections,
        complement_euler=_sum_complement(a, b),
        split=(a, b),
    )


def k_fold_sum(a: BundleDescriptor, k: int) -> BundleDescriptor:
    """Whitney sum of k copies of ``a``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = a
    for _ in range(k - 1):
        out = whitney_sum(out, a)
    return out


def family_bundle(family: str, n: int, k: int = 1) -> BundleDescriptor:
    """The bundle a family name denotes over CP^n.

    ``k-eta`` is the k-fold sum of the canonical line bundle eta, ``eta`` is
    eta itself (the k = 1 member of ``k-eta``) and ``eta-plus-eps`` is eta
    plus a trivial line.  ``k`` only applies to ``k-eta``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if k != 1 and family != "k-eta":
        raise ValueError(f"k applies only to the k-eta family, not {family}")
    eta = canonical_line_bundle(cpn(n))
    if family == "eta-plus-eps":
        return whitney_sum(eta, trivial_bundle(eta.base, 1))
    return k_fold_sum(eta, k)


@dataclass(frozen=True)
class DdotDescriptor:
    """The bundle of unit vectors orthogonal to a given unit vector.

    Over the sphere bundle of ``parent``, the fiber over a unit vector ``e``
    is the sphere of unit vectors perpendicular to ``e`` in the same fiber.
    ``euler_ddot`` is its Euler class expressed in the rank-two module of
    the sphere bundle, available exactly in the modelled case (trivial-line
    splitting with odd total rank); ``secat_ddot_hint`` is a known value of
    its sectional category, when structure forces one.
    """

    parent: BundleDescriptor
    euler_ddot: LHElement | None
    secat_ddot_hint: int | None


def ddot_of(parent: BundleDescriptor) -> DdotDescriptor:
    """Build the orthogonal-complement sphere bundle descriptor.

    When the parent splits as (orientable complement) + (trivial line) and
    has odd rank q, the fiber spheres have Euler characteristic 2 and the
    Euler class is exactly ``-e + 2U`` in the rank-two module with
    parameter ``e`` = complement Euler class, ``deg U = q - 1``.  A complex
    structure on the parent yields a global section (multiply by i), hence
    sectional category 0.  In all other cases no symbolic model is
    available.
    """
    if parent.rank < 2:
        raise ValueError("rank must be >= 2")
    hint = 0 if parent.has_complex_structure else None
    euler_ddot = None
    if parent.rank % 2 == 1 and parent.complement_euler is not None:
        e = parent.complement_euler
        module = LHModule(parent.base.ring, e, parent.rank - 1)
        euler_ddot = module.element(-e, parent.base.ring.scalar(2))
    return DdotDescriptor(parent=parent, euler_ddot=euler_ddot, secat_ddot_hint=hint)


def ddot_euler_height(d: DdotDescriptor) -> int:
    """Height of the complement-bundle Euler class, by the parity rule.

    With h the height of the base Euler class e: even powers collapse to
    ``e^{2m}`` pulled back, odd powers carry a ``2 e^{2m} U`` term, so the
    height is h + 1 when h is even and the base has no 2-torsion in degree
    (q-1)h, and h otherwise.  Always equals the direct power computation
    ``lh_height(euler_ddot)`` on torsion-free bases.
    """
    if d.euler_ddot is None:
        raise ValueError("no symbolic Euler class is available for this bundle")
    h = height(d.euler_ddot.module.euler_eta)
    q = d.parent.rank
    if h % 2 == 0 and d.parent.base.torsion_free((q - 1) * h):
        return h + 1
    return h
