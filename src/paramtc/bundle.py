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

Descriptors are checked where they enter: ``BundleDescriptor(...)`` and
``dataclasses.replace`` run every check of ``__post_init__``.  The
constructions (:func:`canonical_line_bundle`, :func:`trivial_bundle` and
:func:`whitney_sum`, and through it :func:`k_fold_sums`) build from checked
inputs by construction, without the re-check, and each of them says why
every check holds for what it builds.

A base is its integral cohomology ring: a truncated polynomial ring over
Z, which is a free Z-module, so no base has torsion, and its dimension is
the ring's top degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import (
    Coefficients,
    Generator,
    LHElement,
    LHModule,
    RingDescriptor,
    RingElement,
    cup,
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
    "k_fold_sums",
    "ddot_of",
    "family_bundle",
    "family_bundles",
]

# the named bundle families over CP^n; the order is the CLI's choice order
FAMILIES = ("k-eta", "eta", "eta-plus-eps")


@dataclass(frozen=True)
class BaseSpace:
    """A CW base space, given by its integral cohomology ring.

    The ring is a truncated polynomial ring over Z, free as a Z-module, so
    the base has no torsion in any degree; ``dimension`` is the ring's top
    degree.
    """

    family: str
    ring: RingDescriptor

    def __post_init__(self) -> None:
        if self.ring.coefficients is not Coefficients.INTEGER:
            raise ValueError("base ring must have integer coefficients")

    @property
    def dimension(self) -> int:
        return self.ring.top_degree()

    @property
    def mod2_ring(self) -> RingDescriptor:
        """The ring's one mod-2 shadow, the ring that ``mod2_reduce`` lands in."""
        return self.ring.mod2_shadow()


def cpn(n: int) -> BaseSpace:
    """Complex projective n-space: Z[x]/(x^{n+1}) with deg x = 2, dimension 2n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return BaseSpace("CPn", RingDescriptor((Generator("x", 2, n + 1),)))


def point() -> BaseSpace:
    return BaseSpace("point", RingDescriptor(()))


@dataclass(frozen=True)
class BundleDescriptor:
    """A metric vector bundle, described by characteristic data and flags.

    The bundle is orientable exactly when ``euler`` is present.  s
    independent nowhere-zero sections, or s trivial summands, split off a
    trivial rank-s subbundle; ``sections`` is the larger of the two counts.
    s >= 1 forces a vanishing Euler class and the Stiefel-Whitney classes
    above degree rank - s vanish; the constructor refuses declarations that
    contradict these classes.
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
            if self.euler.ring is not self.base.ring and self.euler.ring != self.base.ring:
                raise ValueError("Euler class must live in the base ring")
            d = self.euler.homogeneous_degree()
            if d is not None and d != self.rank:
                raise ValueError(f"Euler class degree {d} != rank {self.rank}")
        mod2_ring = self.base.mod2_ring
        if self.sw_total.ring is not mod2_ring and self.sw_total.ring != mod2_ring:
            raise ValueError("total SW class must live in the mod-2 base ring")
        if self.sw_total.homogeneous_part(0) != mod2_ring.one():
            raise ValueError("total SW class must have degree-0 part equal to 1")
        if self.trivial_summands < 0 or self.independent_sections < 0:
            raise ValueError("structure counts must be non-negative")
        sections = self.sections
        if sections > self.rank:
            raise ValueError("structure counts cannot exceed the rank")
        if any(d > self.rank - sections for d in self.sw_total.degrees()):
            raise ValueError(
                f"SW classes above degree {self.rank - sections} must vanish "
                f"(rank {self.rank}, {sections} sections)"
            )
        if self.orientable:
            if mod2_reduce(self.euler) != self.top_sw:
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

    @classmethod
    def _built(
        cls,
        base: BaseSpace,
        rank: int,
        euler: RingElement | None,
        sw_total: RingElement,
        has_complex_structure: bool = False,
        trivial_summands: int = 0,
        independent_sections: int = 0,
        complement_euler: RingElement | None = None,
        split: "tuple[BundleDescriptor, BundleDescriptor] | None" = None,
    ) -> "BundleDescriptor":
        """The descriptor of these fields, set without running ``__post_init__``.

        Only the constructions of this module build here, from checked
        inputs, and each says why the checks hold for what it passes.  Data
        from outside goes through ``BundleDescriptor(...)``.
        """
        self = object.__new__(cls)
        vars(self).update(
            base=base,
            rank=rank,
            euler=euler,
            sw_total=sw_total,
            has_complex_structure=has_complex_structure,
            trivial_summands=trivial_summands,
            independent_sections=independent_sections,
            complement_euler=complement_euler,
            split=split,
        )
        return self

    @property
    def orientable(self) -> bool:
        return self.euler is not None

    @property
    def sections(self) -> int:
        """Independent nowhere-zero sections, declared or from trivial summands."""
        return max(self.trivial_summands, self.independent_sections)

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

    Built without the public re-check, which holds by construction: x lives
    in the base ring with degree 2 = rank (or is zero over CP^0); w = 1 + x
    lives in the mod-2 ring with degree-0 part 1 and nothing above degree 2;
    x reduces mod 2 to w_2 = x; there are no sections and no complement;
    and the rank is even, as the complex structure needs.
    """
    if base.family != "CPn":
        raise ValueError("the canonical line bundle is defined over CPn bases")
    # over CP^0 the generator is truncated away, giving the zero class
    x = base.ring.generator("x")
    sw = base.mod2_ring.one() + base.mod2_ring.generator("x")
    return BundleDescriptor._built(base, 2, x, sw, has_complex_structure=True)


def trivial_bundle(base: BaseSpace, rank: int) -> BundleDescriptor:
    """The trivial bundle of the given rank: rank trivial summands, classes 0 and 1.

    Built without the public re-check, which holds by construction once
    rank >= 1: the Euler class is zero and w = 1, so every degree condition
    holds, w_rank = 0 is the reduction of 0, and rank sections are allowed
    by the zero Euler class and w = 1.  The complement, present from rank 2,
    has a trivial summand beside it and the zero class.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    zero = base.ring.zero()
    return BundleDescriptor._built(
        base,
        rank,
        zero,
        base.mod2_ring.one(),
        trivial_summands=rank,
        independent_sections=rank,
        complement_euler=zero if rank >= 2 else None,
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

    Built without the public re-check, which holds by construction for two
    checked summands over one base:

    - the Euler degree adds under cup, so e(a)e(b) has degree rank(a) + rank(b)
      or is zero, in the base ring;
    - w(a)w(b) lives in the mod-2 ring with degree-0 part 1·1 = 1;
    - the counts add, so the sum's sections, the larger count, are at most
      s(a) + s(b), and its SW degrees at most (rank(a) - s(a)) + (rank(b) - s(b));
    - the top SW class of the sum is w_top(a)w_top(b), the reduction of e(a)e(b);
    - a section of the sum means s(a) >= 1 or s(b) >= 1, whose Euler class,
      and so the product, vanishes;
    - two complex structures have even ranks, and so does their sum;
    - a complement comes from a summand with a trivial summand, and has
      degree rank(a) + rank(b) - 1 or is zero (see :func:`_sum_complement`).
    """
    if a.base is not b.base and a.base != b.base:
        raise ValueError("Whitney sum requires a common base space")
    return BundleDescriptor._built(
        a.base,
        a.rank + b.rank,
        cup(a.euler, b.euler) if a.orientable and b.orientable else None,
        cup(a.sw_total, b.sw_total),
        has_complex_structure=a.has_complex_structure and b.has_complex_structure,
        trivial_summands=a.trivial_summands + b.trivial_summands,
        independent_sections=a.independent_sections + b.independent_sections,
        complement_euler=_sum_complement(a, b),
        split=(a, b),
    )


def k_fold_sums(a: BundleDescriptor, k_max: int) -> list[BundleDescriptor]:
    """The k-fold sums of ``a`` for k = 1 ... k_max: a, a+a, (a+a)+a, ...

    Each is one :func:`whitney_sum` of the one before and ``a``, so the
    whole chain costs k_max - 1 sums and each ``split`` is left-nested.
    """
    if k_max < 1:
        raise ValueError("k must be >= 1")
    chain = [a]
    for _ in range(k_max - 1):
        chain.append(whitney_sum(chain[-1], a))
    return chain


def k_fold_sum(a: BundleDescriptor, k: int) -> BundleDescriptor:
    """Whitney sum of k copies of ``a``: the last of :func:`k_fold_sums`, k - 1 sums."""
    return k_fold_sums(a, k)[-1]


def family_bundles(family: str, n: int, k_max: int = 1) -> list[BundleDescriptor]:
    """The bundles a family name denotes over CP^n, for k = 1 ... k_max.

    ``k-eta`` is the k-fold sum of the canonical line bundle eta, its chain
    built once by :func:`k_fold_sums`; ``eta`` is eta itself (the k = 1
    member of ``k-eta``) and ``eta-plus-eps`` is eta plus a trivial line.
    ``k_max`` above 1 only applies to ``k-eta``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if k_max != 1 and family != "k-eta":
        raise ValueError(f"k applies only to the k-eta family, not {family}")
    eta = canonical_line_bundle(cpn(n))
    if family == "eta-plus-eps":
        return [whitney_sum(eta, trivial_bundle(eta.base, 1))]
    return k_fold_sums(eta, k_max)


def family_bundle(family: str, n: int, k: int = 1) -> BundleDescriptor:
    """The bundle a family name denotes over CP^n: member k of :func:`family_bundles`."""
    return family_bundles(family, n, k)[-1]


@dataclass(frozen=True)
class DdotDescriptor:
    """The bundle of unit vectors orthogonal to a given unit vector.

    Over the sphere bundle of ``parent``, the fiber over a unit vector ``e``
    is the sphere of unit vectors perpendicular to ``e`` in the same fiber.
    ``euler_ddot`` is its Euler class expressed in the rank-two module of
    the sphere bundle, available exactly in the modelled case (trivial-line
    splitting with odd total rank); every other fact about the bundle is
    read off ``parent``.
    """

    parent: BundleDescriptor
    euler_ddot: LHElement | None

    @property
    def secat_ddot_hint(self) -> int | None:
        """Known secat: a complex structure on the parent sections it (multiply by i)."""
        return 0 if self.parent.has_complex_structure else None


def ddot_of(parent: BundleDescriptor) -> DdotDescriptor:
    """Build the orthogonal-complement sphere bundle descriptor.

    When the parent splits as (orientable complement) + (trivial line) and
    has odd rank q, the fiber spheres have Euler characteristic 2 and the
    Euler class is exactly ``-e + 2U`` in the rank-two module with
    parameter ``e`` = complement Euler class, ``deg U = q - 1``.  In all
    other cases no symbolic model is available.
    """
    if parent.rank < 2:
        raise ValueError("rank must be >= 2")
    euler_ddot = None
    if parent.rank % 2 == 1 and parent.complement_euler is not None:
        e = parent.complement_euler
        module = LHModule(parent.base.ring, e, parent.rank - 1)
        euler_ddot = module.element(-e, parent.base.ring.scalar(2))
    return DdotDescriptor(parent=parent, euler_ddot=euler_ddot)
