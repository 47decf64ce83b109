"""Exact arithmetic in truncated graded cohomology rings.

Elements live in quotients ``Z[g_1,...,g_k]/(g_i^{t_i})`` or the mod-2
analogue, with each generator carrying a cohomological degree.  Over the
integers all generator degrees must be even, so graded commutativity is
honest commutativity and no Koszul signs arise; odd-degree generators are
allowed over Z/2 where the signs vanish anyway.  This covers every ring the
rest of the package computes in, most importantly

    H*(CP^n) = Z[x]/(x^{n+1}),  deg x = 2,

and its mod-2 shadow.

On top of the ring sits a rank-two free module with basis ``{1, U}``
(:class:`LHModule`), modelling the cohomology of a unit sphere bundle that
admits a section: every class is uniquely ``a + b*U`` with ``a, b`` pulled
back from the base, and multiplication is closed by the single relation

    U * U = e * U,

where ``e`` is the Euler class of the bundle of vectors orthogonal to the
section.  The module owns ``e`` and ``deg U`` and checks them once; each
element (:class:`LHElement`) belongs to one module.  Powers and heights run
one loop each, shared by ring and module.  A height costs O(log h) products:
nilpotence is monotone (``a^k == 0`` implies ``a^(k+1) == 0``) and degrees
are capped by the top degree, so repeated squaring and a greedy descent
find it as exponentiation by squaring finds a power.  All values are
immutable; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

__all__ = [
    "Coefficients",
    "Generator",
    "RingDescriptor",
    "RingElement",
    "LHElement",
    "LHModule",
    "cup",
    "power",
    "height",
    "mod2_reduce",
    "lh_multiply",
    "lh_power",
    "lh_height",
    "RingMismatchError",
    "HomogeneityError",
    "CoefficientDomainError",
]


class Coefficients(Enum):
    """Coefficient domain: arbitrary-precision integers or the two-element field."""

    INTEGER = "Z"
    MOD2 = "Z/2"


class RingMismatchError(ValueError):
    """Operands belong to different ring descriptors or module parameters."""


class HomogeneityError(ValueError):
    """A homogeneous element (of positive degree) was required."""


class CoefficientDomainError(ValueError):
    """The operation is not defined over this coefficient domain."""


@dataclass(frozen=True)
class Generator:
    """A polynomial generator with a degree and a nilpotency order.

    ``truncation`` is the smallest power that vanishes: ``g^truncation == 0``.
    """

    name: str
    degree: int
    truncation: int


@dataclass(frozen=True)
class RingDescriptor:
    """A truncated graded-commutative polynomial ring.

    Over :data:`Coefficients.INTEGER` every generator degree must be even;
    odd degrees are only permitted over :data:`Coefficients.MOD2`.
    """

    generators: tuple[Generator, ...]
    coefficients: Coefficients = Coefficients.INTEGER

    def __post_init__(self) -> None:
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for g in self.generators:
            if g.degree < 1:
                raise ValueError(f"generator {g.name!r} must have degree >= 1")
            if g.truncation < 1:
                raise ValueError(f"generator {g.name!r} must have truncation >= 1")
            if self.coefficients is Coefficients.INTEGER and g.degree % 2:
                raise ValueError(
                    f"generator {g.name!r} has odd degree {g.degree}; odd degrees "
                    "require mod-2 coefficients"
                )

    # -- element factories -------------------------------------------------

    def element(self, terms: Mapping[tuple[int, ...], int]) -> "RingElement":
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def scalar(self, c: int) -> "RingElement":
        return RingElement(self, {(0,) * len(self.generators): c})

    def generator(self, name: str) -> "RingElement":
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return RingElement(self, {exps: 1})

    def index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise KeyError(f"no generator named {name!r}")

    def mod2_shadow(self) -> "RingDescriptor":
        """Same generators and truncations, coefficients reduced to Z/2."""
        return RingDescriptor(self.generators, Coefficients.MOD2)

    def top_degree(self) -> int:
        """Largest degree in which a nonzero element can live."""
        return sum(g.degree * (g.truncation - 1) for g in self.generators)

    def term_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}(deg {g.degree})^{g.truncation}=0" for g in self.generators)
        return f"{self.coefficients.value}[{gens}]"


class RingElement:
    """A sparse element of a :class:`RingDescriptor`.

    Stored canonically: no zero coefficients, no exponent at or above its
    generator's truncation, mod-2 coefficients normalised to 1.  Equality is
    structural equality of the canonical form.
    """

    # hand-written, unlike LHElement: __init__ canonicalises ``terms`` before
    # storing them, which a dataclass could only do by storing them twice
    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Mapping[tuple[int, ...], int]):
        ngen = len(ring.generators)
        canon: dict[tuple[int, ...], int] = {}
        mod2 = ring.coefficients is Coefficients.MOD2
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != ngen:
                raise ValueError(f"exponent vector {exps} has wrong length (need {ngen})")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e >= g.truncation for e, g in zip(exps, ring.generators)):
                continue  # the quotient map kills this term
            c = int(coeff) % 2 if mod2 else int(coeff)
            if c:
                canon[exps] = canon.get(exps, 0) + c
                if mod2:
                    canon[exps] %= 2
                if not canon[exps]:
                    del canon[exps]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("RingElement is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {self.ring.term_degree(e) for e in self.terms}

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; ``None`` for the zero element."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, degree: int) -> "RingElement":
        return RingElement(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring.term_degree(e) == degree},
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"mismatched rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RingElement(self.ring, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ring, {e: c * other for e, c in self.terms.items()})
        if isinstance(other, RingElement):
            return cup(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def _sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(sorted(self.terms.items(), key=lambda t: (self.ring.term_degree(t[0]), t[0])))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            mono = "*".join(
                g.name if e == 1 else f"{g.name}^{e}"
                for e, g in zip(exps, self.ring.generators)
                if e
            )
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            elif coeff == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{coeff}*{mono}")
        out = " + ".join(pieces).replace("+ -", "- ")
        return out


def cup(a: RingElement, b: RingElement) -> RingElement:
    """Product of two classes, with truncation relations applied."""
    a._check_ring(b)
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return RingElement(a.ring, out)


def _power(one, a, k: int, multiply):
    """``a^k`` as ``k`` products ``multiply(acc, a)``, starting from ``one``."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    result = one
    for _ in range(k):
        result = multiply(result, a)
    return result


def _height(a, multiply, top: int) -> int:
    """Largest k with ``a^k != 0``, by squaring and a greedy descent.

    The one height loop, shared by :func:`height` and :func:`lh_height`.
    ``top`` is the largest degree of a nonzero element, so ``a^k == 0``
    once ``k * deg a > top``.  Nilpotence is monotone (``a^k == 0`` implies
    ``a^(k+1) == 0``), so the powers that survive are exactly ``a^1 ... a^h``
    and ``h`` can be found bit by bit: square ``a, a^2, a^4, ...`` while the
    square survives, which fixes the top bit of ``h``, then descend through
    the lower bits, keeping a stored square in the accumulator whenever the
    product survives.  This costs at most ``2 * h.bit_length()`` products
    instead of ``h`` (exponentiation by squaring, Knuth, TAOCP vol. 2,
    section 4.6.3).  Both the degree cap and the zero check are needed:
    squares can die below ``top``, over Z/2 or in two-generator rings.
    """
    if a.is_zero:
        return 0
    d = a.homogeneous_degree()
    if d is None or d <= 0:
        raise HomogeneityError("height requires positive degree")
    squares = [a]  # squares[i] == a^(2^i), all nonzero
    while 2 ** len(squares) * d <= top:
        square = multiply(squares[-1], squares[-1])
        if square.is_zero:
            break
        squares.append(square)
    k, acc = 2 ** (len(squares) - 1), squares.pop()
    for i in reversed(range(len(squares))):
        if (k + 2**i) * d <= top:
            product = multiply(acc, squares[i])
            if not product.is_zero:
                k, acc = k + 2**i, product
    return k


def power(a: RingElement, k: int) -> RingElement:
    """k-th cup power; ``a^0`` is the unit."""
    return _power(a.ring.one(), a, k, cup)


def height(a: RingElement) -> int:
    """Largest k with ``a^k != 0``; zero for the zero class.

    Defined only for homogeneous classes of positive degree (or zero); well
    defined because the ring is truncated, so powers eventually overshoot
    the top degree.  Costs O(log h) products: repeated squares up to the top
    degree, then a greedy descent (see :func:`_height`).
    """
    return _height(a, cup, a.ring.top_degree())


def mod2_reduce(a: RingElement) -> RingElement:
    """Reduce an integral class mod 2; a ring homomorphism onto the shadow ring."""
    if a.ring.coefficients is not Coefficients.INTEGER:
        raise CoefficientDomainError("mod-2 reduction expects integer coefficients")
    return RingElement(a.ring.mod2_shadow(), dict(a.terms))


@dataclass(frozen=True, slots=True)
class LHElement:
    """A class ``base + fiber*U`` of one rank-two module.

    ``module`` (an :class:`LHModule`) fixes the multiplication and the
    degree of ``U``; ``base`` and ``fiber`` live in its ring.  The
    representation in the basis ``{1, U}`` is unique, so equality and the
    hash are componentwise.
    """

    module: LHModule
    base: RingElement
    fiber: RingElement

    def __post_init__(self) -> None:
        if self.base.ring != self.module.ring or self.fiber.ring != self.module.ring:
            raise RingMismatchError("base and fiber must live in the module's ring")

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero and self.fiber.is_zero

    def homogeneous_degree(self) -> int | None:
        """Total degree if homogeneous (``deg base == deg fiber + deg U``)."""
        db = self.base.homogeneous_degree()
        df = self.fiber.homogeneous_degree()
        if db is None and df is None:
            return None
        if df is None:
            return db
        if db is None:
            return df + self.module.u_degree
        if db != df + self.module.u_degree:
            raise HomogeneityError(
                f"mixed degrees: base {db}, fiber {df} + U-degree {self.module.u_degree}"
            )
        return db

    def _check_compatible(self, other: "LHElement") -> None:
        if self.module != other.module:
            raise RingMismatchError("operands live in different rank-two modules")

    def __add__(self, other: "LHElement") -> "LHElement":
        self._check_compatible(other)
        return LHElement(self.module, self.base + other.base, self.fiber + other.fiber)

    def __sub__(self, other: "LHElement") -> "LHElement":
        return self + (-other)

    def __neg__(self) -> "LHElement":
        return LHElement(self.module, -self.base, -self.fiber)

    def __mul__(self, other):
        if isinstance(other, int):
            return LHElement(self.module, self.base * other, self.fiber * other)
        if isinstance(other, LHElement):
            return lh_multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"({self.base!r}) + ({self.fiber!r})*U"


def lh_multiply(p: LHElement, q: LHElement) -> LHElement:
    """Product in the rank-two module:

    ``(a + b*U)(a' + b'*U) = a*a' + (a*b' + a'*b + b*b'*e)*U``.
    """
    p._check_compatible(q)
    e = p.module.euler_eta
    base = cup(p.base, q.base)
    fiber = cup(p.base, q.fiber) + cup(q.base, p.fiber) + cup(cup(p.fiber, q.fiber), e)
    return LHElement(p.module, base, fiber)


def lh_power(p: LHElement, k: int) -> LHElement:
    """k-th power in the module; ``p^0`` is the unit."""
    return _power(p.module.one(), p, k, lh_multiply)


def lh_height(p: LHElement) -> int:
    """Largest k with ``p^k != 0``; zero for the zero element."""
    return _height(p, lh_multiply, p.module.ring.top_degree() + p.module.u_degree)


@dataclass(frozen=True)
class LHModule:
    """One rank-two module: its ring, ``e = euler_eta`` in ``U*U = e*U``, and ``deg U``.

    The parameters are checked once, here; every :class:`LHElement` refers
    to its module, and two elements combine only when their modules are equal.
    """

    ring: RingDescriptor
    euler_eta: RingElement
    u_degree: int

    def __post_init__(self) -> None:
        if self.euler_eta.ring != self.ring:
            raise RingMismatchError("euler_eta must live in the module's ring")
        if self.u_degree < 1:
            raise ValueError("u_degree must be >= 1")
        d = self.euler_eta.homogeneous_degree()
        if d is not None and d != self.u_degree:
            raise ValueError(f"euler_eta has degree {d}, expected u_degree {self.u_degree}")

    def element(self, base: RingElement, fiber: RingElement) -> LHElement:
        return LHElement(self, base, fiber)

    def zero(self) -> LHElement:
        return self.element(self.ring.zero(), self.ring.zero())

    def one(self) -> LHElement:
        return self.element(self.ring.one(), self.ring.zero())

    def u(self) -> LHElement:
        return self.element(self.ring.zero(), self.ring.one())

    def from_base(self, a: RingElement) -> LHElement:
        return self.element(a, self.ring.zero())

    def from_fiber(self, b: RingElement) -> LHElement:
        return self.element(self.ring.zero(), b)
