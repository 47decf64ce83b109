"""Exact arithmetic in the truncated cohomology ring of CP^n.

A ring is

    H*(CP^n) = Z[x]/(x^{n+1}),  deg x = 2,

or its mod-2 shadow; the ring of a point is the one truncated at x^1, Z
itself.  x has even degree, so graded commutativity is honest
commutativity and no Koszul signs arise.  An element maps each power of x,
an ``int``, to its coefficient.

On top of the ring sits a rank-two free module with basis ``{1, U}``
(:class:`LHModule`), modelling the cohomology of a unit sphere bundle that
admits a section: every class is uniquely ``a + b*U`` with ``a, b`` pulled
back from the base, and multiplication is closed by the single relation

    U * U = e * U,

where ``e`` is the Euler class of the bundle of vectors orthogonal to the
section.  The module owns ``e`` and ``deg U`` and checks them once; each
element (:class:`LHElement`) belongs to one module.

Inputs are checked once, where they enter: the public constructors
(:class:`RingDescriptor`, ``RingElement(ring, terms)``,
:meth:`RingDescriptor.element`, :class:`LHModule`, :class:`LHElement`)
check types, signs, ranges and rings.  Arithmetic on elements that passed
them builds each result's term dict once and hands it over, and nothing
is checked again: over Z the new element keeps that dict, copying it only
to drop a zero coefficient, and over Z/2 it keeps the dict reduced mod 2.
Rings and modules are compared by identity
before equality, so equal rings built apart still combine.  In the ring a
nonzero homogeneous class ``c * x^k`` survives until the degree cap, so its
height is a closed form; in the module ``U * U`` can vanish early, so
:func:`lh_height` finds the height in O(log h) products by repeated
squaring and a greedy descent, as exponentiation by squaring finds a power
(nilpotence is monotone: ``a^k == 0`` implies ``a^(k+1) == 0``).  All
values are immutable; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import index
from typing import Mapping

__all__ = [
    "Coefficients",
    "Generator",
    "RingDescriptor",
    "RingElement",
    "LHElement",
    "LHModule",
    "cup",
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
    """The generator x, with its degree and its nilpotency order.

    ``truncation`` is the smallest power that vanishes: ``x^truncation == 0``.
    :class:`RingDescriptor` accepts only degree 2.
    """

    name: str
    degree: int
    truncation: int


@dataclass(frozen=True)
class RingDescriptor:
    """Z[x]/(x^t) with deg x = 2, or its mod-2 shadow.

    ``generators`` holds one generator of degree 2, whose truncation is t,
    or none: the ring of a point, Z itself, where t = 1.  ``truncation``,
    the smallest power of x that vanishes (``x^truncation == 0``), is
    computed once, here; it and the stored mod-2 shadow take no part in
    equality, hashing or ``repr``.
    """

    generators: tuple[Generator, ...]
    coefficients: Coefficients = Coefficients.INTEGER
    truncation: int = field(init=False, repr=False, compare=False)
    _shadow: "RingDescriptor | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.generators) is not tuple:  # a list would make every element unhashable
            raise TypeError(f"generators must be a tuple, not {type(self.generators).__name__}")
        if not isinstance(self.coefficients, Coefficients):
            raise TypeError(f"coefficients must be a Coefficients member, not {self.coefficients!r}")
        if len(self.generators) > 1:
            raise ValueError(f"a ring has at most one generator, got {len(self.generators)}")
        for g in self.generators:
            if type(g) is not Generator:
                raise TypeError(f"generators must hold Generator values, not {type(g).__name__}")
            if g.degree != 2:
                raise ValueError(f"generator {g.name!r} must have degree 2, not {g.degree!r}")
            if type(g.truncation) is not int or g.truncation < 1:
                raise ValueError(f"generator {g.name!r} must have an int truncation >= 1")
        object.__setattr__(self, "truncation", self.generators[0].truncation if self.generators else 1)

    # -- element factories -------------------------------------------------

    def element(self, terms: Mapping[int, int]) -> "RingElement":
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return RingElement._canonical(self, {})

    def one(self) -> "RingElement":
        return RingElement._canonical(self, {0: 1})

    def scalar(self, c: int) -> "RingElement":
        return RingElement(self, {0: c})

    def generator(self, name: str) -> "RingElement":
        if not any(g.name == name for g in self.generators):
            raise KeyError(f"no generator named {name!r}")
        return RingElement(self, {1: 1})

    def mod2_shadow(self) -> "RingDescriptor":
        """Same generator and truncation, coefficients reduced to Z/2.

        Built on the first call and stored, so classes reduced from this
        ring and classes built in its shadow share one ring object and pass
        the identity check.  A mod-2 ring is its own shadow.
        """
        if self.coefficients is Coefficients.MOD2:
            return self
        if self._shadow is None:
            object.__setattr__(self, "_shadow", RingDescriptor(self.generators, Coefficients.MOD2))
        return self._shadow

    def top_degree(self) -> int:
        """Largest degree in which a nonzero element can live."""
        return 2 * (self.truncation - 1)

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}(deg {g.degree})^{g.truncation}=0" for g in self.generators)
        return f"{self.coefficients.value}[{gens}]"


class RingElement:
    """A sparse element of a :class:`RingDescriptor`, keyed by the power of x.

    ``terms`` maps each power ``k`` of x (an ``int``, of degree ``2k``) to
    its coefficient.  Stored canonically: no zero coefficients, no power at
    or above the truncation, mod-2 coefficients normalised to 1.  Equality
    is structural equality of the canonical form.
    """

    # hand-written, unlike LHElement: __init__ canonicalises ``terms`` before
    # storing them, which a dataclass could only do by storing them twice
    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Mapping[int, int]):
        t = ring.truncation
        mod2 = ring.coefficients is Coefficients.MOD2
        canon: dict[int, int] = {}
        for k, coeff in terms.items():
            if type(k) is not int:  # bool is an int subclass, and a tuple was the old spelling
                raise TypeError(f"term key {k!r} must be an int, the power of x, not {type(k).__name__}")
            if k < 0:
                raise ValueError(f"negative power of x: {k}")
            try:
                c = index(coeff)
            except TypeError:
                raise TypeError(f"coefficient {coeff!r} of x^{k} is not an integer") from None
            if mod2:
                c %= 2
            if c and k < t:  # the quotient map kills x^k for k >= t
                canon[k] = c
        _set_ring(self, ring)
        _set_terms(self, canon)

    @classmethod
    def _canonical(cls, ring: RingDescriptor, terms: dict[int, int]) -> "RingElement":
        """The element of ``terms``, whose keys are powers in [0, t) and whose coefficients are ints.

        Arithmetic on checked elements builds its results here: ``terms`` is
        canonical except for zero coefficients and, over Z/2, coefficients
        other than 1, so this drops the zeros, reduces mod 2 and checks
        nothing.  Data from outside goes through ``RingElement(ring, terms)``.

        The element takes ownership of ``terms``: callers pass a dict built
        for the result and never touch it again.  Over Z a dict without a
        zero coefficient, the common case, is kept as it is instead of
        copied; over Z/2 the dict is always rebuilt, so a reduction may pass
        an operand's terms.
        """
        if ring.coefficients is Coefficients.MOD2:
            terms = {k: 1 for k, c in terms.items() if c % 2}
        elif 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        self = object.__new__(cls)
        _set_ring(self, ring)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("RingElement is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {2 * k for k in self.terms}

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; ``None`` for the zero element."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, degree: int) -> "RingElement":
        return RingElement._canonical(self.ring, {k: c for k, c in self.terms.items() if 2 * k == degree})

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"mismatched rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return RingElement._canonical(self.ring, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement._canonical(self.ring, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement._canonical(self.ring, {k: c * other for k, c in self.terms.items()})
        if isinstance(other, RingElement):
            return cup(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for k, coeff in sorted(self.terms.items()):
            mono = "" if k == 0 else self.ring.generators[0].name + ("" if k == 1 else f"^{k}")
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            elif coeff == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{coeff}*{mono}")
        return " + ".join(pieces).replace("+ -", "- ")


# the slots' own setters: RingElement.__setattr__ refuses every assignment
_set_ring = RingElement.ring.__set__
_set_terms = RingElement.terms.__set__


def cup(a: RingElement, b: RingElement) -> RingElement:
    """Product of two classes: x^i * x^j = x^(i+j), killed from the truncation on."""
    a._check_ring(b)
    t = a.ring.truncation
    out: dict[int, int] = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            k = ka + kb
            if k < t:
                out[k] = out.get(k, 0) + ca * cb
    return RingElement._canonical(a.ring, out)


def _height(a, multiply, top: int) -> int:
    """Largest k with ``a^k != 0``, by squaring and a greedy descent.

    The height loop of :func:`lh_height`.  It needs only that nilpotence
    is monotone under ``multiply``, so it serves ring classes as well.
    ``top`` is the largest degree of a nonzero element, so ``a^k == 0``
    once ``k * deg a > top``.  Nilpotence is monotone (``a^k == 0`` implies
    ``a^(k+1) == 0``), so the powers that survive are exactly ``a^1 ... a^h``
    and ``h`` can be found bit by bit: square ``a, a^2, a^4, ...`` while the
    square survives, which fixes the top bit of ``h``, then descend through
    the lower bits, keeping a stored square in the accumulator whenever the
    product survives.  This costs at most ``2 * h.bit_length()`` products
    instead of ``h`` (exponentiation by squaring, Knuth, TAOCP vol. 2,
    section 4.6.3).  The zero check is what the module needs: with ``e = 0``
    already ``U * U == 0`` below ``top``.
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


def height(a: RingElement) -> int:
    """Largest k with ``a^k != 0``; zero for the zero class.

    Defined only for homogeneous classes of positive degree (or zero); well
    defined because the ring is truncated, so powers eventually overshoot
    the top degree.  A nonzero homogeneous class of degree d is ``c * x^k``
    with ``c != 0`` (``c = 1`` over Z/2), and ``(c * x^k)^m = c^m * x^(km)``
    never loses its coefficient, over Z or over Z/2; so it survives until
    the degree cap and its height is ``top_degree // d``, with no product.
    """
    if a.is_zero:
        return 0
    d = a.homogeneous_degree()
    if d <= 0:
        raise HomogeneityError("height requires positive degree")
    return a.ring.top_degree() // d


def mod2_reduce(a: RingElement) -> RingElement:
    """Reduce an integral class mod 2; a ring homomorphism onto the shadow ring."""
    if a.ring.coefficients is not Coefficients.INTEGER:
        raise CoefficientDomainError("mod-2 reduction expects integer coefficients")
    return RingElement._canonical(a.ring.mod2_shadow(), a.terms)


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
        ring = self.module.ring
        for part in (self.base.ring, self.fiber.ring):
            if part is not ring and part != ring:
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
        if self.module is not other.module and self.module != other.module:
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
    """k-th power in the module, as ``k`` products ``lh_multiply(acc, p)``; ``p^0`` is the unit."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    result = p.module.one()
    for _ in range(k):
        result = lh_multiply(result, p)
    return result


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
        if not isinstance(self.euler_eta, RingElement):
            raise TypeError(f"euler_eta must be a RingElement, not {type(self.euler_eta).__name__}")
        if type(self.u_degree) is not int:  # bool is an int subclass
            raise TypeError(f"u_degree must be an int, not {type(self.u_degree).__name__}")
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
