"""The bound rule engine for sectional category and parametrized TC.

Every report is an interval [lower, upper] (upper ``None`` meaning no
finite upper bound is known) together with the ordered chain of rules that
produced it, so results are auditable.  Rules only ever shrink intervals;
two rules pinning different exact values is a correctness tripwire and
raises :class:`ContradictionError` instead of picking a side.

Sectional-category rules (sphere bundle of a rank-q bundle over B):

* ``sw-height``   -- secat >= height of the top Stiefel-Whitney class.
* ``euler-height``-- secat >= height of the Euler class (orientable case).
* ``section``     -- a nowhere-zero section gives a global sphere-bundle
                     section, so secat = 0.
* ``dimension-equality`` -- orientable with dim B <= q*(h + 1), h the Euler
  height: all obstructions above the first vanish, so secat = h exactly.

Parametrized-TC rules (fiberwise planning on the sphere bundle):

* R1 -- restriction to one fiber: TC >= TC(S^{q-1}), which is 1 for odd
        spheres and 2 for even spheres.
* R2 -- TC >= (height of the complement-bundle Euler class over the sphere
        bundle) + 1, when the symbolic class exists.
* R3 -- trivial-line splitting with complement Euler class e: TC >= h(e)+1,
        upgraded to h(e)+2 when h(e) is even and the base has no 2-torsion
        in degree (q-1)h(e), which every base meets: its cohomology ring is
        free over Z.
* R4 -- TC <= secat of the orthogonal-complement sphere bundle + 1, when
        that secat is known (structural hint, or the dimension rule over
        the total space, using dim = dim B + q - 1).
* R5 -- R4's upper bound meets R2's lower bound.  The dimension rule in
        ``_known_secat_ddot`` pins the complement secat at h2, so
        TC = h2 + 1.
* R6 -- dimension/connectivity upper bound (`tc_dimension_upper`) with
        fiber S^{q-1}, connectivity q-2.
* R7 -- a complex structure sections the complement bundle by e -> i*e,
        giving TC = 1 exactly.
* R8 -- for a declared splitting with a rank >= 2 factor tau whose
        complement-secat and sphere-secat are both known:
        TC <= secat(tau-complement) + secat(tau-sphere) + 2; in particular
        two independent nowhere-zero sections (declared, or from trivial
        summands) give TC <= 2.

Derivation of R5.  Write E' -> B for the sphere bundle (fiber S^{q-1}) and
E'' -> E' for the complement sphere bundle: over a unit vector v, the unit
vectors orthogonal to v, a sphere S^{q-2} of the oriented rank-(q-1) bundle
whose Euler class is the module element of R2, with height h2.  R5 applies
Schwarz's genus (join) obstruction (A. S. Schwarz, "The genus of a fiber
space", 1966) to E'' -> E', whose base has dimension dim B + q - 1:

1. secat(E'' -> E') <= m exactly when the fiberwise join of m + 1 copies
   of E'' has a section.  That join is the sphere bundle of the
   (m + 1)-fold Whitney sum, with fiber S^{N-1}, N = (m + 1)(q - 1).
2. S^{N-1} is (N - 2)-connected, so the first obstruction to a section
   lies in H^N(E') and is the Euler class of the sum, the (m + 1)-st power
   of the Euler class of R2.  For m = h2 that power is zero.
3. Every later obstruction lies in degree N + 1 or above, so all vanish
   when dim B + q - 1 <= (h2 + 1)(q - 1), that is dim B <= (q - 1) h2.
4. Then secat(E'' -> E') <= h2, R4 gives TC <= h2 + 1, and this meets
   R2's lower bound TC >= h2 + 1.

For eta + eps over CP^n (q = 3, dim B = 2n) the height h2 is n + 1 for
even n and n for odd n, so R5 always applies.  At odd n the rules that do
not rest on this dimension argument (R3, R6, R8) leave [n + 1, n + 2]; the
exact value n + 1 comes from steps 1-4, through R4's upper bound and R5,
which is why those reports carry ``NOTE_STRONGER``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .bundle import BundleDescriptor, DdotDescriptor, ddot_of, family_bundles
from .ring import Coefficients, RingElement, height, lh_height

__all__ = [
    "Quantity",
    "ProvenanceEntry",
    "TCReport",
    "ContradictionError",
    "secat_sphere_bundle",
    "tc_sphere_bundle",
    "tc_dimension_upper",
    "kernel_cuplength",
    "tc_split_upper",
    "QUANTITIES",
    "default_quantity",
    "family_table",
    "NOTE_STRONGER",
]


NOTE_STRONGER = (
    "stronger than the stated range: the dimension rule pins an exact value "
    "where only lower/upper bounds are otherwise asserted"
)


class Quantity(Enum):
    SECAT_SPHERE_BUNDLE = "secat_sphere_bundle"
    PARAMETRIZED_TC = "parametrized_tc"


class ContradictionError(Exception):
    """Two applicable rules force incompatible values; the input is inconsistent."""


@dataclass(frozen=True)
class ProvenanceEntry:
    rule: str
    citation: str
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "citation": self.citation, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict) -> "ProvenanceEntry":
        return cls(rule=d["rule"], citation=d["citation"], detail=d["detail"])


@dataclass(frozen=True)
class TCReport:
    """Interval report with the rule chain that produced it."""

    quantity: Quantity
    lower: int
    upper: int | None
    provenance: tuple[ProvenanceEntry, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("lower bound must be non-negative")
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"empty interval: [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def has_rule(self, rule: str) -> bool:
        return any(p.rule == rule for p in self.provenance)

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity.value,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "provenance": [p.to_dict() for p in self.provenance],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TCReport":
        return cls(
            quantity=Quantity(d["quantity"]),
            lower=int(d["lower"]),
            upper=None if d["upper"] is None else int(d["upper"]),
            provenance=tuple(ProvenanceEntry.from_dict(p) for p in d["provenance"]),
            notes=tuple(d.get("notes", ())),
        )


@dataclass
class _Builder:
    """Accumulates rule contributions and intersects them into a report."""

    quantity: Quantity
    lower: int = 0
    upper: int | None = None
    exact_claims: list[tuple[str, int]] = field(default_factory=list)
    provenance: list[ProvenanceEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_lower(self, rule: str, citation: str, value: int) -> None:
        self.provenance.append(ProvenanceEntry(rule, citation, f"lower >= {value}"))
        self.lower = max(self.lower, value)

    def add_upper(self, rule: str, citation: str, value: int) -> None:
        self.provenance.append(ProvenanceEntry(rule, citation, f"upper <= {value}"))
        self.upper = value if self.upper is None else min(self.upper, value)

    def add_exact(self, rule: str, citation: str, value: int) -> None:
        self.provenance.append(ProvenanceEntry(rule, citation, f"exact = {value}"))
        self.exact_claims.append((rule, value))
        self.lower = max(self.lower, value)
        self.upper = value if self.upper is None else min(self.upper, value)

    def add_note(self, text: str) -> None:
        self.notes.append(text)

    def build(self) -> TCReport:
        values = {v for _, v in self.exact_claims}
        if len(values) > 1:
            claims = ", ".join(f"{r}={v}" for r, v in self.exact_claims)
            raise ContradictionError(f"conflicting exact values: {claims}")
        if self.upper is not None and self.lower > self.upper:
            raise ContradictionError(
                f"rules force an empty interval [{self.lower}, {self.upper}]"
            )
        if not self.exact_claims and self.upper is None:
            self.provenance.append(
                ProvenanceEntry("none", "no upper rule applicable", "upper unbounded")
            )
        return TCReport(
            quantity=self.quantity,
            lower=self.lower,
            upper=self.upper,
            provenance=tuple(self.provenance),
            notes=tuple(self.notes),
        )


# -- sectional category of a sphere bundle ----------------------------------


_CITE_SW = "height of the top Stiefel-Whitney class bounds secat below"
_CITE_EULER = "height of the Euler class bounds secat below"
_CITE_SECTION = "a nowhere-zero section trivialises the sphere fibration piecewise: secat = 0"
_CITE_DIM_EQ = (
    "dim B <= q*(h+1) kills all obstructions above the first, forcing secat = Euler height"
)


def _dimension_pins(dimension: int, rank: int, h: int) -> bool:
    """Schwarz's rule: a rank-``rank`` sphere bundle whose Euler class has height
    ``h`` has secat <= h over a base of this dimension (steps 1-3 of R5 above)."""
    return dimension <= rank * (h + 1)


def secat_sphere_bundle(xi: BundleDescriptor) -> TCReport:
    """Bound the sectional category of the unit sphere bundle of ``xi``."""
    b = _Builder(Quantity.SECAT_SPHERE_BUNDLE)
    q = xi.rank

    h_sw = height(xi.top_sw)
    if h_sw:
        b.add_lower("sw-height", _CITE_SW, h_sw)
    h_euler = None
    if xi.orientable:
        h_euler = height(xi.euler)
        if h_euler:
            b.add_lower("euler-height", _CITE_EULER, h_euler)

    if xi.sections >= 1:
        b.add_exact("section", _CITE_SECTION, 0)
    if h_euler is not None and _dimension_pins(xi.base.dimension, q, h_euler):
        b.add_exact("dimension-equality", _CITE_DIM_EQ, h_euler)

    return b.build()


# -- parametrized TC of a sphere bundle --------------------------------------


_CITE_R1 = "restriction to a single fiber: TC of the fiber sphere"
_CITE_R2 = "complement-bundle Euler height over the sphere bundle, plus one"
_CITE_R3 = "trivial-line splitting: complement Euler height, with the even-height upgrade on 2-torsion-free bases"
_CITE_R4 = "one more than the sectional category of the orthogonal-complement sphere bundle"
_CITE_R5 = "low-dimensional base forces equality at complement Euler height plus one"
_CITE_R6 = "dimension/connectivity upper bound for fiberwise planning"
_CITE_R7 = "complex multiplication by i sections the complement bundle: TC = 1"
_CITE_R8 = "declared splitting: complement secat of the factor + sphere secat of the factor + 2"
_CITE_R8_SECTIONS = "two independent nowhere-zero sections: TC <= 2"


def tc_dimension_upper(fiber_dim: int, fiber_connectivity: int, base_dim: int) -> int:
    """Largest integer strictly below (2*dim X + dim B + 1)/(r + 1).

    ``fiber_dim`` is the dimension of the fiber X, assumed r-connected with
    ``r = fiber_connectivity``, and ``base_dim`` the dimension of the base.
    """
    if fiber_dim < 0 or fiber_connectivity < 0 or base_dim < 0:
        raise ValueError("dimensions and connectivity must be non-negative")
    num = 2 * fiber_dim + base_dim + 1
    den = fiber_connectivity + 1
    return -(-num // den) - 1  # ceil(num/den) - 1


def kernel_cuplength(q: int, euler_eta: RingElement) -> int:
    """Cup-length of the kernel of restriction along a sphere-bundle section.

    For a rank-q bundle whose sphere bundle has a section, the kernel of the
    induced map on cohomology is the principal ideal on ``U - e`` where
    ``e = euler_eta`` (integral, of degree q-1) is the Euler class of the
    bundle of vectors orthogonal to the section; its cup-length is
    height(e) + 1.
    """
    if q < 2:
        raise ValueError("rank must be >= 2")
    if euler_eta.ring.coefficients is not Coefficients.INTEGER:
        raise ValueError("euler_eta must have integer coefficients")
    d = euler_eta.homogeneous_degree()
    if d is not None and d != q - 1:
        raise ValueError(f"euler_eta degree {d} != q - 1 = {q - 1}")
    return height(euler_eta) + 1


def tc_split_upper(secat_tau_ddot: int, secat_tau_dot: int) -> int:
    """Upper bound from a splitting: TC <= secat(complement) + secat(sphere) + 2."""
    if secat_tau_ddot < 0 or secat_tau_dot < 0:
        raise ValueError("sectional categories are non-negative")
    return secat_tau_ddot + secat_tau_dot + 2


def _known_secat_ddot(d: DdotDescriptor) -> int | None:
    """Sectional category of the complement sphere bundle, when structure pins it."""
    if d.secat_ddot_hint is not None:
        return d.secat_ddot_hint
    if d.euler_ddot is not None:
        h2 = lh_height(d.euler_ddot)
        q = d.parent.rank  # the base of E'' -> E' is the sphere bundle E'
        if _dimension_pins(d.parent.base.dimension + q - 1, q - 1, h2):
            return h2
    return None


def tc_sphere_bundle(xi: BundleDescriptor) -> TCReport:
    """Bound the parametrized TC of fiberwise planning on the sphere bundle of ``xi``."""
    d = ddot_of(xi)  # refuses rank < 2 before any rule fires
    q = xi.rank
    b = _Builder(Quantity.PARAMETRIZED_TC)

    fiber_dim = q - 1
    b.add_lower("R1", _CITE_R1, 1 if fiber_dim % 2 else 2)

    h2 = None
    complement_h = None
    if d.euler_ddot is not None:
        h2 = lh_height(d.euler_ddot)
        b.add_lower("R2", _CITE_R2, h2 + 1)
        complement_h = kernel_cuplength(q, d.euler_ddot.module.euler_eta) - 1
        b.add_lower("R3", _CITE_R3, complement_h + (2 if complement_h % 2 == 0 else 1))

    known = _known_secat_ddot(d)
    if known is not None:
        b.add_upper("R4", _CITE_R4, known + 1)
    if h2 is not None and known == h2:
        b.add_exact("R5", _CITE_R5, h2 + 1)
        if complement_h is not None and complement_h % 2 == 1:
            b.add_note(NOTE_STRONGER)

    b.add_upper("R6", _CITE_R6, tc_dimension_upper(fiber_dim, q - 2, xi.base.dimension))

    if xi.has_complex_structure:
        b.add_exact("R7", _CITE_R7, 1)

    if xi.sections >= 2:
        b.add_upper("R8", _CITE_R8_SECTIONS, 2)
    if xi.split is not None:
        for tau in xi.split:
            if tau.rank < 2:
                continue
            s_ddot = _known_secat_ddot(ddot_of(tau))
            if s_ddot is None:
                continue
            tau_dot = secat_sphere_bundle(tau)
            if not tau_dot.exact:
                continue
            b.add_upper("R8", _CITE_R8, tc_split_upper(s_ddot, tau_dot.lower))

    return b.build()


QUANTITIES = {"secat": secat_sphere_bundle, "tc": tc_sphere_bundle}


def default_quantity(family: str | None) -> str:
    """The quantity bounded when none is named: secat for ``k-eta``, else TC."""
    return "secat" if family == "k-eta" else "tc"


def family_table(family: str, n_max: int) -> list[tuple[int, int, TCReport]]:
    """The bound table of a bundle family over CP^1 ... CP^{n_max}.

    Rows are ``(n, k, report)`` with the family's :func:`default_quantity`:
    every n, k <= n_max for ``k-eta``, k = 1 for the other families.  Each
    n's bundles come from one :func:`~paramtc.bundle.family_bundles` call,
    so a ``k-eta`` table builds one k-fold chain per n: n_max * (n_max - 1)
    Whitney sums in all.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k_max = n_max if family == "k-eta" else 1
    report = QUANTITIES[default_quantity(family)]
    return [
        (n, k, report(xi))
        for n in range(1, n_max + 1)
        for k, xi in enumerate(family_bundles(family, n, k_max), 1)
    ]
