"""Global fields Q and F_q(t): places, heights, primitive points, reduction.

Field elements are Fractions over Q and FqRational values over F_q(t);
ring-of-integers elements are ints resp. FqPoly values.  Heights are
exact integers (max coordinate size over Q, q^(max degree) over F_q(t));
logs only appear at reporting boundaries.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .algebra.domains import CoeffDomain
from .algebra.fqpoly import FqPoly, fq_gcd, fq_prime_factors, int_prime_factors, is_prime, poly_from_index
from .algebra.multipoly import MultiPoly
from .algebra.primes import PrimeIdealDesc
from .records import record


class AllCoordinatesVanish(RuntimeError):
    """Internal error: a primitive point reduced to the zero tuple."""


@record(frozen=True)
class GlobalField:
    """Q or F_q(t) (q prime); d_K = 1 for both supported kinds.  It owns
    O_K (Z resp. F_q[t]): its elements' sizes, canonical order and gcds,
    and the height box."""

    kind: str  # "Q" | "Fq(t)"
    q: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.q is not None:
                raise ValueError("Q carries no q")
        elif self.kind == "Fq(t)":
            if not is_prime(self.q or 0):
                raise ValueError(f"function-field constant field size {self.q} must be prime")
        else:
            raise NotImplementedError(
                f"global field kind {self.kind!r} is not supported; only Q and "
                "Fq(t) with prime q are implemented (d_K = 1)"
            )

    # one shared instance per field, as for CoeffDomain's constructors

    @classmethod
    @lru_cache(maxsize=None)
    def rationals(cls) -> "GlobalField":
        return cls("Q")

    @classmethod
    @lru_cache(maxsize=None)
    def function_field(cls, q: int) -> "GlobalField":
        return cls("Fq(t)", q=q)

    @classmethod
    def parse(cls, descriptor: str) -> "GlobalField":
        """CLI field descriptors: "Q" or "Fq(t):q=3", q in ASCII digits."""
        s = descriptor.strip()
        if s == "Q":
            return cls.rationals()
        if m := re.fullmatch(r"Fq\(t\):q=([0-9]+)", s):
            return cls.function_field(int(m[1]))
        raise ValueError(f"unknown field descriptor {descriptor!r}")

    @property
    def d_K(self) -> int:
        return 1

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    def describe(self) -> str:
        return "Q" if self.is_rational else f"F_{self.q}(t)"

    def descriptor(self) -> str:
        """The descriptor that `parse` reads back into this field."""
        return "Q" if self.is_rational else f"Fq(t):q={self.q}"

    def owns_prime(self, prime: PrimeIdealDesc) -> bool:
        """Whether the prime is a finite prime of this field."""
        if self.is_rational or prime.is_rational:
            return self.is_rational == prime.is_rational
        return prime.generator.q == self.q

    # -- associated domains -------------------------------------------------

    def element_domain(self) -> CoeffDomain:
        return CoeffDomain.rationals() if self.is_rational else CoeffDomain.rational_functions(self.q)

    def integer_domain(self) -> CoeffDomain:
        return CoeffDomain.integers() if self.is_rational else CoeffDomain.poly_ring(self.q)

    def coerce(self, x):
        """Into K itself (Fraction / FqRational)."""
        return self.element_domain().coerce(x)

    # -- the ring of integers -----------------------------------------------

    @property
    def zero(self):
        return 0 if self.is_rational else FqPoly.zero(self.q)

    @property
    def one(self):
        return 1 if self.is_rational else FqPoly.one(self.q)

    def size(self, x) -> int:
        """|x| of an O_K element: its absolute value over Q, q^deg(x) over
        F_q(t), and 0 for 0."""
        if self.is_rational:
            return abs(x)
        return self.q**x.degree if x else 0

    def lead_unit(self, x) -> int:
        """The unit u for which u x is canonical (`is_canonical_lead`): the
        sign of x over Q, the inverse of its leading coefficient over
        F_q(t), and 1 for 0."""
        if self.is_rational:
            return -1 if x < 0 else 1
        return pow(x.leading_coeff, -1, self.q) if x else 1

    @property
    def gcd(self):
        """The gcd function of O_K, math.gcd resp. fq_gcd, for a loop to
        bind once: the gcd of two elements is nonnegative over Q and monic
        over F_q(t), so a unit gcd equals `one`."""
        return gcd if self.is_rational else fq_gcd

    def box(self, bound) -> list:
        """All O_K elements of size at most bound in canonical order: by
        value over Q, by index over F_q(t), as FqPoly values compare."""
        if self.is_rational:
            return list(range(-bound, bound + 1))
        return [poly_from_index(self.q, i) for i in range(self.box_side(bound))]

    def box_side(self, bound) -> int:
        """len(box(bound)), without listing the box."""
        if self.is_rational:
            return 2 * bound + 1
        side = self.q  # q^(k+1) for the largest k with q^k <= bound
        while side <= bound:
            side *= self.q
        return side

    def box_leads(self, bound) -> int:
        """The number of elements of box(bound) that `is_canonical_lead`
        accepts, without listing the box."""
        return bound if self.is_rational else (self.box_side(bound) - 1) // (self.q - 1)


def field_for_poly(f: MultiPoly) -> GlobalField:
    """The global field whose O_K or K holds the coefficients of f."""
    kind = f.domain.kind
    if kind in ("integers", "rationals"):
        return GlobalField.rationals()
    if kind in ("poly_ring", "rational_functions"):
        return GlobalField.function_field(f.domain.q)
    raise ValueError(f"no global field matches coefficients in {f.domain.describe()}")


def primitive_lift(f: MultiPoly) -> MultiPoly:
    """The primitive (content-one) representative of f over O_K (Z or
    F_q[t]), led by the grevlex-leading coefficient as in
    MultiPoly.primitive_part: the polynomial every reduction of f reduces."""
    if f.is_zero:
        raise ValueError("cannot reduce the zero polynomial")
    coeffs = f.domain.clear_denominators(f.terms.values())
    return MultiPoly(field_for_poly(f).integer_domain(), f.nvars, zip(f.terms, coeffs)).primitive_part()


def is_canonical_lead(field: GlobalField, x) -> bool:
    """Whether x can lead a primitive representative: positive over Q,
    monic over F_q(t)."""
    return x > 0 if field.is_rational else bool(x) and x.is_monic


@record(frozen=True)
class Place:
    """A place of K: archimedean (Q), the degree place v_inf (F_q(t)), or a
    finite prime ideal."""

    kind: str  # "archimedean" | "infinite" | "finite"
    prime: PrimeIdealDesc | None = None

    @classmethod
    def archimedean(cls) -> "Place":
        return cls("archimedean")

    @classmethod
    def infinite(cls) -> "Place":
        return cls("infinite")

    @classmethod
    def finite(cls, prime: PrimeIdealDesc) -> "Place":
        return cls("finite", prime=prime)


def _ord(x, p) -> int:
    """The exponent of the prime p in x != 0: an int over Q, an FqPoly and
    a monic irreducible over F_q(t)."""
    if not x:
        raise ValueError("ord of zero")
    v = 0
    while True:
        quo, rem = divmod(x, p)
        if rem:
            return v
        x, v = quo, v + 1


def ord_at(field: GlobalField, x, prime: PrimeIdealDesc) -> int:
    """The valuation ord_p(x) for nonzero x in K."""
    x = field.coerce(x)
    num, den = (x.numerator, x.denominator) if field.is_rational else (x.num, x.den)
    return _ord(num, prime.generator) - _ord(den, prime.generator)


def abs_value(field: GlobalField, x, place: Place) -> Fraction:
    """Normalized absolute value |x|_v as an exact Fraction; 0 for x = 0."""
    x = field.coerce(x)
    if not x:
        return Fraction(0)
    if place.kind == "archimedean":
        if not field.is_rational:
            raise ValueError("archimedean place only exists over Q")
        return abs(x)
    if place.kind == "infinite":
        if field.is_rational:
            raise ValueError("v_inf only exists over F_q(t)")
        e = x.num.degree - x.den.degree
        return Fraction(field.q**e) if e >= 0 else Fraction(1, field.q ** (-e))
    prime = place.prime
    if prime is None:
        raise ValueError("finite place without a prime")
    if not field.owns_prime(prime):
        raise ValueError("place/field mismatch")
    v = ord_at(field, x, prime)
    return Fraction(1, prime.norm**v) if v >= 0 else Fraction(prime.norm ** (-v))


def places_with_nontrivial_value(field: GlobalField, x) -> list[Place]:
    """The finite list of places where |x|_v can differ from 1."""
    x = field.coerce(x)
    if not x:
        raise ValueError("zero has no place decomposition")
    # x's numerator and denominator are coprime: no prime divides both
    if field.is_rational:
        primes = sorted(p for n in (x.numerator, x.denominator) for p, _ in int_prime_factors(abs(n)))
        return [Place.archimedean()] + [Place.finite(PrimeIdealDesc._listed(p, p)) for p in primes]
    return [Place.infinite()] + [
        Place.finite(PrimeIdealDesc._listed(pi, field.size(pi)))
        for f in (x.num, x.den)
        for pi, _ in fq_prime_factors(f)
    ]


def product_formula_check(field: GlobalField, x) -> Fraction:
    """prod_v |x|_v over the places where it can be nontrivial.

    The contract is that this equals 1 exactly for every nonzero x.
    """
    x = field.coerce(x)
    if not x:
        raise ValueError("product formula needs x != 0")
    product = Fraction(1)
    for place in places_with_nontrivial_value(field, x):
        product *= abs_value(field, x, place)
    return product


@record(frozen=True)
class ProjPoint:
    """A projective point in primitive normal form with its exact height.

    Coordinates are O_K elements with unit gcd; over Q the first nonzero
    coordinate is positive, over F_q(t) it is monic.  The representative
    is unique, so equality and hashing are literal.
    """

    __slots__ = ("field", "coords", "height")

    field: GlobalField
    coords: tuple
    height: int

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def coord_strings(self) -> list[str]:
        return [str(c) for c in self.coords]

    def sort_key(self):
        # coordinates compare in the canonical order of GlobalField.box
        return (self.height, self.coords)


_new = object.__new__
_set_field = ProjPoint.field.__set__
_set_coords = ProjPoint.coords.__set__
_set_height = ProjPoint.height.__set__


def _proj_point(field: GlobalField, coords: tuple, height: int) -> ProjPoint:
    """A ProjPoint from coordinates that the caller has already put in
    primitive normal form, with their height; built without __init__."""
    p = _new(ProjPoint)
    _set_field(p, field)
    _set_coords(p, coords)
    _set_height(p, height)
    return p


def primitive_normalize(field: GlobalField, raw) -> ProjPoint:
    """Clear denominators, then take the canonical representative of the
    projective point (`CoeffDomain.primitive` over O_K).  Idempotent."""
    dom = field.element_domain()
    ring = field.integer_domain()
    coords = ring.primitive(dom.clear_denominators([dom.coerce(x) for x in raw]))
    if coords is None:
        raise ValueError("all-zero tuple does not define a projective point")
    return ProjPoint(field, coords, height_of_primitive(field, coords))


def height_of_primitive(field: GlobalField, coords) -> int:
    """Height of a tuple already in primitive form."""
    return max(map(field.size, coords))


def height_proj(field: GlobalField, point) -> int:
    """Absolute multiplicative projective height; scaling invariant."""
    if isinstance(point, ProjPoint):
        return point.height
    return primitive_normalize(field, point).height


@record(frozen=True)
class ResiduePoint:
    """A projective point over a finite residue field, normalized so the
    first nonzero coordinate is 1."""

    __slots__ = ("domain", "coords")

    domain: CoeffDomain
    coords: tuple

    def __hash__(self) -> int:
        # equal points have equal coords, so the domain need not be hashed
        return hash(self.coords)

    def __str__(self) -> str:
        return "(" + " : ".join(self.domain.to_str(c) for c in self.coords) + ")"

    def sort_key(self):
        return tuple(self.domain.sort_key(c) for c in self.coords)


_set_domain = ResiduePoint.domain.__set__
_set_residues = ResiduePoint.coords.__set__


def _residue_point(dom: CoeffDomain, coords: tuple) -> ResiduePoint:
    """A ResiduePoint from normalized coordinates, built without __init__."""
    p = _new(ResiduePoint)
    _set_domain(p, dom)
    _set_residues(p, coords)
    return p


def reduce_point_mod_p(point: ProjPoint, prime: PrimeIdealDesc) -> ResiduePoint:
    """Coordinate-wise reduction of the primitive representative."""
    field = point.field
    if not field.owns_prime(prime):
        raise ValueError("prime does not belong to the point's field")
    dom = prime.residue_field
    scaled = dom.primitive([prime.residue(c) for c in point.coords])
    if scaled is None:
        raise AllCoordinatesVanish(
            f"primitive point {point} reduced to zero mod {prime}; "
            "this indicates non-primitive input"
        )
    return _residue_point(dom, scaled)
