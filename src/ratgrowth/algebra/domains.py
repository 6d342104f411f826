"""Coefficient domains with exact arithmetic.

A ``CoeffDomain`` bundles a raw element representation with the exact
ring operations the rest of the package needs:

==================  ==========================================
kind                element representation
==================  ==========================================
integers            int
rationals           fractions.Fraction
prime_field(p)      int in [0, p)
poly_ring(q)        FqPoly              (the ring F_q[t])
rational_functions  FqRational          (the field F_q(t))
residue_field       FqPoly reduced mod an irreducible pi
==================  ==========================================

The residue-field kind covers F_q[t]/(pi) for function-field primes of
any degree; for prime degree 1 callers usually prefer prime_field(q)
via evaluation at the root of pi.  No floating point is used anywhere.

``CoeffDomain.ring`` is the raw ring that every evaluation runs on: the
exact elimination and its columns, form evaluation and the curve scan.
For every kind but F_q[t] it is the domain itself: the raw form of an
element is the element, with its plain operators.  For F_q[t] it is
fqpoly's ``PackedRing`` of q, which FqPoly's operators also call: FqPoly's
packed ints, added, multiplied, subtracted and divided by its kernels and
wrapped back into FqPoly only where they leave the ring.  A raw ring has
``raw`` and ``cook`` (into the raw form and back), ``add``, ``mul``,
``rem``, ``times``, ``plus`` and ``power`` (sums, products and powers
left for one reduction by the modulus at the end) and ``zeros``, the
curve scan's kernel.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from ..records import record
from .fqpoly import FqPoly, FqRational, fq_gcd, fq_lcm, fq_xgcd, is_irreducible, is_prime, packed_ring, poly_from_index
from .fqpoly import _make, _power

INTEGERS = "integers"
RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
POLY_RING = "poly_ring"
RATIONAL_FUNCTIONS = "rational_functions"
RESIDUE_FIELD = "residue_field"

_FIELD_KINDS = frozenset({RATIONALS, PRIME_FIELD, RATIONAL_FUNCTIONS, RESIDUE_FIELD})
_FF_KINDS = frozenset({POLY_RING, RATIONAL_FUNCTIONS, RESIDUE_FIELD})


@record(frozen=True)
class CoeffDomain:
    """One of the supported exact coefficient domains."""

    kind: str
    p: int | None = None  # modulus for prime_field
    q: int | None = None  # base characteristic for function-field kinds
    pi: FqPoly | None = None  # modulus for residue_field

    def __post_init__(self):
        if self.kind == PRIME_FIELD and not is_prime(self.p or 0):
            raise ValueError(f"prime_field modulus {self.p} is not prime")
        if self.kind in _FF_KINDS and not is_prime(self.q or 0):
            raise ValueError(f"function-field characteristic {self.q} is not prime")
        if self.kind == RESIDUE_FIELD:
            if self.pi is None or self.pi.q != self.q or not self.pi.is_monic:
                raise ValueError("residue_field needs a monic modulus over F_q")
            if not is_irreducible(self.pi):
                raise ValueError(f"residue_field modulus {self.pi} is reducible")
        # decided once: what add, sub, neg and mul reduce by (p for F_p, pi
        # for F_q[t]/(pi), None otherwise), and the two constants
        set_attr = object.__setattr__
        set_attr(self, "modulus", {PRIME_FIELD: self.p, RESIDUE_FIELD: self.pi}.get(self.kind))
        set_attr(self, "zero", self.coerce(0))
        set_attr(self, "one", self.coerce(1))

    # -- constructors ------------------------------------------------------
    # Each returns one shared instance per domain: a CoeffDomain is
    # immutable, building one tests its modulus for primality, and equal
    # domains then compare by identity.

    @classmethod
    @lru_cache(maxsize=None)
    def integers(cls) -> "CoeffDomain":
        return cls(INTEGERS)

    @classmethod
    @lru_cache(maxsize=None)
    def rationals(cls) -> "CoeffDomain":
        return cls(RATIONALS)

    @classmethod
    @lru_cache(maxsize=None)
    def prime_field(cls, p: int) -> "CoeffDomain":
        return cls(PRIME_FIELD, p=p)

    @classmethod
    @lru_cache(maxsize=None)
    def poly_ring(cls, q: int) -> "CoeffDomain":
        return cls(POLY_RING, q=q)

    @classmethod
    @lru_cache(maxsize=None)
    def rational_functions(cls, q: int) -> "CoeffDomain":
        return cls(RATIONAL_FUNCTIONS, q=q)

    @classmethod
    @lru_cache(maxsize=None)
    def residue_field(cls, pi: FqPoly) -> "CoeffDomain":
        return cls(RESIDUE_FIELD, q=pi.q, pi=pi)

    # -- structure ---------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in _FIELD_KINDS

    @property
    def is_function_field_kind(self) -> bool:
        return self.kind in _FF_KINDS

    @property
    def characteristic(self) -> int:
        if self.kind == PRIME_FIELD:
            return self.p
        if self.kind in _FF_KINDS:
            return self.q
        return 0

    @property
    def size(self) -> int | None:
        """Number of elements for finite domains, else None."""
        if self.kind == PRIME_FIELD:
            return self.p
        if self.kind == RESIDUE_FIELD:
            return self.q**self.pi.degree
        return None

    # -- the raw ring of the elimination -------------------------------------

    @property
    def ring(self):
        """The raw ring: fqpoly's PackedRing for F_q[t], else this domain."""
        return packed_ring(self.q) if self.kind == POLY_RING else self

    # over the domain itself the raw form of a sequence of elements is the
    # elements (raw: a list, cook: a tuple), values are formed by the plain
    # operators and reduced once by the modulus, and the elimination steps
    # with the plain operators too (it has no step of its own)
    raw, cook, rem = staticmethod(list), staticmethod(tuple), staticmethod(operator.mod)
    times, plus, power = staticmethod(operator.mul), staticmethod(operator.add), staticmethod(operator.pow)

    def zeros(self, staged, last, candidates, modulus=None):
        """The curve scan's kernel, summing with inline plain operators: the
        candidates at which prefix `last` of a row that enumeration._collapse
        staged vanishes, exactly or modulo `modulus`; all if it is zero."""
        columns = []
        for col, acc, pairs in staged:
            for column, c in pairs:
                acc = acc + c * column[last]
            if acc:
                columns.append((col, acc))
        if not columns:
            return candidates
        if modulus:
            return [iv for iv in candidates if not sum([c * column[iv] for column, c in columns]) % modulus]
        hits = []
        for iv in candidates:
            acc = 0
            for column, c in columns:
                acc = acc + c * column[iv]
            if not acc:
                hits.append(iv)
        return hits

    # -- element handling ----------------------------------------------------

    def coerce(self, x):
        """Bring x (int, Fraction, FqPoly, FqRational, or same-domain raw
        element) into this domain's representation."""
        k = self.kind
        if k == INTEGERS:
            if isinstance(x, int):
                return x
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator
            raise TypeError(f"{x!r} is not an integer")
        if k == RATIONALS:
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"{x!r} is not rational")
        if k == PRIME_FIELD:
            if isinstance(x, int):
                return x % self.p
            raise TypeError(f"{x!r} is not a prime-field element")
        if k == POLY_RING:
            if isinstance(x, FqPoly) and x.q == self.q:
                return x
            if isinstance(x, int):
                return FqPoly.const(self.q, x)
            if isinstance(x, FqRational) and x.q == self.q and x.is_integral:
                return x.num.scale(pow(x.den.leading_coeff, self.q - 2, self.q))
            raise TypeError(f"{x!r} is not in F_{self.q}[t]")
        if k == RATIONAL_FUNCTIONS:
            if isinstance(x, FqRational) and x.q == self.q:
                return x
            if isinstance(x, FqPoly) and x.q == self.q:
                return FqRational(x)
            if isinstance(x, int):
                return FqRational(FqPoly.const(self.q, x))
            raise TypeError(f"{x!r} is not in F_{self.q}(t)")
        if k == RESIDUE_FIELD:
            if isinstance(x, FqPoly) and x.q == self.q:
                return x % self.pi
            if isinstance(x, int):
                return FqPoly.const(self.q, x)
            raise TypeError(f"{x!r} is not reducible mod {self.pi}")
        raise AssertionError(f"unknown domain kind {k}")

    def is_zero(self, x) -> bool:
        return not x

    def add(self, a, b):
        return a + b if self.modulus is None else (a + b) % self.modulus

    def sub(self, a, b):
        return a - b if self.modulus is None else (a - b) % self.modulus

    def neg(self, a):
        return -a if self.modulus is None else (-a) % self.modulus

    def mul(self, a, b):
        return a * b if self.modulus is None else (a * b) % self.modulus

    def inv(self, a):
        k = self.kind
        if not a:
            raise ZeroDivisionError("inverting zero")
        if k == RATIONALS:
            return 1 / Fraction(a)
        if k == PRIME_FIELD:
            return pow(a, self.p - 2, self.p)
        if k == RATIONAL_FUNCTIONS:
            return FqRational(FqPoly.one(self.q)) / a
        if k == RESIDUE_FIELD:
            g, u, _ = fq_xgcd(a % self.pi, self.pi)
            if g.degree != 0:
                raise ZeroDivisionError(f"{a} not invertible mod {self.pi}")
            return u % self.pi
        raise TypeError(f"{k} is not a field")

    def div(self, a, b):
        """Field division; exact for fields only."""
        return self.mul(a, self.inv(b))

    def exact_div(self, a, b):
        """Exact division in an integral domain; raises if b does not divide a."""
        return self.divider(b)(a)

    def divider(self, b):
        """The map a -> a / b for a fixed nonzero b, exact.  Over a field
        it multiplies by b's inverse, taken once here, and reduces; a may
        be any raw value of the element type, such as an unreduced sum of
        products.  Over Z it is divmod, over F_q[t] the packed divider of
        its raw ring, and a nonzero remainder raises ArithmeticError."""
        if self.kind in _FIELD_KINDS:
            inv, modulus = self.inv(b), self.modulus
            return (lambda a: a * inv) if modulus is None else (lambda a: a * inv % modulus)
        if self.kind == POLY_RING:
            divide, q = self.ring.divider(self.coerce(b).packed), self.q
            return lambda a: _make(q, divide(a.packed))

        def divide(a):
            quo, rem = divmod(a, b)
            if rem:
                raise ArithmeticError(f"{b} does not divide {a} in {self.describe()}")
            return quo

        return divide

    def primitive(self, values) -> tuple | None:
        """The canonical representative, up to units, of a sequence of
        elements; None when every entry is zero.

        Over Z and F_q[t] the entries are divided by their gcd, scaled so
        the first nonzero one is positive resp. monic.  Over a field the
        first nonzero entry is scaled to 1.  This is the one normalizer of
        projective points, their residues and polynomial coefficients.
        """
        k = self.kind
        if k == INTEGERS:
            g = math.gcd(*values)
            if not g:
                return None
            if next(c for c in values if c) < 0:
                g = -g
            return tuple(c // g for c in values)
        first = next((c for c in values if c), None)
        if first is None:
            return None
        if k == POLY_RING:
            g = None
            for c in values:
                if c:
                    g = c if g is None else fq_gcd(g, c)
            # the gcd scaled so that the first entry's quotient is monic
            g = g.monic().scale(first.leading_coeff)
            return tuple(c // g for c in values)
        if first == 1:
            return tuple(values)
        inv = self.inv(first)
        return tuple(self.mul(c, inv) for c in values)

    def clear_denominators(self, values) -> list:
        """Over Q and F_q(t), the values times the lcm of their
        denominators, as elements of Z resp. F_q[t]; over any other domain
        the values themselves."""
        if self.kind == RATIONALS:
            denom = math.lcm(*(c.denominator for c in values))
            return [c.numerator * (denom // c.denominator) for c in values]
        if self.kind == RATIONAL_FUNCTIONS:
            denom = reduce(fq_lcm, (c.den for c in values), FqPoly.one(self.q))
            return [c.num * (denom // c.den) for c in values]
        return list(values)

    def pow(self, a, n: int):
        return _power(self.mul, self.one, a, n)

    def elements(self):
        """Iterate all elements of a finite domain in canonical order."""
        if self.kind == PRIME_FIELD:
            return iter(range(self.p))
        if self.kind == RESIDUE_FIELD:
            return (poly_from_index(self.q, i) for i in range(self.size))
        raise TypeError(f"{self.kind} is not finite")

    def sample(self, rng, span: int = 6):
        """Draw one element from a seeded random.Random; used for generic
        vectors and randomized property tests."""
        k = self.kind
        if k == INTEGERS:
            return rng.randint(-span, span)
        if k == RATIONALS:
            return Fraction(rng.randint(-span, span), rng.randint(1, span))
        if k == PRIME_FIELD:
            return rng.randrange(self.p)
        if k == POLY_RING:
            return poly_from_index(self.q, rng.randrange(self.q ** min(span, 4)))
        if k == RATIONAL_FUNCTIONS:
            num = poly_from_index(self.q, rng.randrange(self.q ** min(span, 4)))
            den = FqPoly.zero(self.q)
            while not den:
                den = poly_from_index(self.q, rng.randrange(self.q ** min(span, 3)))
            return FqRational(num, den)
        if k == RESIDUE_FIELD:
            return poly_from_index(self.q, rng.randrange(self.size))
        raise AssertionError(k)

    # -- text / ordering -----------------------------------------------------

    def to_str(self, a) -> str:
        if self.kind == RATIONALS:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        if self.kind == RATIONAL_FUNCTIONS and isinstance(a, FqRational):
            if a.is_integral:
                return str(a.num)
            return f"({a.num})/({a.den})"
        return str(a)

    def sort_key(self, a):
        """A total order on elements, used only for canonical output."""
        k = self.kind
        if k in (INTEGERS, PRIME_FIELD):
            return (a,)
        if k == RATIONALS:
            f = Fraction(a)
            return (f.numerator, f.denominator)
        if k in (POLY_RING, RESIDUE_FIELD):
            return (a.degree, a.coeffs)
        if k == RATIONAL_FUNCTIONS:
            return (a.num.degree, a.num.coeffs, a.den.degree, a.den.coeffs)
        raise AssertionError(k)

    def t_element(self):
        """The coefficient-field generator t (function-field kinds only)."""
        if self.kind == POLY_RING:
            return FqPoly.t(self.q)
        if self.kind == RATIONAL_FUNCTIONS:
            return FqRational(FqPoly.t(self.q))
        if self.kind == RESIDUE_FIELD:
            return FqPoly.t(self.q) % self.pi
        raise TypeError(f"t is not an element of {self.describe()}")

    def fraction_field(self) -> "CoeffDomain":
        if self.kind == INTEGERS:
            return CoeffDomain.rationals()
        if self.kind == POLY_RING:
            return CoeffDomain.rational_functions(self.q)
        if self.is_field:
            return self
        raise AssertionError(self.kind)

    def describe(self) -> str:
        k = self.kind
        if k == INTEGERS:
            return "Z"
        if k == RATIONALS:
            return "Q"
        if k == PRIME_FIELD:
            return f"F_{self.p}"
        if k == POLY_RING:
            return f"F_{self.q}[t]"
        if k == RATIONAL_FUNCTIONS:
            return f"F_{self.q}(t)"
        if k == RESIDUE_FIELD:
            return f"F_{self.q}[t]/({self.pi})"
        raise AssertionError(k)
