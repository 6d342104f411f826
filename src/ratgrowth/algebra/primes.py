"""Prime ideals of Z and F_q[t]: their residue maps and enumeration by norm.

Ideals are described by a generator (a prime number, or a monic
irreducible polynomial) together with its norm.  A descriptor built from
outside input tests its generator with fqpoly's ``is_prime``, which reads
the first factor of the integer trial division, resp. ``is_irreducible``,
Rabin's test.  ``primes_in_range`` lists primes that a sieve, resp.
``monic_irreducibles_of_degree``, has already proved prime.
``recheck_prime`` verifies a prime independently of both tests.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from ..records import record
from .domains import CoeffDomain
from .fqpoly import (
    FqPoly,
    all_polys,
    is_irreducible,
    is_prime,
    monic_irreducibles_of_degree,
    poly_to_index,
)


@record(frozen=True)
class PrimeIdealDesc:
    """A finite prime of Q (generator: int) or F_q(t) (generator: monic
    irreducible FqPoly); norm is p resp. q^deg."""

    generator: object
    norm: int

    def __post_init__(self):
        g = self.generator
        if isinstance(g, int):
            if not is_prime(g):
                raise ValueError(f"{g} is not prime")
            if self.norm != g:
                raise ValueError(f"norm {self.norm} != p = {g}")
        elif isinstance(g, FqPoly):
            if not g.is_monic or not is_irreducible(g):
                raise ValueError(f"{g} is not monic irreducible")
            if self.norm != g.q**g.degree:
                raise ValueError(f"norm {self.norm} != q^deg = {g.q ** g.degree}")
        else:
            raise TypeError(f"bad prime generator {g!r}")

    @classmethod
    def _listed(cls, generator, norm: int) -> "PrimeIdealDesc":
        """A prime that a sieve, a listing of monic irreducibles or a
        factorization has just proved prime, built without __post_init__'s
        primality test, which outside input keeps."""
        desc = object.__new__(cls)
        object.__setattr__(desc, "generator", generator)
        object.__setattr__(desc, "norm", norm)
        return desc

    @property
    def is_rational(self) -> bool:
        return isinstance(self.generator, int)

    @property
    def q(self) -> int | None:
        return None if self.is_rational else self.generator.q

    @cached_property
    def residue_field(self) -> CoeffDomain:
        """O_K/p, built once per prime: F_p over Q; over F_q(t), F_q for a
        degree-1 pi (evaluation at its root) and F_q[t]/(pi) otherwise."""
        g = self.generator
        if self.is_rational:
            return CoeffDomain.prime_field(g)
        if g.degree == 1:
            return CoeffDomain.prime_field(g.q)
        return CoeffDomain.residue_field(g)

    @cached_property
    def _root(self) -> int:
        """The root r in F_q of a degree-1 generator t - r."""
        return -self.generator.evaluate(0) % self.generator.q

    def residue(self, x):
        """The residue in residue_field of an O_K element (int or FqPoly)."""
        g = self.generator
        if self.is_rational:
            return x % g
        if g.degree == 1:
            return x.evaluate(self._root)
        return x % g

    def sort_key(self):
        if self.is_rational:
            return (self.norm, 0)
        return (self.norm, poly_to_index(self.generator))

    def __str__(self) -> str:
        return str(self.generator)


@lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(math.isqrt(limit)) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


def rational_primes_below(limit: float) -> tuple[int, ...]:
    """Primes p < limit (strict)."""
    if limit <= 2:
        return ()
    top = math.ceil(limit) - (1 if float(limit).is_integer() else 0)
    sieved = _sieve(max(int(top), 2))
    return tuple(p for p in sieved if p < limit)


def primes_in_range(lo: float, hi: float, q: int | None = None) -> list[PrimeIdealDesc]:
    """All prime ideals with lo < norm < hi (strict) of Q (q None) or of
    F_q(t), sorted by norm and then by the canonical generator order.  q
    must be prime: F_q[t] is only implemented for prime q."""
    for name, bound in (("lo", lo), ("hi", hi)):
        if not abs(bound) < math.inf:
            raise ValueError(f"{name} must be finite, got {bound}")
    if not (1 <= lo < hi):
        raise ValueError(f"need 1 <= lo < hi, got ({lo}, {hi})")
    if q is not None and not is_prime(q):
        raise ValueError(f"q = {q} is not a prime: F_q(t) needs a prime q")
    if q is None:
        return [PrimeIdealDesc._listed(p, p) for p in rational_primes_below(hi) if p > lo]
    out: list[PrimeIdealDesc] = []
    deg = 1
    while q**deg < hi:
        norm = q**deg
        if norm > lo:
            for g in monic_irreducibles_of_degree(q, deg):
                out.append(PrimeIdealDesc._listed(g, norm))
        deg += 1
    out.sort(key=PrimeIdealDesc.sort_key)
    return out


def recheck_prime(desc: PrimeIdealDesc) -> bool:
    """Independent re-verification: 6k+-1 trial division for integers,
    divisibility against *all* lower-degree monic polynomials for FqPoly."""
    g = desc.generator
    if isinstance(g, int):
        if g in (2, 3):
            return True
        if g % 2 == 0 or g % 3 == 0:
            return False
        f = 5
        while f * f <= g:
            if g % f == 0 or g % (f + 2) == 0:
                return False
            f += 6
        return True
    if g.degree < 1:
        return False
    for h in all_polys(g.q, g.degree - 1):
        if h.degree >= 1 and not (g % h):
            return False
    return True
