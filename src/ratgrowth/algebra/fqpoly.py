"""Univariate polynomials and rational functions over small prime fields.

``FqPoly`` is an element of F_q[t] packed into one Python int, ``packed``:
coefficient i sits in the i-th slot of a fixed bit width, low degree
first.  The zero polynomial is 0, and a packed int has no trailing zero
coefficients by construction.

- q = 2: one bit per coefficient, so ``packed`` is the canonical index
  sum(c_i 2^i) itself.  Addition is XOR; a product XORs shifted copies of
  one operand, one per set bit of the other; division XORs shifted copies
  of the divisor off the top of the remainder.
- odd q: one slot is the smallest power-of-two number of bytes that holds
  2q - 2 (one byte for q < 128).  The sum of two slots then never carries
  into the next, so addition is one integer addition followed by reducing
  every slot mod q, for one-byte slots in a single ``bytes.translate``.
  Products use Kronecker substitution: both operands are spread to slots
  wide enough for the convolution sums, multiplied as integers once, and
  every slot of the product is reduced mod q.  Long division adds
  multiples of the divisor to the packed remainder and reduces its slots
  once, at the end.  Subtraction adds q - b_i to every slot of b first, so
  no slot goes negative.

One ``PackedRing`` per q (``packed_ring(q)``) makes that choice once: the
slot width, ``pack``, ``unpack`` and the kernels on packed ints.  FqPoly's
constructor, queries and operators wrap what it computes, and as the raw
ring of F_q[t] (``CoeffDomain.ring``) it runs the elimination, the curve
scan and form evaluation unwrapped.

Factoring lives here too, as the lowest module: ``int_prime_factors`` and
``fq_prime_factors`` yield the prime factors (p, e) of an integer resp. of
a polynomial in ascending order, by trial division.  Over F_q[t] the
divisors are ``monic_irreducibles_of_degree``, which sieves each degree
with the lower ones.  ``is_prime``, ``fq_factor``, the Moebius function
and the places of a global-field element all read these two.  Integer
trial division stops at the divisor ``_TRIAL_LIMIT`` and refuses a
cofactor it cannot settle, naming the number.  ``is_irreducible`` tests one
polynomial by Rabin's criterion on the packed ints, in n Frobenius powers
and a gcd per prime divisor of its degree n, so it lists no irreducibles;
the sieve lists them.

``FqRational`` is a normalized numerator/denominator pair, i.e. an element
of F_q(t).  q is restricted to primes so residue arithmetic stays on plain
integers.  Everything is immutable and hashable, which lets the rest of the
package treat these values exactly like ints and Fractions.  ``FqPoly``
values of one q are ordered by their canonical index.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, reduce
from itertools import chain


def _check_same_q(a: "FqPoly", b: "FqPoly") -> None:
    if a.q != b.q:
        raise ValueError(f"mixed characteristics: F_{a.q}[t] vs F_{b.q}[t]")


# -- kernels on packed ints ----------------------------------------------------


def _unpack(v: int, bits: int) -> list:
    """The `bits`-wide slots of v, low first, up to its top nonzero one."""
    mask = (1 << bits) - 1
    return [v >> i & mask for i in range(0, v.bit_length(), bits)]


def _pack(lay: "PackedRing", coeffs) -> int:
    """Pack coefficients that are already reduced into [0, q)."""
    if lay.size == 1:
        return int.from_bytes(bytes(coeffs), "little")
    size = lay.size
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coeffs), "little")


def _fold(lay: "PackedRing", v: int, size: int) -> int:
    """Reduce every `size`-byte slot of v mod q and pack the residues."""
    if size == 1:
        data = v.to_bytes(-(-v.bit_length() // 8), "little")
        return int.from_bytes(data.translate(lay.mod), "little")
    q = lay.q
    return _pack(lay, [c % q for c in _unpack(v, 8 * size)])


def _spread(v: int, n: int, size: int, wide: int) -> int:
    """Move the n slots of `size` bytes of v into slots of `wide` bytes."""
    data = v.to_bytes(n * size, "little")
    buf = bytearray(n * wide)
    for j in range(size):
        buf[j::wide] = data[j::size]
    return int.from_bytes(buf, "little")


def _kronecker(lay: "PackedRing", a: int, b: int) -> int:
    """The product of two packed elements over odd q: one integer product
    of the operands in slots that hold every convolution sum."""
    size = lay.size
    na, nb = -(-a.bit_length() // lay.bits), -(-b.bit_length() // lay.bits)
    bound = min(na, nb) * (lay.q - 1) ** 2  # largest possible slot of the product
    wide = size
    while bound >> 8 * wide:
        wide *= 2
    if wide != size:
        a, b = _spread(a, na, size, wide), _spread(b, nb, size, wide)
    return _fold(lay, a * b, wide)


def _divmod_odd(lay: "PackedRing", a: int, b: int) -> tuple[int, int]:
    """Long division of packed elements over odd q; b is nonzero.

    Each step adds c t^s b with c = -lead/lead(b) in [0, q), which clears
    the leading coefficient mod q and keeps every slot nonnegative.  The
    slots are reduced only at the end, so they are widened first to hold
    the (q-1)^2 each step can add."""
    q, size, bits = lay.q, lay.size, lay.bits
    na, nb = -(-a.bit_length() // bits), -(-b.bit_length() // bits)
    steps = na - nb + 1
    if steps <= 0:
        return 0, a
    wide = size
    while q - 1 + min(steps, nb) * (q - 1) ** 2 >> 8 * wide:
        wide *= 2
    if wide != size:
        a, b = _spread(a, na, size, wide), _spread(b, nb, size, wide)
    w = 8 * wide
    mask = (1 << w) - 1
    neg_inv = -pow(b >> w * (nb - 1), q - 2, q) % q
    digits = []
    for s in range(steps - 1, -1, -1):
        c = (a >> w * (s + nb - 1) & mask) * neg_inv % q
        digits.append(-c % q)
        a += c * b << w * s
    return _pack(lay, digits[::-1]), _fold(lay, a & (1 << w * (nb - 1)) - 1, wide)


def _sub_odd(lay: "PackedRing", a: int, b: int) -> int:
    """a - b for packed elements over odd q: q - b_i in every slot of b
    keeps the sum of slots nonnegative and below 2q, so one fold reduces it."""
    nb = -(-b.bit_length() // lay.bits)
    return _fold(lay, a + int.from_bytes(lay.q_slot * nb, "little") - b, lay.size)


def _clmul(a: int, b: int) -> int:
    """The product of packed elements over q = 2: one shifted copy of the
    denser operand XORed in per set bit of the sparser one.  Most operands
    in the pipelines are 0 or a power of t, whose product is the integer
    product."""
    if not a & (a - 1) or not b & (b - 1):
        return a * b
    if a.bit_count() < b.bit_count():
        a, b = b, a
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return r


def _divmod2(a: int, b: int) -> tuple[int, int]:
    """Long division of packed elements over q = 2; b is nonzero.  Each
    step XORs the divisor, shifted under the top bit, off the remainder."""
    n, quo = b.bit_length(), 0
    shift = a.bit_length() - n
    while shift >= 0:
        a ^= b << shift
        quo |= 1 << shift
        shift = a.bit_length() - n
    return quo, a


def _power(mul, one, x, n: int):
    """x^n for n >= 0 by square and multiply, with the product mul; the
    one power loop of the package."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        x, n = mul(x, x), n >> 1
    return result


class PackedRing:
    """F_q[t] on FqPoly's packed ints for one q (``packed_ring``): the slot
    width ``bits``, ``pack`` (reduced coefficients to a packed int),
    ``unpack`` (its slots, low first) and the kernels, picked once for
    q = 2 or odd q; for odd q also the slot layout the kernels read.  It
    is F_q[t]'s raw ring too (see the domains module docstring)."""

    one, zero, modulus = 1, 0, None
    is_zero = staticmethod(operator.not_)

    def __init__(self, q: int) -> None:
        self.q, self.ring = q, self
        if q == 2:
            # one bit a coefficient: a packed int's binary digits are its coefficients
            self.bits = 1
            self.pack = lambda coeffs: int("".join(map(str, coeffs))[::-1] or "0", 2)
            self.unpack = lambda v: tuple(map(int, bin(v)[:1:-1])) if v else ()
            self.add = self.sub = operator.xor
            self.mul, self.divmod = _clmul, _divmod2
        else:
            size = 1
            while 2 * q - 2 >> 8 * size:
                size *= 2
            self.size, self.bits = size, 8 * size
            self.q_slot = q.to_bytes(size, "little")
            # byte -> byte table reducing every one-byte slot at once
            self.mod = bytes(x % q for x in range(256)) if size == 1 else None
            self.pack, self.unpack = partial(_pack, self), partial(_unpack, bits=self.bits)
            # a sum of two packed elements has slots below 2q: one fold reduces it
            self.add, self.sub = lambda a, b: _fold(self, a + b, size), partial(_sub_odd, self)
            self.mul, self.divmod = partial(_kronecker, self), partial(_divmod_odd, self)
        self.times, self.plus, self.neg = self.mul, self.add, partial(self.sub, 0)
        self.power = partial(_power, self.mul, 1)
        self.rem = lambda a, b: self.divmod(a, b)[1]

    def zeros(self, staged, last, candidates, modulus=None):
        """CoeffDomain.zeros on packed ints, by the packed add and mul."""
        mul, add, columns = self.mul, self.add, []
        for col, acc, pairs in staged:
            for column, c in pairs:
                acc = add(acc, mul(c, column[last]))
            if acc:
                columns.append((col, acc))
        if not columns:
            return candidates
        if modulus:
            sums = (reduce(add, [mul(c, column[iv]) for column, c in columns]) for iv in candidates)
            return [iv for iv, acc in zip(candidates, sums) if not self.rem(acc, modulus)]
        hits = []
        for iv in candidates:
            acc = 0
            for column, c in columns:
                acc = add(acc, mul(c, column[iv]))
            if not acc:
                hits.append(iv)
        return hits

    @staticmethod
    def raw(values) -> list:
        """The packed ints of a sequence of FqPoly."""
        return [x.packed for x in values]

    def cook(self, values) -> tuple:
        """A sequence of packed ints wrapped back into FqPoly."""
        q = self.q
        return tuple(_make(q, v) for v in values)

    def step(self, piv, top, divide, xs, ms):
        """One Bareiss step on a column: divide(piv * x - m * top) per entry."""
        mul, sub = self.mul, self.sub
        return [divide(sub(mul(piv, x), mul(m, top))) for x, m in zip(xs, ms)]

    def divider(self, b: int):
        """The exact map a -> a / b on packed ints; a nonzero remainder
        raises ArithmeticError.  Dividing by 1, as the first step does,
        leaves a as it is."""
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        if b == 1:
            return operator.pos  # +a is a itself
        divmod_, q = self.divmod, self.q

        def divide(a):
            quo, rem = divmod_(a, b)
            if rem:
                raise ArithmeticError(f"{_make(q, b)} does not divide {_make(q, a)} in F_{q}[t]")
            return quo

        return divide

    def exact_div(self, a: int, b: int) -> int:
        return self.divider(b)(a)


# q -> its PackedRing.  An FqPoly exists only once its q's ring does, so its
# operators read it by subscript; constructors given q build it (packed_ring).
_RINGS: dict = {}


def packed_ring(q: int) -> PackedRing:
    """The PackedRing of F_q[t], built on first use."""
    ring = _RINGS.get(q)
    if ring is None:
        ring = _RINGS[q] = PackedRing(q)
    return ring


class FqPoly:
    """A polynomial in F_q[t], packed into the int ``packed`` (see the
    module docstring).

    The zero polynomial has ``packed == 0``, ``coeffs == ()`` and
    ``degree == -1``.
    """

    __slots__ = ("q", "packed")

    def __init__(self, q: int, coeffs) -> None:
        _set_q(self, q)
        _set_packed(self, packed_ring(q).pack([c % q for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    def __reduce__(self):  # the default slot restore would call __setattr__
        return _make_any, (self.q, self.packed)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> "FqPoly":
        return _make_any(q, 0)

    @classmethod
    def one(cls, q: int) -> "FqPoly":
        return _make_any(q, 1)

    @classmethod
    def const(cls, q: int, c: int) -> "FqPoly":
        return _make_any(q, c % q)

    @classmethod
    def t(cls, q: int) -> "FqPoly":
        return _make(q, 1 << packed_ring(q).bits)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients, low degree first, without trailing zeros."""
        return tuple(_RINGS[self.q].unpack(self.packed))

    @property
    def degree(self) -> int:
        return (self.packed.bit_length() - 1) // _RINGS[self.q].bits

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def leading_coeff(self) -> int:
        v, bits = self.packed, _RINGS[self.q].bits
        return v >> (v.bit_length() - 1) // bits * bits if v else 0

    @property
    def is_monic(self) -> bool:
        return self.leading_coeff == 1

    @property
    def is_constant(self) -> bool:
        # a nonzero slot above the constant one makes packed >= 2^width >= q
        return self.packed < self.q

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, FqPoly):
            return self.q == other.q and self.packed == other.packed
        if isinstance(other, int):
            return self.packed == other % self.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.packed))

    def __lt__(self, other) -> bool:
        # packed slots hold digits below their base, as the index does, so
        # both order by degree and then by coefficients from the top
        if isinstance(other, FqPoly) and self.q == other.q:
            return self.packed < other.packed
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """The packed int of an FqPoly over the same q or of an int, else None."""
        if isinstance(other, FqPoly):
            _check_same_q(self, other)
            return other.packed
        if isinstance(other, int):
            return other % self.q
        return None

    def __add__(self, other):
        q = self.q
        b = other.packed if type(other) is FqPoly and other.q == q else self._operand(other)
        if b is None:
            return NotImplemented
        return _make(q, _RINGS[q].add(self.packed, b))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.q, _RINGS[self.q].neg(self.packed))

    def __sub__(self, other):
        q = self.q
        b = other.packed if type(other) is FqPoly and other.q == q else self._operand(other)
        if b is None:
            return NotImplemented
        return _make(q, _RINGS[q].sub(self.packed, b))

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return _make(self.q, _RINGS[self.q].sub(other % self.q, self.packed))

    def __mul__(self, other):
        q = self.q
        b = other.packed if type(other) is FqPoly and other.q == q else self._operand(other)
        if b is None:
            return NotImplemented
        return _make(q, _RINGS[q].mul(self.packed, b))

    __rmul__ = __mul__

    def __divmod__(self, other):
        q = self.q
        b = other.packed if type(other) is FqPoly and other.q == q else self._operand(other)
        if b is None:
            return NotImplemented
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        quo, rem = _RINGS[q].divmod(self.packed, b)
        return _make(q, quo), _make(q, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent for FqPoly")
        return _power(operator.mul, FqPoly.one(self.q), self, n)

    def scale(self, c: int) -> "FqPoly":
        q = self.q
        c %= q
        if not c:
            return _make(q, 0)
        if c == 1 or not self.packed:
            return self
        return _make(q, _RINGS[q].mul(self.packed, c))

    def monic(self) -> "FqPoly":
        lead = self.leading_coeff
        if lead <= 1:
            return self
        return self.scale(pow(lead, self.q - 2, self.q))

    def evaluate(self, a: int) -> int:
        """Evaluate at a in F_q."""
        q, v = self.q, self.packed
        if q == 2:
            # f(0) is the constant bit; f(1) the parity of the coefficients
            return v & 1 if a % 2 == 0 else v.bit_count() & 1
        acc = 0
        for c in reversed(_RINGS[q].unpack(v)):
            acc = (acc * a + c) % q
        return acc

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"FqPoly(q={self.q}, {self})"


_new = object.__new__
_set_q = FqPoly.q.__set__
_set_packed = FqPoly.packed.__set__


def _make(q: int, packed: int) -> FqPoly:
    """An FqPoly from an already packed int, over a q with a ring (no validation)."""
    p = _new(FqPoly)
    _set_q(p, q)
    _set_packed(p, packed)
    return p


def _make_any(q: int, packed: int) -> FqPoly:
    """_make for a q given by the caller: builds its ring first if need be."""
    packed_ring(q)
    return _make(q, packed)


def fq_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic gcd in F_q[t], by Euclid on the packed ints."""
    _check_same_q(a, b)
    divmod_, x, y = _RINGS[a.q].divmod, a.packed, b.packed
    while y:
        x, y = y, divmod_(x, y)[1]
    return _make(a.q, x).monic()


def fq_lcm(a: FqPoly, b: FqPoly) -> FqPoly:
    if not a or not b:
        return FqPoly.zero(a.q)
    return ((a * b) // fq_gcd(a, b)).monic()


def fq_xgcd(a: FqPoly, b: FqPoly) -> tuple[FqPoly, FqPoly, FqPoly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    q = a.q
    r0, r1 = a, b
    s0, s1 = FqPoly.one(q), FqPoly.zero(q)
    t0, t1 = FqPoly.zero(q), FqPoly.one(q)
    while r1:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if not r0:
        return r0, s0, t0
    inv = pow(r0.leading_coeff, q - 2, q)
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def poly_from_index(q: int, idx: int) -> FqPoly:
    """Decode the canonical integer encoding sum(c_i * q^i) -> polynomial."""
    if idx < 0:
        raise ValueError(f"negative polynomial index {idx}")
    coeffs = []
    while idx:
        idx, c = divmod(idx, q)
        coeffs.append(c)
    return _make(q, packed_ring(q).pack(coeffs))


def poly_to_index(f: FqPoly) -> int:
    idx = 0
    for c in reversed(f.coeffs):
        idx = idx * f.q + c
    return idx


def all_polys(q: int, max_deg: int):
    """All polynomials of degree <= max_deg in canonical (index) order."""
    for idx in range(q ** (max_deg + 1)):
        yield poly_from_index(q, idx)


def monic_polys_of_degree(q: int, n: int):
    """All monic degree-n polynomials, ordered by the index of their tail."""
    lead = 1 << n * packed_ring(q).bits
    for idx in range(q**n):
        yield _make(q, poly_from_index(q, idx).packed | lead)


# The largest trial divisor of int_prime_factors: trial division up to it
# takes about half a second, and a cofactor it leaves unresolved is refused.
_TRIAL_LIMIT = 10**7


def int_prime_factors(n: int):
    """Yield the prime factors (p, e) of an integer n >= 1, p ascending, by
    trial division.  Raises ValueError naming n when a cofactor above
    _TRIAL_LIMIT^2 has no prime factor up to _TRIAL_LIMIT: deciding it
    would take larger divisors."""
    m = n
    for p in chain((2,), range(3, _TRIAL_LIMIT + 1, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
    if m > _TRIAL_LIMIT**2:
        raise ValueError(f"{n} is too large to factor: no divisor up to {_TRIAL_LIMIT} splits its cofactor {m}")
    if m > 1:
        yield m, 1


def is_prime(n: int) -> bool:
    """Whether n is prime: its least prime factor is n itself."""
    return n > 1 and next(int_prime_factors(n)) == (n, 1)


def fq_prime_factors(f: FqPoly):
    """Yield the monic irreducible factors (pi, e) of f != 0 in (degree,
    index) order, by trial division by monic_irreducibles_of_degree."""
    g = f.monic()
    d = 1
    while 2 * d <= g.degree:
        for pi in monic_irreducibles_of_degree(f.q, d):
            e = 0
            quo, rem = divmod(g, pi)
            while not rem:
                g, e = quo, e + 1
                quo, rem = divmod(g, pi)
            if e:
                yield pi, e
                if 2 * d > g.degree:
                    break
        d += 1
    # g has no factor of degree <= deg(g) / 2, so it is 1 or irreducible
    if g.degree >= 1:
        yield g, 1


def is_irreducible(f: FqPoly) -> bool:
    """Whether f is irreducible, by Rabin's test on the packed ints: f of
    degree n >= 1 is irreducible iff t^(q^n) = t mod f and t^(q^(n/r)) - t
    is prime to f for every prime r | n."""
    n, q, m = f.degree, f.q, f.packed
    if n < 1:
        return False
    ring = _RINGS[q]
    mul, rem, sub = ring.mul, ring.rem, ring.sub

    def mulmod(a: int, b: int) -> int:
        return rem(mul(a, b), m)

    t = rem(1 << ring.bits, m)
    checks = {n // r for r, _ in int_prime_factors(n)}
    x = t  # t^(q^i) mod f after step i
    for i in range(1, n + 1):
        x = _power(mulmod, 1, x, q)
        if i in checks:
            g, h = m, sub(x, t)
            while h:
                g, h = h, rem(g, h)
            if g >> ring.bits:  # the gcd has positive degree
                return False
    return x == t


@lru_cache(maxsize=None)
def monic_irreducibles_of_degree(q: int, n: int) -> tuple:
    """All monic irreducible degree-n polynomials, canonically ordered: the
    monic polynomials whose first factor, by trial division by the lists of
    the lower degrees, is themselves."""
    return tuple(g for g in monic_polys_of_degree(q, n) if next(fq_prime_factors(g), None) == (g, 1))


def count_monic_irreducibles(q: int, n: int) -> int:
    """Necklace-counting formula (1/n) * sum_{d | n} mu(d) q^{n/d}."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        total += _moebius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


def _moebius(n: int) -> int:
    exponents = [e for _, e in int_prime_factors(n)]
    return 0 if max(exponents, default=1) > 1 else (-1) ** len(exponents)


def fq_factor(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Factor into monic irreducibles by trial division, plus unit scaling.

    Returns [(pi, e), ...] sorted by (degree, index); the unit is dropped.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return list(fq_prime_factors(f))


class FqRational:
    """An element of F_q(t): normalized num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: FqPoly, den: FqPoly | None = None) -> None:
        if den is None:
            den = FqPoly.one(num.q)
        _check_same_q(num, den)
        if not den:
            raise ZeroDivisionError("zero denominator in F_q(t)")
        if not num:
            den = FqPoly.one(num.q)
        else:
            if not den.is_constant:
                g = fq_gcd(num, den)
                if g.degree >= 1:
                    num, den = num // g, den // g
            lead_inv = pow(den.leading_coeff, den.q - 2, den.q)
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FqRational is immutable")

    def __reduce__(self):
        return FqRational, (self.num, self.den)

    @property
    def q(self) -> int:
        return self.num.q

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_integral(self) -> bool:
        """True when the value lies in F_q[t]."""
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, FqRational):
            if other.q != self.q:
                raise ValueError("mixed characteristics in F_q(t)")
            return other
        if isinstance(other, FqPoly):
            return FqRational(other)
        if isinstance(other, int):
            return FqRational(FqPoly.const(self.q, other))
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FqRational(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero in F_q(t)")
        return FqRational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return FqRational(FqPoly.one(self.q)) / self ** (-n)
        return FqRational(self.num**n, self.den**n)

    def __str__(self) -> str:
        if self.den.degree == 0 and self.den.leading_coeff == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"FqRational(q={self.q}, {self})"
