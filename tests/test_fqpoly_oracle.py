"""Packed F_q[t] arithmetic against a schoolbook oracle on coefficient tuples.

``TuplePoly`` keeps F_q[t] elements as coefficient tuples (low degree
first, no trailing zeros) and computes with the quadratic loops that
``FqPoly`` used before it was packed into ints.  Every operation of
``FqPoly`` must give the oracle's coefficients.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.multipoly import poly_parse
from ratgrowth.algebra.fqpoly import (
    FqPoly,
    fq_factor,
    fq_gcd,
    fq_xgcd,
    is_irreducible,
    poly_from_index,
    poly_to_index,
)


class TuplePoly:
    """The oracle: an element of F_q[t] as a reduced coefficient tuple."""

    def __init__(self, q, coeffs):
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.q, self.coeffs = q, tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.q == other.q and self.coeffs == other.coeffs

    def _lift(self, other):
        return other if isinstance(other, TuplePoly) else TuplePoly(self.q, (other,))

    def __add__(self, other):
        a, b = self.coeffs, self._lift(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TuplePoly(self.q, out)

    def __neg__(self):
        return TuplePoly(self.q, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        a, b = self.coeffs, self._lift(other).coeffs
        if not a or not b:
            return TuplePoly(self.q, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return TuplePoly(self.q, out)

    def __divmod__(self, other):
        q, div = self.q, self._lift(other).coeffs
        inv = pow(div[-1], q - 2, q)
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(div) + 1, 0)
        for shift in range(len(rem) - len(div), -1, -1):
            factor = rem[shift + len(div) - 1] * inv % q
            quo[shift] = factor
            for i, c in enumerate(div):
                rem[shift + i] = (rem[shift + i] - factor * c) % q
        return TuplePoly(q, quo), TuplePoly(q, rem)

    def __pow__(self, n):
        result = TuplePoly(self.q, (1,))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c):
        return TuplePoly(self.q, [a * c for a in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(pow(self.leading_coeff, self.q - 2, self.q))

    def evaluate(self, a):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.q
        return acc

    def index(self):
        return sum(c * self.q**i for i, c in enumerate(self.coeffs))

    def __str__(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "+".join(parts) or "0"


def oracle_gcd(a, b):
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def oracle_xgcd(a, b):
    """Extended Euclid as FqPoly's fq_xgcd runs it: (g, u, v), g monic."""
    q = a.q
    r0, r1 = a, b
    s0, s1 = TuplePoly(q, (1,)), TuplePoly(q, ())
    t0, t1 = TuplePoly(q, ()), TuplePoly(q, (1,))
    while r1:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    inv = pow(r0.leading_coeff, q - 2, q)
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def oracle_is_irreducible(f):
    """No monic divisor of degree 1..deg/2, by brute force."""
    q = f.q
    for d in range(1, f.degree // 2 + 1):
        for tail in range(q**d):
            g = TuplePoly(q, [tail // q**i % q for i in range(d)] + [1])
            if not divmod(f, g)[1]:
                return False
    return f.degree >= 1


def same(f, o):
    """FqPoly f holds the oracle's value o."""
    assert isinstance(f, FqPoly) and f.q == o.q
    assert f.coeffs == o.coeffs
    assert f.degree == o.degree
    assert f.leading_coeff == o.leading_coeff


# one-bit, one-byte and (q = 131: 2q - 2 = 260) two-byte slots
QS = st.sampled_from([2, 3, 5, 7, 131])
# trial factoring at q = 131 is too slow for the suite
FACTOR_QS = st.sampled_from([2, 3, 5, 7])
# raw coefficients outside [0, q), negative ones included; up to degree 80
RAW = st.lists(st.integers(min_value=-40, max_value=40), max_size=81)
INTS = st.integers(min_value=-50, max_value=50)
SETTINGS = settings(max_examples=80, deadline=None)


def both(q, raw):
    return FqPoly(q, raw), TuplePoly(q, raw)


@SETTINGS
@given(QS, RAW)
def test_construction_and_queries(q, raw):
    f, o = both(q, raw)
    same(f, o)
    assert bool(f) == bool(o) and f.is_zero == (not o)
    assert f.is_monic == (o.leading_coeff == 1)
    assert f.is_constant == (o.degree <= 0)
    # trailing zeros and coefficients shifted by multiples of q change nothing
    assert FqPoly(q, list(raw) + [0, q, -2 * q]) == f


@SETTINGS
@given(QS, RAW, RAW)
def test_ring_operations(q, raw_a, raw_b):
    (f, o), (g, p) = both(q, raw_a), both(q, raw_b)
    same(f + g, o + p)
    same(f - g, o - p)
    same(-f, -o)
    same(f * g, o * p)
    if p:
        quo, rem = divmod(f, g)
        oquo, orem = divmod(o, p)
        same(quo, oquo)
        same(rem, orem)
        same(f // g, oquo)
        same(f % g, orem)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)


@SETTINGS
@given(QS, RAW, INTS)
def test_int_operands_on_either_side(q, raw, n):
    f, o = both(q, raw)
    c = TuplePoly(q, (n,))
    same(f + n, o + c)
    same(n + f, c + o)
    same(f - n, o - c)
    same(n - f, c - o)
    same(f * n, o * c)
    same(n * f, c * o)
    assert (f == n) == (o == c)
    if n % q:
        quo, rem = divmod(f, n)
        oquo, orem = divmod(o, c)
        same(quo, oquo)
        same(rem, orem)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(f, n)


@SETTINGS
@given(QS, st.lists(INTS, max_size=9), st.integers(min_value=0, max_value=9))
def test_power(q, raw, n):
    f, o = both(q, raw)
    same(f**n, o**n)


@SETTINGS
@given(QS, RAW, INTS, INTS)
def test_unary_operations(q, raw, c, a):
    f, o = both(q, raw)
    same(f.scale(c), o.scale(c))
    same(f.monic(), o.monic())
    assert f.evaluate(a) == o.evaluate(a)


@SETTINGS
@given(QS, RAW, RAW)
def test_gcd_and_xgcd(q, raw_a, raw_b):
    (f, o), (g, p) = both(q, raw_a), both(q, raw_b)
    if not o and not p:
        return
    same(fq_gcd(f, g), oracle_gcd(o, p))
    for got, want in zip(fq_xgcd(f, g), oracle_xgcd(o, p)):
        same(got, want)


@settings(max_examples=40, deadline=None)
@given(FACTOR_QS, st.lists(INTS, min_size=1, max_size=7))
def test_factor_small_degree(q, raw):
    f, o = both(q, raw)
    assert is_irreducible(f) == oracle_is_irreducible(o)
    if not o:
        with pytest.raises(ValueError):
            fq_factor(f)
        return
    factors = fq_factor(f)
    product = TuplePoly(q, (1,))
    for pi, e in factors:
        po = TuplePoly(q, pi.coeffs)
        assert po.leading_coeff == 1 and oracle_is_irreducible(po) and e >= 1
        product = product * po**e
    assert product == o.monic()
    keys = [(pi.degree, TuplePoly(q, pi.coeffs).index()) for pi, _ in factors]
    assert keys == sorted(set(keys))


@SETTINGS
@given(QS, RAW)
def test_index_and_text_round_trips(q, raw):
    f, o = both(q, raw)
    assert poly_to_index(f) == o.index()
    assert poly_from_index(q, o.index()) == f
    assert str(f) == str(o)
    assert poly_parse(str(f), 1, CoeffDomain.poly_ring(q)).coefficient((0,)) == f
    if q == 2:
        assert f.packed == o.index()  # bit i is coefficient i


@SETTINGS
@given(QS, st.lists(RAW, min_size=2, max_size=8))
def test_sort_key_order_is_degree_then_coeffs(q, raws):
    dom = CoeffDomain.poly_ring(q)
    polys = [FqPoly(q, raw) for raw in raws]
    oracles = [TuplePoly(q, raw) for raw in raws]
    assert [dom.sort_key(f) for f in polys] == [(o.degree, o.coeffs) for o in oracles]
    assert [f.coeffs for f in sorted(polys, key=dom.sort_key)] == sorted(
        (o.coeffs for o in oracles), key=lambda cs: (len(cs), cs)
    )


@SETTINGS
@given(QS, RAW, RAW)
def test_equal_values_hash_equal(q, raw, other):
    f = FqPoly(q, raw)
    g = FqPoly(q, other)
    built = [
        FqPoly(q, list(raw) + [0] * 5),  # trailing zeros
        FqPoly(q, [c - q * (i % 3 + 1) for i, c in enumerate(raw)]),  # negative coefficients
        poly_parse(str(f), 1, CoeffDomain.poly_ring(q)).coefficient((0,)),
        (f + g) - g,
        poly_from_index(q, poly_to_index(f)),
    ]
    if g + 1:
        built.append((f * g + f) // (g + 1))
    for h in built:
        assert h == f and hash(h) == hash(f)


@pytest.mark.parametrize("q", [3, 5, 7, 127, 131, 2**61 - 1, 2**127 - 1])
def test_wide_kronecker_slots(q):
    """Products whose convolution sums outgrow the storage slots, and
    characteristics whose slots are 1, 2, 8 or 16 bytes wide (127 is the
    largest q with one-byte slots)."""
    rng = random.Random(q)
    for deg_a, deg_b in [(70, 90), (100, 100), (15, 120), (0, 50), (8, 9)]:
        raw_a = [rng.randrange(-q, 2 * q) for _ in range(deg_a)] + [rng.randrange(1, q)]
        raw_b = [rng.randrange(-q, 2 * q) for _ in range(deg_b)] + [rng.randrange(1, q)]
        # all coefficients q - 1: every slot sum and product is as large as it gets
        for raw_a, raw_b in [(raw_a, raw_b), ([-1] * (deg_a + 1), [-1] * (deg_b + 1))]:
            (f, o), (g, p) = both(q, raw_a), both(q, raw_b)
            same(f * g, o * p)
            same(f + g, o + p)
            same(f - g, o - p)
            same(-f, -o)
            same(f.scale(q - 1), o.scale(q - 1))
            quo, rem = divmod(f * g + f, g)
            oquo, orem = divmod(o * p + o, p)
            same(quo, oquo)
            same(rem, orem)
            assert f.evaluate(q - 2) == o.evaluate(q - 2)


def test_every_constructor_builds_its_ring():
    """Each public constructor given a q builds that q's ring, which the
    operators then read by subscript: a fresh process shows it, one new q
    per constructor, unpickling included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """if True:
        import pickle, sys
        from ratgrowth.algebra.fqpoly import (
            FqPoly, all_polys, monic_polys_of_degree, poly_from_index)
        built = [FqPoly.zero(2), FqPoly.one(3), FqPoly.const(5, 7), FqPoly.t(7),
                 FqPoly(11, [1, 2]), poly_from_index(13, 14), next(all_polys(17, 1)),
                 next(monic_polys_of_degree(19, 1)), pickle.loads(sys.stdin.buffer.read())]
        print([str(f * f - f + 1) for f in built])
    """
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(FqPoly(131, [0, 130])),
        env=env, capture_output=True, check=True,
    )
    # the same values in this process, where every ring is built already
    want = [str(f * f - f + 1) for f in (
        FqPoly(2, []), FqPoly(3, [1]), FqPoly(5, [2]), FqPoly(7, [0, 1]), FqPoly(11, [1, 2]),
        FqPoly(13, [1, 1]), FqPoly(17, []), FqPoly(19, [0, 1]), FqPoly(131, [0, 130]),
    )]
    assert out.stdout.decode().strip() == str(want)


@pytest.mark.parametrize("q", [2, 3])
def test_negative_index_refused(q):
    # q = 2 would otherwise hand back a negative packed int
    with pytest.raises(ValueError, match="negative polynomial index"):
        poly_from_index(q, -1)
