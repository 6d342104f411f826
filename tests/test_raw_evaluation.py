"""Form evaluation on the raw ring (`CoeffDomain.ring`) against a plain
term-by-term oracle, and the packed ring's kernels against FqPoly's
operators and against schoolbook arithmetic on coefficient lists.

The oracle multiplies each coordinate in once per unit of its exponent
with the domain's own `mul` and sums the terms with its `add`, on the
domain's elements: no power table, no packed int, no shared power."""

import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly, poly_from_index
from ratgrowth.algebra.multipoly import (
    MultiPoly,
    _power_tables,
    _raw_value,
    vanishing,
)

DOMAINS = [
    CoeffDomain.integers(),
    CoeffDomain.rationals(),
    CoeffDomain.prime_field(7),
    CoeffDomain.poly_ring(2),
    CoeffDomain.poly_ring(3),
    # two-byte slots: 2q - 2 = 260 does not fit a byte
    CoeffDomain.poly_ring(131),
    CoeffDomain.rational_functions(3),
    CoeffDomain.residue_field(FqPoly(2, [1, 1, 1])),
]


def term_by_term(f: MultiPoly, point):
    dom = f.domain
    acc = dom.zero
    for exps, c in f.terms.items():
        term = c
        for x, e in zip(point, exps):
            for _ in range(e):
                term = dom.mul(term, dom.coerce(x))
        acc = dom.add(acc, term)
    return acc


def random_form(dom, rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[tuple(rng.randint(0, 4) for _ in range(nvars))] = dom.sample(rng)
    return MultiPoly(dom, nvars, terms)


@pytest.mark.parametrize("dom", DOMAINS, ids=CoeffDomain.describe)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_evaluation_matches_the_oracle(dom, seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    forms = [random_form(dom, rng, nvars) for _ in range(3)]
    points = [tuple(dom.sample(rng) for _ in range(nvars)) for _ in range(4)]
    # the zero point, where every form without a constant term vanishes
    points.append(tuple(dom.zero for _ in range(nvars)))
    ring = dom.ring
    for point in points:
        want = [term_by_term(f, point) for f in forms]
        assert [f.evaluate(point) for f in forms] == want
        # one power table of the point, shared by every form
        exponents = {e for f in forms for exps in f.terms for e in exps}
        powers = _power_tables(ring, ring.raw(map(dom.coerce, point)), exponents)
        raw = [_raw_value(ring, zip(f.terms, ring.raw(f.terms.values())), powers) for f in forms]
        assert list(ring.cook(raw)) == want
        assert all(type(v) is type(dom.zero) for v in ring.cook(raw))
    flags = list(vanishing(dom, forms, points))
    assert flags == [any(not term_by_term(f, p) for f in forms) for p in points]


def convolve(a, b) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("q", [2, 3, 131])
@settings(max_examples=30, deadline=None)
@given(a=st.integers(0, 10**12), b=st.integers(0, 10**12))
def test_packed_sums_and_remainders_match_fqpoly(q, a, b):
    ring = CoeffDomain.poly_ring(q).ring
    x, y = poly_from_index(q, a), poly_from_index(q, b)
    assert ring.add(x.packed, y.packed) == (x + y).packed
    assert ring.plus(x.packed, y.packed) == (x + y).packed
    assert ring.add(x.packed, 0) == x.packed
    if y:
        assert ring.rem(x.packed, y.packed) == (x % y).packed
    # FqPoly's operators call these same kernels, so each is also checked
    # against FqPoly(q, coefficients) of a schoolbook result
    xs, ys = x.coeffs, y.coeffs
    assert ring.sub(x.packed, y.packed) == (x - y).packed
    assert ring.sub(x.packed, y.packed) == FqPoly(q, [u - v for u, v in zip_longest(xs, ys, fillvalue=0)]).packed
    assert ring.neg(x.packed) == (-x).packed == FqPoly(q, [-u for u in xs]).packed
    assert ring.mul(x.packed, y.packed) == (x * y).packed == FqPoly(q, convolve(xs, ys)).packed
    if y:
        quo, rem = ring.divmod(x.packed, y.packed)
        assert (quo, rem) == ((x // y).packed, (x % y).packed)
        quo, rem = ring.cook([quo, rem])
        # x = quo y + rem with deg rem < deg y, on coefficient lists
        back = [u + v for u, v in zip_longest(convolve(quo.coeffs, ys), rem.coeffs, fillvalue=0)]
        assert FqPoly(q, back) == x and rem.degree < y.degree
