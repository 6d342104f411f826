"""CoeffDomain.primitive, the one normalizer up to units.

Properties over every domain kind, and agreement with the separate
normalizers it replaced, kept here as oracles: the tuple normalizer of
projective points over Z and F_q[t], the content-based primitive part of
a polynomial, and the residue scaling of reduced points.
"""

import math
import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly, fq_gcd
from ratgrowth.algebra.multipoly import MultiPoly, monomials_up_to_degree

DOMAINS = [
    CoeffDomain.integers(),
    CoeffDomain.rationals(),
    CoeffDomain.prime_field(7),
    CoeffDomain.poly_ring(2),
    CoeffDomain.poly_ring(3),
    CoeffDomain.residue_field(FqPoly(2, [1, 1, 1])),
    CoeffDomain.rational_functions(3),
]
SEEDS = st.integers(min_value=0, max_value=10**9)


def _vector(rng, dom):
    if rng.random() < 0.1:
        return [dom.zero] * rng.randint(1, 4)
    return [dom.sample(rng) for _ in range(rng.randint(1, 4))]


def _nonzero(rng, dom):
    while True:
        c = dom.sample(rng)
        if c:
            return c


# -- oracles: the former normalizers, as they stood -----------------------------


def primitive_tuple_oracle(dom, coords):
    """Tuples of Z or F_q[t]: divided by the gcd, first nonzero entry
    positive resp. monic; None for the zero tuple."""
    if dom.kind == "integers":
        g = math.gcd(*coords)
        if not g:
            return None
        if next(c for c in coords if c) < 0:
            g = -g
        return tuple(c // g for c in coords)
    g = None
    for c in coords:
        if c:
            g = c if g is None else fq_gcd(g, c)
    if g is None:
        return None
    first = next(c for c in coords if c)
    g = g.monic().scale(first.leading_coeff)
    return tuple(c // g for c in coords)


def primitive_part_oracle(f: MultiPoly) -> MultiPoly:
    """Divided by the content, sign or leading unit of the grevlex-leading
    coefficient normalized (Z, F_q[t]); over a field, that coefficient
    scaled to 1."""
    dom = f.domain
    if f.is_zero:
        return f
    if dom.is_field:
        _, lead = f.leading_term()
        return f.scale(dom.inv(lead))
    if dom.kind == "integers":
        content = 0
        for c in f.terms.values():
            content = math.gcd(content, abs(c))
    else:
        content = FqPoly.zero(dom.q)
        for c in f.terms.values():
            content = c.monic() if not content else fq_gcd(content, c)
    out = f.exact_div_scalar(content)
    _, lead = out.leading_term()
    if dom.kind == "integers" and lead < 0:
        out = -out
    elif dom.kind == "poly_ring" and lead.leading_coeff != 1:
        out = out.scale(pow(lead.leading_coeff, dom.q - 2, dom.q))
    return out


def scaled_residues_oracle(dom, coords):
    """Field elements scaled so the first nonzero one is 1."""
    first = next((c for c in coords if c), None)
    if first is None:
        return None
    if first == 1:
        return tuple(coords)
    inv = dom.inv(first)
    return tuple(dom.mul(c, inv) for c in coords)


# -- properties -----------------------------------------------------------------


def _canonical_lead(dom, x) -> bool:
    if dom.kind == "integers":
        return x > 0
    if dom.kind == "poly_ring":
        return x.is_monic
    return x == dom.one


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_primitive_properties(seed):
    rng = random.Random(seed)
    for dom in DOMAINS:
        v = _vector(rng, dom)
        out = dom.primitive(v)
        if not any(v):
            assert out is None
            continue
        assert len(out) == len(v)
        assert _canonical_lead(dom, next(c for c in out if c))
        assert dom.primitive(out) == out
        c = _nonzero(rng, dom)
        assert dom.primitive([dom.mul(c, x) for x in v]) == out
        # the entries stay proportional: zeros in the same places, and over
        # a ring the result has content one
        assert [bool(x) for x in out] == [bool(x) for x in v]
        if dom.kind == "integers":
            assert math.gcd(*out) == 1
        elif dom.kind == "poly_ring":
            assert reduce(fq_gcd, out, FqPoly.zero(dom.q)) == 1


def test_zero_vectors_give_none():
    for dom in DOMAINS:
        for n in (1, 3):
            assert dom.primitive([dom.zero] * n) is None


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_matches_tuple_oracle_over_rings(seed):
    rng = random.Random(seed)
    for dom in DOMAINS:
        if not dom.is_field:
            v = _vector(rng, dom)
            assert dom.primitive(v) == primitive_tuple_oracle(dom, v)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_matches_residue_oracle_over_fields(seed):
    rng = random.Random(seed)
    for dom in DOMAINS:
        if dom.is_field:
            v = _vector(rng, dom)
            assert dom.primitive(v) == scaled_residues_oracle(dom, v)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_primitive_part_matches_content_oracle(seed):
    rng = random.Random(seed)
    monos = monomials_up_to_degree(3, 2)
    for dom in DOMAINS:
        terms = {e: dom.sample(rng) for e in rng.sample(monos, rng.randint(1, 5))}
        f = MultiPoly(dom, 3, terms)
        got, want = f.primitive_part(), primitive_part_oracle(f)
        assert got == want and str(got) == str(want)
