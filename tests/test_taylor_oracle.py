"""The planned Hasse-Taylor kernel against the per-alpha scan it replaced.

``taylor_order_oracle`` is the scan ``reduction`` ran before its Taylor
plans: for every alpha in degree order it walks all the terms beta,
skips those with some b < a and weights the rest by math.comb.  The
planned kernel must give min(oracle, stop) for every cap, and the exact
oracle without one, with each plan reused across points and caps the way
the covering core reuses it.  The locus scan, which reads a line of F_q
at a time, must keep exactly the points whose oracle mu reaches its cap,
in proj_points_over order.
"""

import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly
from ratgrowth.algebra.multipoly import MultiPoly, monomials_of_degree
from ratgrowth.corpus import capture_plane_corpus
from ratgrowth.reduction import (
    _affine_mult,
    _line_scan,
    _TaylorPlan,
    high_mult_locus,
    mult_at_point,
    proj_points_over,
)


def taylor_order_oracle(dom, terms, coords) -> int:
    """Least total degree with a nonzero Taylor coefficient at coords of the
    polynomial with these {beta: c} terms, one alpha at a time."""
    char, zero = dom.characteristic, dom.zero
    powers = []
    for a, top in zip(coords, map(max, zip(*terms))):
        row = [dom.one]
        for _ in range(top):
            row.append(dom.mul(row[-1], a))
        powers.append(row)
    for k in range(max(map(sum, terms)) + 1):
        for alpha in monomials_of_degree(len(coords), k):
            acc = zero
            for beta, c in terms.items():
                term, binom = c, 1
                for b, a, row in zip(beta, alpha, powers):
                    if b < a:
                        break
                    if b > a:
                        binom *= comb(b, a)
                        term = term * row[b - a]
                else:
                    if char:
                        binom %= char
                    if binom:
                        acc = acc + term * binom
            if not dom.is_zero(dom.coerce(acc)):
                return k
    raise AssertionError("nonzero polynomial with no Taylor coefficients")


def chart_oracle(f: MultiPoly, point) -> int:
    """The oracle on the chart of the last nonzero coordinate, over the
    fraction field, with the chart terms merged as raw sums."""
    dom = f.domain.fraction_field()
    coords = [dom.coerce(x) for x in point]
    chart = max(i for i, c in enumerate(coords) if c)
    inv = dom.inv(coords[chart])
    affine = [dom.mul(c, inv) for i, c in enumerate(coords) if i != chart]
    terms: dict = {}
    for exps, c in f.terms.items():
        beta = exps[:chart] + exps[chart + 1 :]
        terms[beta] = terms[beta] + c if beta in terms else c
    return taylor_order_oracle(dom, terms, affine)


def capped(mu: int, stop):
    return mu if stop is None else min(mu, stop)


def stops_around(mu: int, *extra):
    """Uncapped, the caps at and next to mu, and the callers' caps."""
    return (None, 0, 1, max(mu - 1, 0), mu, mu + 1, *extra)


# ---------------------------------------------------------------------------
# every point of P^2(F_p) on the plane capture corpus
# ---------------------------------------------------------------------------

CORPUS = [(cyc, k) for cyc, k in capture_plane_corpus() if cyc.degree <= 14]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_every_plane_point(index):
    cyc, k = CORPUS[index]
    f = cyc.expanded()
    dom = f.domain
    threshold = Fraction(f.degree) / Fraction(k)
    # the caps of the locus thresholds D/k, strict and not, read here on
    # the point plans of mult_at_point and the covers
    locus_stops = (math.floor(threshold) + 1, math.ceil(threshold))
    charts = [f.dehomogenize(i).terms for i in range(3)]
    plans = [_TaylorPlan(dom, terms) for terms in charts]
    for pt in proj_points_over(dom, 3):
        lead = next(i for i, c in enumerate(pt) if c)
        affine = pt[:lead] + pt[lead + 1 :]
        mu = taylor_order_oracle(dom, charts[lead], affine)
        for stop in stops_around(mu, *locus_stops):
            assert plans[lead].order(affine, stop) == capped(mu, stop), (pt, stop)


# ---------------------------------------------------------------------------
# residue fields F_2[t]/(pi) and charts over Z and F_q(t)
# ---------------------------------------------------------------------------


def _random_form(dom, nvars, degree, rng, homogeneous):
    monos = monomials_of_degree(nvars, degree)
    if not homogeneous:
        monos = [e for d in range(degree + 1) for e in monomials_of_degree(nvars, d)]
    while True:
        f = MultiPoly(dom, nvars, {e: dom.sample(rng, 3) for e in monos if rng.random() < 0.6})
        if f:
            return f


def singular_poly(dom, point, rng, homogeneous):
    """A product of up to three random forms that vanish at the point and
    one that need not: its multiplicity there is at least the number of the
    former.  An affine form is g - g(point).  A projective form of degree e
    is point[k]^e g - g(point) x_k^e for the last nonzero coordinate k, so
    it is built alike over rings."""
    nvars = len(point)
    f = _random_form(dom, nvars, rng.randint(0, 1), rng, homogeneous)
    for _ in range(rng.randint(0, 3)):
        g = MultiPoly.zero(dom, nvars)
        while not g:
            e = rng.randint(1, 2)
            g = _random_form(dom, nvars, e, rng, homogeneous)
            v = MultiPoly.constant(dom, nvars, g.evaluate(point))
            if homogeneous:
                k = max(i for i, c in enumerate(point) if c)
                g = g.scale(dom.pow(dom.coerce(point[k]), e)) - v * MultiPoly.variable(dom, nvars, k) ** e
            else:
                g = g - v
        f = f * g
    return f


def random_point(dom, nvars, rng):
    while True:
        pt = tuple(dom.zero if rng.random() < 0.3 else dom.sample(rng, 3) for _ in range(nvars))
        if any(pt):
            return pt


RESIDUE_FIELDS = [
    CoeffDomain.residue_field(FqPoly(2, (1, 1, 1))),
    CoeffDomain.residue_field(FqPoly(2, (1, 1, 0, 1))),
]


@pytest.mark.parametrize("dom", RESIDUE_FIELDS, ids=lambda d: d.describe())
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_residue_field_every_plane_point(dom, seed):
    # one plans dict for the curve, read at every point of P^2 and every
    # cap, as a plans dict kept beside f is read from one call to the next
    rng = random.Random(seed)
    f = singular_poly(dom, random_point(dom, 3, rng), rng, homogeneous=True)
    plans: dict = {}
    for pt in proj_points_over(dom, 3):
        mu = chart_oracle(f, pt)
        for stop in stops_around(mu, rng.randint(0, 6)):
            assert mult_at_point(f, pt, stop=stop, plans=plans).mu == capped(mu, stop), (pt, stop)


CHART_DOMAINS = [
    CoeffDomain.integers(),
    CoeffDomain.poly_ring(2),
    CoeffDomain.poly_ring(3),
    CoeffDomain.rational_functions(2),
]


@pytest.mark.parametrize("dom", CHART_DOMAINS, ids=lambda d: d.describe())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_projective_charts_over_rings_and_function_fields(dom, seed):
    # over Z and F_q[t] the chart runs in Q and F_q(t)
    rng = random.Random(seed)
    pt = random_point(dom, 3, rng)
    f = singular_poly(dom, pt, rng, homogeneous=True)
    mu = chart_oracle(f, pt)
    plans: dict = {}
    for stop in stops_around(mu, rng.randint(0, 6)):
        assert mult_at_point(f, pt, stop=stop, plans=plans).mu == capped(mu, stop), stop


@pytest.mark.parametrize("dom", CHART_DOMAINS + RESIDUE_FIELDS, ids=lambda d: d.describe())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_affine_charts(dom, seed):
    rng = random.Random(seed)
    nvars = rng.choice([2, 3])
    pt = tuple(dom.sample(rng, 3) for _ in range(nvars))
    f = singular_poly(dom, pt, rng, homogeneous=False)
    mu = taylor_order_oracle(dom, f.terms, [dom.coerce(x) for x in pt])
    plans: dict = {}
    for stop in stops_around(mu, rng.randint(0, 6)):
        assert _affine_mult(f, pt, stop, plans) == capped(mu, stop), stop
        assert mult_at_point(f, pt, projective=False, stop=stop).mu == capped(mu, stop), stop


# ---------------------------------------------------------------------------
# the high-multiplicity locus: the line scan against the oracle
# ---------------------------------------------------------------------------


def oracle_mus(f: MultiPoly) -> list:
    """(point, oracle mu) for every point of P^(n-1) in proj_points_over
    order, each read on the chart of its leading 1."""
    dom, n = f.domain, f.nvars
    charts = [f.dehomogenize(i).terms for i in range(n)]
    out = []
    for pt in proj_points_over(dom, n):
        lead = next(i for i, c in enumerate(pt) if c)
        out.append((pt, taylor_order_oracle(dom, charts[lead], pt[:lead] + pt[lead + 1 :])))
    return out


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_locus_matches_oracle(index):
    # the locus and the caps of the pipeline callers, strict and not
    cyc, k = CORPUS[index]
    f = cyc.expanded()
    mus = oracle_mus(f)
    threshold = Fraction(f.degree) / Fraction(k)
    for strict, stop in ((True, math.floor(threshold) + 1), (False, math.ceil(threshold))):
        got = high_mult_locus(f, k, max(int(4 * k) + 4, 8), strict)
        assert got.locus == tuple(pt for pt, mu in mus if mu >= stop), strict
        assert got.kind == ("ok" if got.locus else "empty")


def _power_of_forms(dom, nvars, rng, powers) -> MultiPoly:
    """The product of random linear forms raised to these powers."""
    f = MultiPoly.constant(dom, nvars, 1)
    for e in powers:
        form = MultiPoly.zero(dom, nvars)
        while not form:
            form = _random_form(dom, nvars, 1, rng, homogeneous=True)
        f = f * form**e
    return f


SCAN_FORMS = [
    (CoeffDomain.prime_field(5), 2, 11, (3, 2, 1)),
    (CoeffDomain.prime_field(7), 2, 12, (2, 2, 1, 1)),
    (CoeffDomain.prime_field(5), 4, 13, (2, 1)),
    (CoeffDomain.prime_field(7), 4, 14, (1, 1, 1)),
    # characteristic 2: Lucas's theorem zeroes many binomials
    (RESIDUE_FIELDS[1], 3, 15, (4, 2, 1)),
]


@pytest.mark.parametrize(
    "dom, nvars, seed, powers", SCAN_FORMS, ids=["P1-F5", "P1-F7", "P3-F5", "P3-F7", "P2-F8"]
)
def test_line_scan_every_cap(dom, nvars, seed, powers):
    # P^1 and P^3 over F_5 and F_7, and P^2 over F_8: every cap the scan
    # can be asked for, a singular product and a random form
    rng = random.Random(seed)
    forms = [_power_of_forms(dom, nvars, rng, powers)]
    forms.append(singular_poly(dom, random_point(dom, nvars, rng), rng, homogeneous=True))
    forms.append(_random_form(dom, nvars, 3, rng, homogeneous=True))
    for f in forms:
        if f.is_constant:
            continue
        mus = oracle_mus(f)
        charts = [f.dehomogenize(i).terms for i in range(nvars)]
        for stop in range(1, f.degree + 2):
            expected = [pt for pt, mu in mus if mu >= stop]
            assert _line_scan(dom, charts, stop) == expected, (str(f), stop)
