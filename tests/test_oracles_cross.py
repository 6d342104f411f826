"""Independent cross-oracles for the local intersection and multiplicity
engines.

The strongest check here factors curves as products of y-sections
y = u(x): the fiber sum of local intersection numbers over x = a must
equal the vanishing order at a of the pairwise difference product, which
is also the y-resultant.  This validates arbitrary-order tangencies
through a completely different computation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly, poly_from_index
from ratgrowth.algebra.multipoly import MultiPoly, monomials_of_degree, monomials_up_to_degree
from ratgrowth.reduction import (
    _affine_mult,
    cycle_mult,
    fulton_intersection_number,
    high_mult_locus,
    mult_at_point,
    proj_points_over,
)


def _section_poly(dom, u: FqPoly) -> MultiPoly:
    """y - u(x) as a bivariate polynomial over the prime field."""
    terms = {(0, 1): 1}
    for ex, c in enumerate(u.coeffs):
        if c:
            terms[(ex, 0)] = terms.get((ex, 0), 0) - c
    return MultiPoly(dom, 2, terms)


def _ord_at(u: FqPoly, a: int) -> int:
    shifted = u
    order = 0
    t = FqPoly.t(u.q)
    lin = t - a
    while True:
        quo, rem = divmod(shifted, lin)
        if rem:
            return order
        shifted, order = quo, order + 1


class TestResultantFiberOracle:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_fiber_sums_match_difference_products(self, seed):
        rng = random.Random(seed)
        p = rng.choice([3, 5, 7])
        dom = CoeffDomain.prime_field(p)
        n_u, n_v = rng.randint(1, 2), rng.randint(1, 2)
        us = [poly_from_index(p, rng.randrange(p**3)) for _ in range(n_u)]
        vs = [poly_from_index(p, rng.randrange(p**3)) for _ in range(n_v)]
        if any(u == v for u in us for v in vs):
            return
        if len({u.coeffs for u in us}) < n_u or len({v.coeffs for v in vs}) < n_v:
            return
        f = _section_poly(dom, us[0])
        for u in us[1:]:
            f = f * _section_poly(dom, u)
        g = _section_poly(dom, vs[0])
        for v in vs[1:]:
            g = g * _section_poly(dom, v)
        prod = FqPoly.one(p)
        for u in us:
            for v in vs:
                prod = prod * (u - v)
        for a in range(p):
            fiber = sum(
                fulton_intersection_number(f, g, (a, b)) for b in range(p)
            )
            # only rational section values contribute, and sections are
            # polynomials, so every intersection over x = a is rational
            assert fiber == _ord_at(prod, a), (p, a, [str(u) for u in us], [str(v) for v in vs])


# one domain of every kind, the residue fields with deg pi = 2
KERNEL_DOMAINS = [
    CoeffDomain.integers(),
    CoeffDomain.rationals(),
    CoeffDomain.prime_field(2),
    CoeffDomain.prime_field(7),
    CoeffDomain.poly_ring(2),
    CoeffDomain.rational_functions(3),
    CoeffDomain.residue_field(FqPoly(2, (1, 1, 1))),
    CoeffDomain.residue_field(FqPoly(3, (1, 0, 1))),
]


def _random_poly(dom, nvars, degree, rng, homogeneous=False):
    """A nonzero polynomial of total degree <= degree (= degree when
    homogeneous) with small random coefficients."""
    monos = monomials_of_degree(nvars, degree) if homogeneous else monomials_up_to_degree(nvars, degree)
    while True:
        f = MultiPoly(dom, nvars, {e: dom.sample(rng, 3) for e in monos if rng.random() < 0.6})
        if not f.is_zero:
            return f


def _singular_at(dom, point, rng, homogeneous):
    """(f, m): f is a product of m random factors that vanish at the point,
    times one factor that need not, so the multiplicity there is >= m.

    An affine factor is g - g(point).  A projective factor of degree e is
    point[k]^e g - g(point) x_k^e, which vanishes at the point without
    dividing, so it is built the same way over rings and fields."""
    nvars = len(point)
    k = max(i for i, c in enumerate(point) if c)
    m = rng.randint(0, 3)
    f = _random_poly(dom, nvars, rng.randint(0, 1), rng, homogeneous)
    for _ in range(m):
        g = MultiPoly.zero(dom, nvars)
        while g.is_zero:
            e = rng.randint(1, 2)
            g = _random_poly(dom, nvars, e, rng, homogeneous)
            v = MultiPoly.constant(dom, nvars, g.evaluate(point))
            if homogeneous:
                x_k = MultiPoly.variable(dom, nvars, k)
                g = g.scale(dom.pow(dom.coerce(point[k]), e)) - v * x_k**e
            else:
                g = g - v
        f = f * g
    return f, m


def _random_point(dom, nvars, rng):
    """Small coordinates, some of them zero, never all zero."""
    while True:
        pt = tuple(dom.zero if rng.random() < 0.3 else dom.sample(rng, 3) for _ in range(nvars))
        if any(pt):
            return pt


def _chart_oracle(f, point):
    """Multiplicity by the full Taylor shift of the dehomogenized polynomial
    in the chart of the last nonzero coordinate, over the fraction field."""
    frac = f.domain.fraction_field()
    f = f.map_coefficients(frac, frac.coerce)
    coords = [frac.coerce(c) for c in point]
    chart = max(i for i, c in enumerate(coords) if c)
    inv = frac.inv(coords[chart])
    affine = [frac.mul(c, inv) for i, c in enumerate(coords) if i != chart]
    return f.dehomogenize(chart).translate(affine).lowest_degree()


class TestMultiplicityCrossOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_hasse_scan_equals_full_translate(self, seed):
        rng = random.Random(seed)
        dom = CoeffDomain.prime_field(rng.choice([2, 3, 5, 7]))
        while True:
            terms = {}
            for ex in range(4):
                for ey in range(4 - ex):
                    if rng.random() < 0.5:
                        c = rng.randrange(dom.p)
                        if c:
                            terms[(ex, ey)] = c
            f = MultiPoly(dom, 2, terms)
            if not f.is_zero:
                break
        pt = (rng.randrange(dom.p), rng.randrange(dom.p))
        assert _affine_mult(f, pt) == f.translate(pt).lowest_degree()

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=lambda d: d.describe())
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_affine_kernel_at_singular_points(self, dom, nvars, seed):
        rng = random.Random(seed)
        pt = _random_point(dom, nvars, rng)
        f, m = _singular_at(dom, pt, rng, homogeneous=False)
        mu = _affine_mult(f, pt)
        assert mu == f.translate(pt).lowest_degree()
        assert mu >= m
        assert mult_at_point(f, pt, projective=False).mu == mu

    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=lambda d: d.describe())
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_projective_kernel_at_singular_points(self, dom, nvars, seed):
        rng = random.Random(seed)
        pt = _random_point(dom, nvars, rng)
        f, m = _singular_at(dom, pt, rng, homogeneous=True)
        mu = mult_at_point(f, pt).mu
        assert mu == _chart_oracle(f, pt)
        assert mu >= m
        assert mult_at_point(f, pt, projective=True).mu == mu

    @pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=lambda d: d.describe())
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_explicit_projective_on_nonhomogeneous(self, dom, seed):
        # f is g(x0, x1) with each coefficient split between two powers of
        # x2, so dropping x2 merges the two terms back into g
        rng = random.Random(seed)
        affine = _random_point(dom, 2, rng)
        g, m = _singular_at(dom, affine, rng, homogeneous=False)
        terms = {}
        for e, c in g.terms.items():
            part = dom.sample(rng, 3)
            terms[e + (rng.randint(0, 2),)] = part
            terms[e + (rng.randint(3, 4),)] = dom.sub(c, part)
        f = MultiPoly(dom, 3, terms)
        scale = dom.zero
        while not scale:
            scale = dom.sample(rng, 3)
        pt = tuple(dom.mul(scale, c) for c in affine + (dom.one,))
        mu = mult_at_point(f, pt, projective=True).mu
        assert mu == _chart_oracle(f, pt) == g.translate(affine).lowest_degree()
        assert mu >= m

    def test_locus_from_expanded_equals_factored_scan(self):
        from ratgrowth.corpus import capture_plane_corpus

        for cyc, k in capture_plane_corpus(n_fixtures=6, seed=5):
            f = cyc.expanded()
            dom = f.domain
            D = f.degree
            locus = high_mult_locus(f, k, max(int(4 * k) + 4, 8))
            if locus.kind == "all_points":
                continue
            expected = {
                pt
                for pt in proj_points_over(dom, 3)
                if cycle_mult(cyc, pt).mu * k > D
            }
            assert set(locus.locus) == expected
