"""Multiplicities, intersection numbers, cycles, locus capture."""

import math
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly
from ratgrowth.algebra.multipoly import MultiPoly, monomials_of_degree, poly_parse
from ratgrowth.algebra.primes import PrimeIdealDesc, primes_in_range
from ratgrowth.corpus import cover_fixture_poly
from ratgrowth.enumeration import BudgetExceededError, enum_curve_points_proj
from ratgrowth.globalfield import field_for_poly, reduce_point_mod_p
from ratgrowth.reduction import (
    INFINITE,
    LOCUS_BUDGET,
    DerivativeIdenticallyZero,
    FactoredCycle,
    NoInterpolantError,
    _directional,
    _directions,
    cycle_A,
    cycle_mult,
    fulton_intersection_number,
    gcd_bivariate,
    good_primes,
    high_mult_locus,
    mult_at_point,
    primitive_lift,
    proj_points_over,
    reduce_curve_mod_p,
    silly_arithmetic_check,
)

ZZ = CoeffDomain.integers()
QQ = CoeffDomain.rationals()
GF5 = CoeffDomain.prime_field(5)
GF7 = CoeffDomain.prime_field(7)
GF13 = CoeffDomain.prime_field(13)
F2T = CoeffDomain.poly_ring(2)


class TestReduceCurve:
    def test_good_conic(self):
        r = reduce_curve_mod_p(poly_parse("x0*x2 - x1^2", 3, ZZ), PrimeIdealDesc(5, 5))
        assert r.reduced_degree == 2 and r.good

    def test_coefficient_drop_not_total(self):
        r = reduce_curve_mod_p(poly_parse("5*x0^2 + x1*x2", 3, ZZ), PrimeIdealDesc(5, 5))
        assert r.f_p == poly_parse("x1*x2", 3, GF5)
        assert r.reduced_degree == 2 and r.good

    def test_double_line(self):
        r = reduce_curve_mod_p(poly_parse("x0^2 + 3*x1^2", 3, ZZ), PrimeIdealDesc(3, 3))
        assert r.f_p == poly_parse("x0^2", 3, CoeffDomain.prime_field(3))
        assert r.good
        assert mult_at_point(r.f_p, (0, 0, 1)).mu == 2

    def test_content_removed_first(self):
        r = reduce_curve_mod_p(poly_parse("5*x0 + 10*x1", 3, ZZ), PrimeIdealDesc(5, 5))
        assert not r.f_p.is_zero  # content 5 divided out before reduction

    def test_ff_reduction(self):
        f = poly_parse("t*x0^2 + x1*x2", 3, F2T)
        t = FqPoly.t(2)
        r = reduce_curve_mod_p(f, PrimeIdealDesc(t, 2))
        assert r.reduced_degree == 2

    def test_affine_degenerate_reduction(self):
        r = reduce_curve_mod_p(poly_parse("5*x0 + 2", 2, ZZ), PrimeIdealDesc(5, 5))
        assert not r.good  # constant reduction: prime must be skipped

    @pytest.mark.parametrize(
        "domain, prime, field_name",
        [
            (ZZ, PrimeIdealDesc(FqPoly(2, [1, 1]), 2), "Q"),
            (F2T, PrimeIdealDesc(3, 3), "F_2(t)"),
            (F2T, PrimeIdealDesc(FqPoly(3, [1, 1]), 3), "F_2(t)"),
        ],
    )
    def test_prime_of_another_field_refused(self, domain, prime, field_name):
        f = poly_parse("x0*x2 - x1^2", 3, domain)
        with pytest.raises(ValueError, match=f"is not a prime of {re.escape(field_name)}"):
            reduce_curve_mod_p(f, prime)
        with pytest.raises(ValueError, match=f"is not a prime of {re.escape(field_name)}"):
            good_primes(primitive_lift(f), [prime])

    @pytest.mark.parametrize(
        "text, nvars, domain, bad",
        [
            ("5*x0 + 2", 2, ZZ, ["5"]),
            ("6*x0*x1 + 35", 2, ZZ, ["2", "3"]),
            ("x0*x2 - x1^2", 3, ZZ, []),
            ("t*x0 + t + 1", 2, F2T, ["t"]),
            ("(t^2+t+1)*x0*x1 + 1", 2, F2T, ["t^2+t+1"]),
        ],
    )
    def test_good_primes_match_the_reduction(self, text, nvars, domain, bad):
        # the primes where the positive-degree terms keep a nonzero residue
        # are those where the reduced polynomial keeps positive degree
        lift = primitive_lift(poly_parse(text, nvars, domain))
        window = primes_in_range(1, 40, field_for_poly(lift).q)
        good = good_primes(lift, window)
        assert good == [prime for prime in window if reduce_curve_mod_p(lift, prime).good]
        assert [str(prime) for prime in window if prime not in good] == bad


class TestMultiplicity:
    def test_node(self):
        assert mult_at_point(poly_parse("x*y", 2, ZZ), (0, 0)).mu == 2

    def test_cusp_chart(self):
        f = poly_parse("x1^2*x2 - x0^3", 3, ZZ)
        assert mult_at_point(f, (0, 0, 1)).mu == 2

    def test_quartic_f7(self):
        # oracle: full translate and lowest homogeneous part
        f = poly_parse("x0^3*x1 + x1^4", 3, GF7)
        chart = f.dehomogenize(2)
        assert chart.translate((0, 0)).lowest_degree() == 4
        assert mult_at_point(f, (0, 0, 1)).mu == 4

    def test_zero_iff_nonvanishing(self):
        f = poly_parse("x0*x2 - x1^2", 3, ZZ)
        assert mult_at_point(f, (1, 1, 2)).mu == 0
        assert mult_at_point(f, (1, 1, 1)).mu == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_additivity(self, seed):
        rng = random.Random(seed)
        dom = rng.choice([QQ, GF5, CoeffDomain.poly_ring(2)])
        point = tuple(dom.sample(rng, span=2) for _ in range(2))

        def rand(dmax=2):
            while True:
                terms = {}
                for ex in range(dmax + 1):
                    for ey in range(dmax + 1 - ex):
                        if rng.random() < 0.5:
                            terms[(ex, ey)] = dom.sample(rng, span=3)
                f = MultiPoly(dom, 2, terms)
                if not f.is_zero:
                    return f

        f, g = rand(), rand()
        assert (
            mult_at_point(f * g, point).mu
            == mult_at_point(f, point).mu + mult_at_point(g, point).mu
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_chart_independence(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        terms = {}
        for exps in monomials_of_degree(3, d):
            if rng.random() < 0.6:
                terms[exps] = rng.randrange(1, 7)
        f = MultiPoly(GF7, 3, terms)
        if f.is_zero:
            return
        point = tuple(rng.randrange(7) for _ in range(3))
        if not any(point):
            return
        mus = []
        for chart in range(3):
            if point[chart] % 7 == 0:
                continue
            inv = pow(point[chart], 5, 7)
            affine = tuple(
                (c * inv) % 7 for i, c in enumerate(point) if i != chart
            )
            from ratgrowth.reduction import _affine_mult

            mus.append(_affine_mult(f.dehomogenize(chart), affine))
        assert len(set(mus)) == 1

    @pytest.mark.parametrize(
        "text, domain",
        [
            ("x0 - x0*x2", ZZ),
            # the raw chart sum is 5*x0: zero only once reduced into F_5
            ("2*x0 + 3*x0*x2", GF5),
        ],
    )
    def test_vanishing_chart_names_the_chart(self, text, domain):
        f = poly_parse(text, 3, domain)
        with pytest.raises(ValueError, match="chart x2 = 1"):
            mult_at_point(f, (1, 0, 1), projective=True)

    def test_mult_bounded_by_degree(self):
        f = poly_parse("x0^2*x1", 3, GF5)
        for pt in proj_points_over(GF5, 3):
            mu = mult_at_point(f, pt).mu
            if mu:
                assert 1 <= mu <= f.degree


SHARED_PLAN_CURVES = [
    *(pytest.param(*cover_fixture_poly(name), id=name)
      for name in ("curve_d26_H20_Q", "curve_d30_H20_Q", "fermat_d26_H20_Q")),
    pytest.param(poly_parse("x1*x0^21 - x2^22", 3, F2T), 8, id="cuspidal_d22_H8_F2t"),
    pytest.param(
        poly_parse("x1*x0^4 - t*x2^5 + x0*x1^2*x2^2", 3, CoeffDomain.poly_ring(3)), 9, id="quintic_H9_F3t"
    ),
]


class TestSharedTaylorPlans:
    """One plans dict of the primitive O_K lift, read at every prime as the
    covering core reads it, against a fresh reading of the reduced curve
    with no plans."""

    @staticmethod
    def check(f, prime_points, caps, projective):
        lift, plans = primitive_lift(f), {}
        for prime, points in prime_points:
            reduced = reduce_curve_mod_p(f, prime)
            assert reduce_curve_mod_p(lift, prime) == reduced
            for coords in points:
                mu = mult_at_point(reduced.f_p, coords, projective).mu
                for stop in caps:
                    got = mult_at_point(lift, coords, projective, stop, plans, prime).mu
                    assert got == (mu if stop is None else min(mu, stop)), (prime, coords, stop)

    @pytest.mark.parametrize("f, H", SHARED_PLAN_CURVES)
    def test_cover_window(self, f, H):
        # the cover's good primes and cap; the curve's points at every prime,
        # and every point of P^2 over the residue fields with at most 16
        # elements
        log_h = math.log(H)
        window = primes_in_range(max(log_h, 1), 4 * log_h**4, field_for_poly(f).q)
        good = [prime for prime in window if reduce_curve_mod_p(f, prime).good]
        # binomials that vanish mod p, and over F_q(t) a residue field F_q[t]/(pi)
        assert any(prime.residue_field.characteristic <= f.degree for prime in good)
        if not good[0].is_rational:
            assert any(prime.generator.degree >= 2 for prime in good if prime.norm <= 16)
        points = enum_curve_points_proj(f, H).points
        prime_points = []
        for prime in good:
            coords = [reduce_point_mod_p(p, prime).coords for p in points]
            if prime.norm <= 16:
                coords += proj_points_over(prime.residue_field, 3)
            prime_points.append((prime, coords))
        self.check(f, prime_points, [None, *range(1, math.ceil(f.degree / log_h) + 1)], True)

    def test_affine_curve_whose_degree_drops(self):
        f = poly_parse("5*x0^3*x1 + x0^2 - x1^2 + 3*x0 - 1", 2, ZZ)
        assert reduce_curve_mod_p(f, PrimeIdealDesc(5, 5)).reduced_degree == 2 < f.degree
        prime_points = [
            (prime, list(product(range(prime.norm), repeat=2))) for prime in primes_in_range(1, 12)
        ]
        self.check(f, prime_points, [None, *range(1, f.degree + 2)], False)


class TestCycles:
    def test_triple_line(self):
        x0 = poly_parse("x0", 3, GF7)
        assert cycle_mult(FactoredCycle(((x0, 3),), 3, 1), (0, 1, 0)).mu == 3

    def test_two_lines(self):
        x0, x1 = poly_parse("x0", 3, GF7), poly_parse("x1", 3, GF7)
        assert cycle_mult(FactoredCycle(((x0, 1), (x1, 1)), 3, 1), (0, 0, 1)).mu == 2

    def test_weighted_against_expanded_product(self):
        x0 = poly_parse("x0", 3, GF7)
        x01 = poly_parse("x0 + x1", 3, GF7)
        cyc = FactoredCycle(((x0, 2), (x01, 1)), 3, 1)
        assert cycle_mult(cyc, (0, 0, 1)).mu == 3
        assert mult_at_point(cyc.expanded(), (0, 0, 1)).mu == 3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_cycles_match_expansion(self, seed):
        rng = random.Random(seed)
        lines = [
            poly_parse(f"x0 + {a}*x1 + {b}*x2", 3, GF7)
            for a, b in {(rng.randrange(7), rng.randrange(7)) for _ in range(3)}
        ]
        comps = tuple((line, rng.randint(1, 3)) for line in lines)
        cyc = FactoredCycle(comps, 3, 1)
        pt = (0, rng.randrange(7), 1)
        assert cycle_mult(cyc, pt).mu == mult_at_point(cyc.expanded(), pt).mu

    def test_associate_components_rejected(self):
        x0 = poly_parse("x0", 3, GF7)
        with pytest.raises(ValueError):
            FactoredCycle(((x0, 1), (x0.scale(3), 1)), 3, 1)


class TestDerivativeCycle:
    """The derivative curves sum(a_i * df/dx_i) that cycle_A intersects with,
    and its resampling of directions that annihilate a component."""

    def test_single_partial(self):
        f = poly_parse("x0*x2 - x1^2", 3, QQ)
        (a,) = _directions(QQ, 3, (1, 0, 0), 0, 0)
        assert _directional(f, a) == poly_parse("x2", 3, QQ)

    def test_char2_square_fails(self):
        # every partial of x0^2 vanishes in characteristic 2
        f = poly_parse("x0^2", 3, CoeffDomain.prime_field(2))
        with pytest.raises(DerivativeIdenticallyZero):
            cycle_A(FactoredCycle(((f, 1),), 3, 1))

    def test_fermat_cubic(self):
        f = poly_parse("x0^3 + x1^3 + x2^3", 3, QQ)
        (a,) = _directions(QQ, 3, (1, 1, 1), 0, 0)
        assert _directional(f, a) == poly_parse("3*x0^2 + 3*x1^2 + 3*x2^2", 3, QQ)

    def test_resamples_degenerate_direction(self):
        f = poly_parse("x1^2 - x0*x2", 3, GF5)
        A = cycle_A(FactoredCycle(((f, 1),), 3, 1), a=(0, 0, 0), seed=3)
        assert any(A.direction)
        assert not _directional(f, A.direction).is_zero

    @pytest.mark.parametrize("dom", [QQ, GF5, F2T], ids=lambda d: d.describe())
    def test_directions_make_the_old_draws(self, dom):
        # the loop that cycle_A and the former derivative_cycle each carried
        def old_loop(nvars, a, seed, max_retries):
            rng = random.Random(seed)
            for attempt in range(max_retries + 1):
                if attempt == 0 and a is not None:
                    yield [dom.coerce(x) for x in a]
                else:
                    yield [dom.sample(rng) for _ in range(nvars)]

        for a in (None, (1, 0, 2)):
            for seed, max_retries in ((0, 0), (3, 1), (7, 12)):
                want = list(old_loop(3, a, seed, max_retries))
                assert list(_directions(dom, 3, a, seed, max_retries)) == want


class TestFulton:
    def test_transverse_lines(self):
        x, y = poly_parse("x", 2, GF13), poly_parse("y", 2, GF13)
        assert fulton_intersection_number(x, y, (0, 0)) == 1

    def test_parabola_oracle(self):
        # oracle: substitute y = 0 into y - x^2, order of -x^2 at 0 is 2
        y = poly_parse("y", 2, GF13)
        g = poly_parse("y - x^2", 2, GF13)
        assert fulton_intersection_number(y, g, (0, 0)) == 2

    def test_shared_component(self):
        x = poly_parse("x", 2, GF13)
        assert fulton_intersection_number(x, x * x, (0, 0)) == INFINITE

    def test_not_both_vanishing(self):
        x = poly_parse("x", 2, GF13)
        g = poly_parse("y - 1", 2, GF13)
        assert fulton_intersection_number(x, g, (0, 0)) == 0

    def _random_poly(self, rng, dom, dmax):
        while True:
            terms = {}
            for ex in range(dmax + 1):
                for ey in range(dmax + 1 - ex):
                    if rng.random() < 0.5:
                        terms[(ex, ey)] = rng.randrange(dom.p)
            f = MultiPoly(dom, 2, terms)
            if f.degree >= 1:
                return f

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_symmetry_random(self, seed):
        rng = random.Random(seed)
        p = rng.choice([5, 7, 11, 13])
        dom = CoeffDomain.prime_field(p)
        f = self._random_poly(rng, dom, 3)
        g = self._random_poly(rng, dom, 3)
        pt = (rng.randrange(p), rng.randrange(p))
        assert fulton_intersection_number(f, g, pt) == fulton_intersection_number(
            g, f, pt
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_lower_bound_by_mult_product(self, seed):
        rng = random.Random(seed)
        dom = CoeffDomain.prime_field(rng.choice([5, 7, 11, 13]))
        f = self._random_poly(rng, dom, 3)
        g = self._random_poly(rng, dom, 3)
        if gcd_bivariate(f, g).degree >= 1:
            return  # only coprime pairs
        pt = (0, 0)
        i = fulton_intersection_number(f, g, pt)
        mf, mg = mult_at_point(f, pt).mu, mult_at_point(g, pt).mu
        assert i >= mf * mg

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_generic_line_gives_multiplicity(self, seed):
        rng = random.Random(seed)
        p = 13
        dom = CoeffDomain.prime_field(p)
        f = self._random_poly(rng, dom, 3)
        mu = mult_at_point(f, (0, 0)).mu
        if mu == 0:
            return
        exceptional = 0
        total = 0
        for slope in range(p):
            line = poly_parse(f"y - {slope}*x", 2, dom)
            i = fulton_intersection_number(f, line, (0, 0))
            total += 1
            if i != mu:
                exceptional += 1
            if total >= 2 * f.degree + 1:
                break
        assert exceptional <= f.degree

    def test_invariance_under_adding_multiples(self):
        rng = random.Random(8)
        dom = GF13
        for _ in range(15):
            f = self._random_poly(rng, dom, 2)
            g = self._random_poly(rng, dom, 2)
            h = self._random_poly(rng, dom, 1)
            i1 = fulton_intersection_number(f, g, (0, 0))
            i2 = fulton_intersection_number(f, g + h * f, (0, 0))
            assert i1 == i2


def bezout_sum(F, G):
    """Sum of local intersection numbers over all rational common zeros in
    the projective plane."""
    dom = F.domain
    total = 0
    for pt in proj_points_over(dom, 3):
        if dom.is_zero(F.evaluate(pt)) and dom.is_zero(G.evaluate(pt)):
            from ratgrowth.reduction import _proj_intersection_number

            total += _proj_intersection_number(F, G, pt)
    return total


class TestBezout:
    def test_line_products(self):
        rng = random.Random(31)
        dom = GF7
        built = 0
        while built < 8:
            f_lines = [
                poly_parse(f"x0 + {rng.randrange(7)}*x1 + {rng.randrange(7)}*x2", 3, dom)
                for _ in range(2)
            ]
            g_lines = [
                poly_parse(f"x1 + {rng.randrange(7)}*x2", 3, dom),
                poly_parse(f"x0 + {rng.randrange(7)}*x2", 3, dom),
            ]
            F = f_lines[0] * f_lines[1]
            G = g_lines[0] * g_lines[1]
            if gcd_bivariate(F.dehomogenize(2), G.dehomogenize(2)).degree >= 1:
                continue
            built += 1
            assert bezout_sum(F, G) == F.degree * G.degree

    def test_conic_line(self):
        conic = poly_parse("x0*x2 - x1^2", 3, GF7)
        line = poly_parse("x1", 3, GF7)
        assert bezout_sum(conic, line) == 2


class TestCycleA:
    def test_two_lines(self):
        x0, x1 = poly_parse("x0", 3, GF7), poly_parse("x1", 3, GF7)
        A = cycle_A(FactoredCycle(((x0, 1), (x1, 1)), 3, 1), seed=1)
        assert A.total_degree == 2
        assert A.total_degree < 4
        assert dict(A.point_mults)[(0, 0, 1)] == 2

    def test_double_line_boundary(self):
        x0 = poly_parse("x0", 3, GF7)
        A = cycle_A(FactoredCycle(((x0, 2),), 3, 1), seed=1)
        # derivative of a line is a nonzero constant: empty cycle
        assert A.total_degree == 0

    def test_conic_plus_line(self):
        conic = poly_parse("x0*x2 - x1^2", 3, GF7)
        line = poly_parse("x0", 3, GF7)
        A = cycle_A(FactoredCycle(((conic, 1), (line, 1)), 3, 1), seed=1)
        assert A.total_degree < 9
        pts = dict(A.point_mults)
        assert pts.get((0, 0, 1), 0) >= 2  # tangential meet counts twice

    def test_claim_inequality_fixture(self):
        # three concurrent lines, D = 3, k = 1.5: the common point has
        # cycle multiplicity 3 > D/k = 2 and is singular on no component
        lines = [poly_parse(f"x0 - {a}*x1", 3, GF13) for a in (0, 1, 2)]
        cyc = FactoredCycle(tuple((l, 1) for l in lines), 3, 1)
        A = cycle_A(cyc, seed=2)
        D, k = 3, 1.5
        pt = (0, 0, 1)
        assert cycle_mult(cyc, pt).mu == 3 > D / k
        excluded = any(
            n > D / (2 * k) and mult_at_point(f, pt).mu == 1
            for f, n in cyc.components
        )
        if not excluded:
            assert dict(A.point_mults)[pt] > D * D / (8 * k * k)


class TestHighMultLocus:
    def test_power_of_line(self):
        f = poly_parse("x0", 3, GF5) ** 4
        loc = high_mult_locus(f, 2, 5)
        assert loc.kind == "ok"
        assert loc.degree == 1
        assert loc.poly == poly_parse("x0", 3, GF5)
        assert len(loc.locus) == 6  # the line x0 = 0 in P^2(F_5)

    def test_star_of_lines(self):
        lines = [poly_parse(f"x0 - {a}*x1", 3, GF7) for a in range(6)]
        f = lines[0]
        for l in lines[1:]:
            f = f * l
        loc = high_mult_locus(f, 2, 6)
        assert loc.kind == "ok"
        assert loc.locus == ((0, 0, 1),)
        assert loc.degree == 1

    def test_smooth_conic_empty(self):
        conic = poly_parse("x0*x2 - x1^2", 3, GF5)
        loc = high_mult_locus(conic, 1.5, 5)
        assert loc.kind == "empty" and loc.degree == 0

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_k_refused(self, k):
        # Fraction(inf) raised OverflowError, Fraction(nan) named no parameter
        with pytest.raises(ValueError, match="^k must be finite"):
            high_mult_locus(poly_parse("x0", 3, GF5) ** 4, k, 5)

    def test_all_points_sentinel(self):
        line = poly_parse("x0", 3, GF5)
        loc = high_mult_locus(line, 2, 5)  # D/k = 1/2 < 1
        assert loc.kind == "all_points"

    def test_interpolant_vanishes_on_locus(self):
        rng = random.Random(12)
        for _ in range(5):
            lines = []
            while len(lines) < 4:
                cand = poly_parse(
                    f"x0 + {rng.randrange(5)}*x1 + {rng.randrange(5)}*x2", 3, GF5
                )
                if all(cand != l for l in lines):
                    lines.append(cand)
            f = lines[0] * lines[1] * lines[2] * lines[3]
            loc = high_mult_locus(f, 2, 8)
            if loc.kind != "ok":
                continue
            for pt in loc.locus:
                assert GF5.is_zero(loc.poly.evaluate(pt))

    def test_scan_above_the_budget_refused(self):
        # P^2(F_1511) has 2 284 633 points
        f = poly_parse("x0^2*x1", 3, CoeffDomain.prime_field(1511))
        with pytest.raises(BudgetExceededError) as exc:
            high_mult_locus(f, 2, 3)
        assert (exc.value.budget, exc.value.visited) == (LOCUS_BUDGET, 1 + 1511 + 1511**2)
        # the refusal names the locus scan, not an enumeration
        assert exc.value.stage == "high-multiplicity locus"
        assert str(exc.value) == "high-multiplicity locus budget exceeded: 2284633 > 2000000"

    @pytest.mark.parametrize("text, k", [("x0^3", 2), ("x0", 2), ("x0^4", 1)])
    def test_form_in_one_variable_refused(self, text, k):
        # a form in one variable cuts P^0, which has no locus to scan; the
        # refusal names that, whatever the threshold
        f = poly_parse(text, 1, GF5)
        with pytest.raises(ValueError, match="positive-dimensional projective space"):
            high_mult_locus(f, k, 3)

    def test_no_form_below_the_cap(self):
        # the three vertices of the triangle x0*x1*x2 lie on no line
        f = poly_parse("x0*x1*x2", 3, GF5)
        with pytest.raises(NoInterpolantError, match="degree <= 1 vanishes on all 3"):
            high_mult_locus(f, 2, 1)
        loc = high_mult_locus(f, 2, 2)
        assert loc.locus == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert loc.degree == 2 and loc.poly == poly_parse("x0*x1", 3, GF5)

    def test_strict_vs_nonstrict(self):
        f = poly_parse("x0", 3, GF5) ** 4
        strict = high_mult_locus(f, 4, 8, strict=True)  # threshold mult > 1
        loose = high_mult_locus(f, 4, 8, strict=False)  # threshold mult >= 1
        assert len(loose.locus) >= len(strict.locus)


class TestSillyArithmetic:
    def test_spec_examples(self):
        assert silly_arithmetic_check((1, 1, 1))
        assert silly_arithmetic_check((3, 1, 1))  # hypothesis fails: vacuous
        assert silly_arithmetic_check((2, 2, 1))

    def test_exhaustive_small(self):
        import itertools

        for n in range(1, 4):
            for xs in itertools.product(range(7), repeat=n):
                assert silly_arithmetic_check(xs)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            silly_arithmetic_check((-1, 2))
