"""Point enumeration: fast paths vs brute-force oracles, sieving, caps."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly, poly_to_index
from ratgrowth.algebra.multipoly import MultiPoly, poly_parse
from ratgrowth.algebra.primes import PrimeIdealDesc
from ratgrowth.enumeration import (
    BudgetExceededError,
    EnumOptions,
    PointQuery,
    brute_force_affine_points,
    brute_force_curve_points,
    brute_force_proj_points,
    enum_affine_hypersurface,
    enum_curve_points_proj,
    enum_proj_points,
    run_query,
)
from ratgrowth.enumeration import _solve_sieve_primes
from ratgrowth.globalfield import GlobalField, height_proj, primitive_normalize

Q = GlobalField.rationals()
F2 = GlobalField.function_field(2)
F3 = GlobalField.function_field(3)
ZZ = CoeffDomain.integers()
F2T = CoeffDomain.poly_ring(2)
F3T = CoeffDomain.poly_ring(3)


class TestProjectiveSpace:
    def test_p1_h1(self):
        # exhaustive listing of primitive pairs with max|.| <= 1:
        # (0:1), (1:0), (1:1), (1:-1)
        assert enum_proj_points(1, 1, Q).count == 4

    def test_p1_h2(self):
        res = enum_proj_points(1, 2, Q)
        assert res.count == 8
        assert set(res.points) == brute_force_proj_points(1, 2, Q)

    def test_p1_f2_h2(self):
        # oracle-derived (exhaustive primitive polynomial pairs, deg <= 1)
        res = enum_proj_points(1, 2, F2)
        oracle = brute_force_proj_points(1, 2, F2)
        assert set(res.points) == oracle
        assert res.count == len(oracle) == 9

    def test_oracle_equivalence_p2(self):
        for H in (1, 2, 3):
            res = enum_proj_points(2, H, Q)
            assert set(res.points) == brute_force_proj_points(2, H, Q)

    def test_monotone_and_capped(self):
        last = 0
        for H in (1, 2, 3, 4, 6):
            count = enum_proj_points(1, H, Q, EnumOptions(collect=False)).count
            assert count >= last
            assert count <= (2 * H + 1) ** 2
            last = count

    def test_points_canonical_and_within_height(self):
        res = enum_proj_points(2, 3, Q)
        for p in res.points:
            assert p.height <= 3
            assert p.coords == primitive_normalize(Q, p.coords).coords
            assert p.height == height_proj(Q, p.coords)

    def test_deterministic_order(self):
        a = enum_proj_points(1, 5, Q).points
        b = enum_proj_points(1, 5, Q).points
        assert a == b
        heights = [p.height for p in a]
        assert heights == sorted(heights)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enum_proj_points(2, 30, Q, EnumOptions(budget=100))

    @pytest.mark.parametrize("field, heights", [(Q, (1, 2, 5, 9)), (F2, (1, 2, 4, 8))])
    def test_count_mode_matches_collect(self, field, heights):
        for n in (1, 2):
            for H in heights:
                counted = enum_proj_points(n, H, field, EnumOptions(collect=False))
                collected = enum_proj_points(n, H, field)
                assert counted.points is None
                assert counted.count == collected.count == len(collected.points)

    @pytest.mark.parametrize(
        "field, cases",
        [
            (Q, [(1, range(1, 9)), (2, range(1, 9)), (3, range(1, 5))]),
            (F2, [(1, (1, 3, 5, 7, 9)), (2, (1, 3, 5, 7, 9)), (3, (1, 3))]),
            (F3, [(1, (1, 2, 4, 8, 10)), (2, (1, 2, 4, 8))]),
            (GlobalField.function_field(5), [(1, (1, 4, 6)), (2, (1, 4))]),
        ],
    )
    def test_count_mode_matches_oracle(self, field, cases):
        # over F_q(t) the heights are 1, q^k - 1 and q^k + 1
        for n, heights in cases:
            for H in heights:
                counted = enum_proj_points(n, H, field, EnumOptions(collect=False)).count
                assert counted == len(brute_force_proj_points(n, H, field)), (n, H)

    def test_count_mode_pins(self):
        assert enum_proj_points(1, 100, Q, EnumOptions(collect=False)).count == 12176
        assert enum_proj_points(2, 25, Q, EnumOptions(collect=False)).count == 55585

    def test_count_mode_against_mobius_sum(self):
        # #P^n(Q, H) = 1/2 sum_k mu(k) ((2 [H/k] + 1)^(n+1) - 1), with mu sieved here
        H = 10**4
        mu = [1] * (H + 1)
        is_prime = [True] * (H + 1)
        for p in range(2, H + 1):
            if is_prime[p]:
                for m in range(p, H + 1, p):
                    is_prime[m] = m == p
                    mu[m] = -mu[m]
                for m in range(p * p, H + 1, p * p):
                    mu[m] = 0
        for n in (1, 2):
            want = sum(mu[k] * ((2 * (H // k) + 1) ** (n + 1) - 1) for k in range(1, H + 1)) // 2
            assert enum_proj_points(n, H, Q, EnumOptions(collect=False)).count == want

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_count_mode_against_degree_recursion(self, q):
        # the nonzero tuples of degree <= k are their monic gcd g times a
        # primitive tuple of degree <= k - deg g, and there are q^j monic g
        # of degree j: P(k) = q^((k+1)(n+1)) - 1 - sum_{j=1..k} q^j P(k-j)
        field = GlobalField.function_field(q)
        for n in (1, 2, 3):
            prim = []
            for k in range(41):
                prim.append(q ** ((k + 1) * (n + 1)) - 1 - sum(q**j * prim[k - j] for j in range(1, k + 1)))
                for H in {q**k, q ** (k + 1) - 1}:
                    got = enum_proj_points(n, H, field, EnumOptions(collect=False)).count
                    assert got == prim[k] // (q - 1), (n, k, H)

    def test_count_mode_never_walks_the_box(self, monkeypatch):
        def walk(*args):
            raise AssertionError("count mode built the height box")

        monkeypatch.setattr(GlobalField, "box", walk)
        for field, H in [(Q, 1), (Q, 2), (Q, 1000), (F2, 1), (F2, 2**40), (F3, 10)]:
            for n in (1, 2, 3):
                assert enum_proj_points(n, H, field, EnumOptions(collect=False)).count > 0
        with pytest.raises(AssertionError, match="height box"):
            enum_proj_points(1, 2, Q)

    def test_count_mode_budget(self):
        # one step per quotient block of the recursion: 30 blocks at H = 30
        counted = enum_proj_points(2, 30, Q, EnumOptions(budget=100, collect=False))
        assert counted.count == 93313
        assert enum_proj_points(2, 30, Q, EnumOptions(budget=30, collect=False)).count == 93313
        for H, budget in [(30, 29), (30, 0), (10**6, 1000), (10**400, 50_000_000)]:
            with pytest.raises(BudgetExceededError) as err:
                enum_proj_points(2, H, Q, EnumOptions(budget=budget, collect=False))
            assert (err.value.budget, err.value.visited) == (budget, budget + 1)
        # the closed form over F_q(t) takes no step
        assert enum_proj_points(2, 2**40, F2, EnumOptions(budget=0, collect=False)).count == 2**123 - 2**121 + 1

    def test_collect_budget_counts_visited_cells(self):
        # collect mode is the scan of the zero form, so the budget charges
        # the scan's work: its L (N^n - 1) / (N - 1) + 1 prefixes, where L
        # of the N box values are canonical leads, then N candidates for
        # each prefix; there is no sieve prime and so no root table
        for field, n, H, cells in [(Q, 1, 2, 18), (Q, 2, 3, 200), (F2, 1, 2, 20), (F3, 2, 3, 410)]:
            with pytest.raises(BudgetExceededError) as err:
                enum_proj_points(n, H, field, EnumOptions(budget=cells - 1))
            assert err.value.visited == cells
            assert enum_proj_points(n, H, field, EnumOptions(budget=cells)).count > 0

    @pytest.mark.parametrize(
        "field, n, H, count",
        # 3.2 * 10^7 and 1.7 * 10^7 cells, both within the default budget
        [(Q, 2, 200, 26_806_753), (F2, 2, 2**7, 2**24 - 2**22 + 1)],
    )
    def test_collect_refuses_above_the_cap_before_the_box(self, monkeypatch, field, n, H, count):
        import ratgrowth.enumeration as enumeration

        def walk(*args):
            raise AssertionError("collect mode built the height box")

        monkeypatch.setattr(GlobalField, "box", walk)
        with pytest.raises(enumeration.CollectCapExceededError, match="collect mode") as err:
            enum_proj_points(n, H, field)
        assert (err.value.count, err.value.cap) == (count, enumeration.COLLECT_CAP)
        assert f"{count} points" in str(err.value) and str(enumeration.COLLECT_CAP) in str(err.value)
        assert enum_proj_points(n, H, field, EnumOptions(collect=False)).count == count

    def test_huge_height_refused_before_the_box(self):
        with pytest.raises(BudgetExceededError) as err:
            enum_proj_points(2, 10**400, Q)
        assert err.value.visited == 50_000_001
        assert (err.value.stage, str(err.value)) == (
            "enumeration", "enumeration budget exceeded: 50000001 > 50000000"
        )
        with pytest.raises(BudgetExceededError):
            enum_proj_points(2, 2**40, F2)

    @pytest.mark.parametrize(
        "field, n, heights",
        [(Q, 3, (1, 2, 3)), (F2, 3, (1, 2, 4)), (F3, 3, (1, 3)), (F3, 1, (1, 3, 9, 27))],
    )
    def test_oracle_points_and_order(self, field, n, heights):
        # prefixes of n = 3 coordinates lead with any of the first three,
        # and n = 1 leaves the zero prefix and one row of leads
        for H in heights:
            res = enum_proj_points(n, H, field)
            oracle = brute_force_proj_points(n, H, field)
            assert list(res.points) == sorted(oracle, key=lambda p: p.sort_key()), (n, H)
            assert res.count == len(oracle)

    @pytest.mark.parametrize("collect", [True, False])
    def test_sieve_refused(self, collect):
        # the scan takes no prime and the counts read none, so one would silently do nothing
        sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        with pytest.raises(ValueError, match="sieve applies to affine queries only"):
            enum_proj_points(2, 5, Q, EnumOptions(collect=collect, sieve=sieve))


class TestCurvePoints:
    def test_conic_h4(self):
        # parametrization oracle: (b^2 : ab : a^2) over coprime pairs with
        # max(|a|, |b|) <= 2, deduplicated -> 8 points; cross-checked
        # against the exhaustive triple search
        conic = poly_parse("x0*x2 - x1^2", 3, ZZ)
        res = enum_curve_points_proj(conic, 4)
        param = set()
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (a, b) != (0, 0) and __import__("math").gcd(a, b) == 1:
                    param.add(primitive_normalize(Q, (b * b, a * b, a * a)).coords)
        assert {p.coords for p in res.points} == param
        assert res.count == len(param) == 8
        assert set(res.points) == brute_force_curve_points(conic, 4)

    def test_line_reduces_to_p1(self):
        line = poly_parse("x0", 3, ZZ)
        assert enum_curve_points_proj(line, 2).count == enum_proj_points(1, 2, Q).count == 8

    def test_positive_definite_empty(self):
        f = poly_parse("x0^2 + x1^2 + x2^2", 3, ZZ)
        assert enum_curve_points_proj(f, 8).count == 0

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_oracle_equivalence_random(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        f = MultiPoly.zero(ZZ, 3)
        while f.is_zero:
            terms = {}
            from ratgrowth.algebra.multipoly import monomials_of_degree

            for exps in monomials_of_degree(3, d):
                if rng.random() < 0.5:
                    terms[exps] = rng.randint(-4, 4)
            f = MultiPoly(ZZ, 3, terms)
        H = rng.randint(2, 6)
        res = enum_curve_points_proj(f, H)
        assert set(res.points) == brute_force_curve_points(f, H)

    def test_ff_curve_oracle(self):
        f = poly_parse("x0*x2 - x1^2", 3, F2T)
        for H in (2, 4):
            res = enum_curve_points_proj(f, H)
            assert set(res.points) == brute_force_curve_points(f, H)

    def test_count_mode_builds_no_points(self, monkeypatch):
        # the oracle curves of this class; count mode must give the collect
        # count without building a ProjPoint
        import ratgrowth.enumeration as enumeration

        cases = [
            (poly_parse("x0*x2 - x1^2", 3, ZZ), 4),
            (poly_parse("x0*x2 - x1^2", 3, F2T), 4),
            (poly_parse("x0*x1*(x0-x1)*(x1+x2)", 3, ZZ), 13),
            (poly_parse("(t^3+t+1)*(x0*x2 - x1^2 + t*x0*x1)", 3, F2T), 16),
            (poly_parse("(t+1)*(x0*x2 - x1^2)*(x1 + t*x2)", 3, F3T), 9),
            (poly_parse("x0*x2/2 - x1^2/3 + x0*x1", 3, CoeffDomain.rationals()), 12),
        ]
        collected = [enum_curve_points_proj(f, H) for f, H in cases]
        assert all(res.count == len(res.points) > 0 for res in collected)

        def build(*args):
            raise AssertionError("count mode built a point")

        # collect mode builds its points through globalfield._proj_point
        monkeypatch.setattr(enumeration, "_proj_point", build)
        for (f, H), res in zip(cases, collected):
            counted = enum_curve_points_proj(f, H, EnumOptions(collect=False))
            assert (counted.count, counted.points) == (res.count, None)
        with pytest.raises(AssertionError, match="built a point"):
            enum_curve_points_proj(*cases[0])

    def test_count_invariance_under_permutation_and_scaling(self):
        f = poly_parse("x0*x2 - x1^2 + x0*x1", 3, ZZ)
        base = enum_curve_points_proj(f, 5).count
        assert enum_curve_points_proj(f.permute_variables([2, 0, 1]), 5).count == base
        assert enum_curve_points_proj(f.scale(-3), 5).count == base

    def test_sieve_prime_rule(self):
        # among the norms <= N/4: the smallest >= isqrt(N) in ascending order
        # until the product of the norms exceeds N, then the smaller ones in
        # descending order
        def norms(field, nvals):
            return [(str(p), p.norm) for p in _solve_sieve_primes(field, nvals)]

        assert norms(Q, 7) == []
        assert norms(Q, 61) == [("7", 7), ("11", 11)]
        assert norms(Q, 71) == norms(Q, 101) == [("11", 11), ("13", 13)]
        assert norms(Q, 371) == [("19", 19), ("23", 23)]
        assert norms(F2, 64) == [("t^3+t+1", 8), ("t^3+t^2+1", 8), ("t^4+t+1", 16)]
        assert norms(F3, 81) == [("t^2+1", 9), ("t^2+t+2", 9), ("t^2+2*t+2", 9)]
        # the selections of the former largest-norm-first rule at the boxes
        # of the covers over Q (N <= 41) and of the F_q(t) counts and covers
        assert norms(Q, 13) == [("3", 3), ("2", 2)]
        assert norms(Q, 21) == [("5", 5), ("3", 3), ("2", 2)]
        assert norms(Q, 41) == [("7", 7), ("5", 5), ("3", 3)]
        assert norms(F2, 8) == [("t", 2), ("t+1", 2)]
        assert norms(F2, 16) == [("t^2+t+1", 4), ("t", 2), ("t+1", 2)]
        assert norms(F2, 32) == [("t^3+t+1", 8), ("t^3+t^2+1", 8)]
        assert norms(F3, 9) == []
        assert norms(F3, 27) == [("t", 3), ("t+1", 3), ("t+2", 3)]

    def test_sieve_primes_match_the_per_field_pools(self, monkeypatch):
        # the former pools, one per field, built from the rational primes and
        # from the monic irreducibles of each degree
        from bisect import bisect_left
        from itertools import chain, count, takewhile

        import ratgrowth.enumeration as enumeration
        from ratgrowth.algebra.fqpoly import monic_irreducibles_of_degree
        from ratgrowth.algebra.primes import primes_in_range, rational_primes_below

        # the pool is listed near isqrt(N), not up to N/4
        tops = []

        def listing(lo, hi, q):
            tops.append(hi)
            return primes_in_range(lo, hi, q)

        monkeypatch.setattr(enumeration, "primes_in_range", listing)

        def oracle(field, nvals):
            root, top = math.isqrt(nvals), nvals // 4
            if field.is_rational:
                small = rational_primes_below(top + 1)
                cut = bisect_left(small, root)
                pool = (PrimeIdealDesc(p, p) for p in chain(small[cut:], reversed(small[:cut])))
            else:
                q = field.q
                degrees = list(takewhile(lambda k: q**k <= top, count(1)))
                order = [k for k in degrees if q**k >= root]
                order += [k for k in reversed(degrees) if q**k < root]
                pool = (PrimeIdealDesc(g, q**k) for k in order for g in monic_irreducibles_of_degree(q, k))
            chosen, modulus = [], 1
            for prime in pool:
                if modulus > nvals:
                    break
                chosen.append(prime)
                modulus *= prime.norm
            return chosen

        def check(field, nvals):
            tops.clear()
            assert _solve_sieve_primes(field, nvals) == oracle(field, nvals), (field, nvals)
            assert max(tops, default=0) <= 8 * math.isqrt(nvals), (field, nvals, tops)

        for nvals in range(1, 3000):
            check(Q, nvals)
        for q in (2, 3, 5, 7):
            for nvals in takewhile(lambda n: n < 10**6, (q**k for k in count(1))):
                check(GlobalField.function_field(q), nvals)

    @pytest.mark.parametrize("seed", range(6))
    def test_sieved_oracle_random_q(self, seed):
        # cubics and quartics at H = 12..25, where the residue sieve runs;
        # half of them through a line, so they carry points, and every
        # third one scaled by a content that a sieve prime divides
        from ratgrowth.algebra.multipoly import monomials_of_degree

        rng = random.Random(7000 + seed)
        H = (12, 14, 16, 18, 20, 25)[seed]
        d = 3 + seed % 2

        def form(deg):
            f = MultiPoly.zero(ZZ, 3)
            while f.is_zero:
                terms = {e: rng.randint(-3, 3) for e in monomials_of_degree(3, deg) if rng.random() < 0.6}
                f = MultiPoly(ZZ, 3, terms)
            return f

        f = form(1) * form(d - 1) if seed % 2 else form(d)
        if seed % 3 == 0:
            f = f.scale(_solve_sieve_primes(Q, 2 * H + 1)[0].norm * 2)
        assert _solve_sieve_primes(Q, 2 * H + 1)
        assert set(enum_curve_points_proj(f, H).points) == brute_force_curve_points(f, H)

    def test_sieved_oracle_identically_vanishing_pairs(self):
        # x1 is a factor and not the solve variable (it has the most distinct
        # exponents), so every fixed pair with x1 = 0 collapses to the zero
        # univariate and all its solve values are points
        f = poly_parse("x0*x1*(x0-x1)*(x1+x2)", 3, ZZ)
        res = enum_curve_points_proj(f, 13)
        assert set(res.points) == brute_force_curve_points(f, 13)
        assert res.count > 4 * 13

    @pytest.mark.parametrize(
        "text, dom, H, nvals",
        [
            ("(t^3+t+1)*(x0*x2 - x1^2 + t*x0*x1)", F2T, 16, 32),
            ("(t+1)*(x0*x2 - x1^2)*(x1 + t*x2)", F3T, 9, 27),
        ],
    )
    def test_sieved_oracle_function_field(self, text, dom, H, nvals):
        # the content is divisible by a sieve prime (t^3+t+1, resp. t+1);
        # nvals is the number of polynomials of degree <= log_q H
        f = poly_parse(text, 3, dom)
        assert _solve_sieve_primes(GlobalField.function_field(dom.q), nvals)
        res = enum_curve_points_proj(f, H)
        assert set(res.points) == brute_force_curve_points(f, H)
        assert res.count > 0

    @pytest.mark.parametrize(
        "text, dom, H",
        [
            ("x0*x2/2 - x1^2/3 + x0*x1", CoeffDomain.rationals(), 12),
            ("x0*x2/(t+1) - x1^2 + x0*x1", CoeffDomain.rational_functions(2), 4),
        ],
    )
    def test_sieved_oracle_fraction_coefficients(self, text, dom, H):
        # the sieve tables clear the denominators before they take the content
        f = poly_parse(text, 3, dom)
        assert set(enum_curve_points_proj(f, H).points) == brute_force_curve_points(f, H)

    def test_budget_counts_every_box_cell(self):
        # an implementation pin, named when the budget counted every box
        # cell: the fixed pairs (canonical leads times
        # N + 1, plus the zero pair) and the p^3 root-table evaluations of
        # each sieve prime are charged before the box is listed, then each
        # candidate solve value; a refusal reports budget + 1
        cases = [
            # 10 * 22 + 1 pairs, primes 5, 3, 2, then 116 candidates
            (poly_parse("x0^3+x1^3-2*x2^3+x0*x1*x2", 3, ZZ), 10, 221, 221 + 160, 497, 1),
            # 15 * 17 + 1 pairs, primes t^2+t+1, t, t+1, then 925 candidates
            (poly_parse("x0^3+x1^3+x2^3+x0*x1*x2", 3, F2T), 8, 256, 256 + 80, 1261, 130),
        ]
        for f, H, pairs, tables, charge, count in cases:
            for budget in (0, pairs - 1, pairs, tables - 1, tables, charge - 1):
                with pytest.raises(BudgetExceededError) as err:
                    enum_curve_points_proj(f, H, EnumOptions(budget=budget))
                assert (err.value.budget, err.value.visited) == (budget, budget + 1)
            assert enum_curve_points_proj(f, H, EnumOptions(budget=charge)).count == count

    def test_budget_charges_the_scan_not_the_box(self):
        # the box of the conic at H = 185 has 371^3 > 5*10^7 cells, but the
        # scan visits about 7*10^4 prefixes and evaluates few candidates
        conic = poly_parse("x0*x2 - x1^2", 3, ZZ)
        assert enum_curve_points_proj(conic, 185).count == 232

    def test_huge_height_refused_before_the_box(self):
        # the fixed pairs alone exceed the budget, so neither the primes
        # nor the box values are computed
        cases = [
            (poly_parse("x1*x0^2 - x2^3", 3, ZZ), 10**400),
            (poly_parse("x0*x2 - x1^2", 3, F2T), 2**40),
        ]
        for f, H in cases:
            with pytest.raises(BudgetExceededError) as err:
                enum_curve_points_proj(f, H)
            assert err.value.visited == 50_000_001

    @pytest.mark.parametrize("collect", [True, False])
    def test_sieve_refused(self, collect):
        # the scan takes its own primes, so a given sieve would silently do nothing
        conic = poly_parse("x0^2+x1^2-x2^2", 3, ZZ)
        sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        with pytest.raises(ValueError, match="sieve applies to affine queries only"):
            enum_curve_points_proj(conic, 20, EnumOptions(collect=collect, sieve=sieve))

    @pytest.mark.parametrize(
        "text, dom, H",
        [("x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)", ZZ, 10), ("x0*x1*x2*(x0+x1)*(x1+x2)", F2T, 8)],
    )
    def test_collect_stops_at_the_cap_as_it_scans(self, monkeypatch, text, dom, H):
        import ratgrowth.enumeration as enumeration

        f = poly_parse(text, 3, dom)
        total = enum_curve_points_proj(f, H).count
        cap = total // 4
        monkeypatch.setattr(enumeration, "COLLECT_CAP", cap)
        with pytest.raises(enumeration.CollectCapExceededError) as err:
            enum_curve_points_proj(f, H)
        # the scan stopped once it kept more than the cap, well before the end
        assert cap < err.value.count < total and err.value.cap == cap
        assert f"would keep at least {err.value.count} points, above the cap of {cap}" in str(err.value)
        assert enum_curve_points_proj(f, H, EnumOptions(collect=False)).count == total
        monkeypatch.setattr(enumeration, "COLLECT_CAP", total)
        assert len(enum_curve_points_proj(f, H).points) == total

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            enum_curve_points_proj(poly_parse("0", 3, ZZ), 4)
        with pytest.raises(ValueError):
            enum_curve_points_proj(poly_parse("x0^2 + x1", 3, ZZ), 4)


class TestAffine:
    def test_diagonal_line(self):
        f = poly_parse("x0 - x1", 2, ZZ)
        assert enum_affine_hypersurface(f, 3).count == 7

    def test_hyperbola(self):
        f = poly_parse("x0*x1 - 2", 2, ZZ)
        res = enum_affine_hypersurface(f, 2)
        assert set(res.points) == {(1, 2), (2, 1), (-1, -2), (-2, -1)}
        assert set(res.points) == brute_force_affine_points(f, 2)

    def test_unit_circle(self):
        f = poly_parse("x0^2 + x1^2 - 1", 2, ZZ)
        assert enum_affine_hypersurface(f, 1).count == 4

    def test_sieve_never_changes_results(self):
        f = poly_parse("x0^2 + x1*x2 - 7", 3, ZZ)
        plain = enum_affine_hypersurface(f, 4)
        for primes in [(3,), (3, 5), (5, 7)]:
            sieve = tuple(PrimeIdealDesc(p, p) for p in primes)
            sieved = enum_affine_hypersurface(f, 4, EnumOptions(sieve=sieve))
            assert set(sieved.points) == set(plain.points)

    def test_sieve_rejections_counted(self):
        f = poly_parse("x0*x1 - 2", 2, ZZ)
        sieved = enum_affine_hypersurface(
            f, 2, EnumOptions(sieve=(PrimeIdealDesc(3, 3),))
        )
        assert sieved.sieve_rejections > 0

    def test_sieve_rejections_exact(self):
        # a candidate is rejected iff f(x) is nonzero modulo some sieve prime
        f = poly_parse("x0^2 + x1*x2 - 7", 3, ZZ)
        for primes in [(3,), (3, 5), (5, 7)]:
            sieve = tuple(PrimeIdealDesc(p, p) for p in primes)
            got = enum_affine_hypersurface(f, 3, EnumOptions(sieve=sieve)).sieve_rejections
            box = range(-3, 4)
            values = [f.evaluate((a, b, c)) for a in box for b in box for c in box]
            assert got == sum(1 for v in values if any(v % p for p in primes))

    def test_sieve_rejections_with_divisible_content(self):
        # pinned before the shared root tables: 3 divides the content, and
        # the sieve by 3 tests the primitive part
        f = poly_parse("3*(x0^2+x1^2-x2^2)", 3, ZZ)
        sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        for B, count, rejections in [(4, 33, 680), (6, 65, 2028)]:
            res = enum_affine_hypersurface(f, B, EnumOptions(sieve=sieve))
            assert (res.count, res.sieve_rejections) == (count, rejections)

    @pytest.mark.parametrize("seed", range(6))
    def test_automatic_sieve_oracle_random_q(self, seed):
        # quadrics and cubics in 3 variables at B = 4..12, where the
        # automatic primes run; half of them times an affine linear form, so
        # they carry points
        from ratgrowth.algebra.multipoly import monomials_of_degree

        rng = random.Random(8000 + seed)
        B = (4, 6, 8, 9, 10, 12)[seed]
        d = 2 + seed % 2

        def poly(deg):
            f = MultiPoly.zero(ZZ, 3)
            while f.is_zero or f.degree < 1:
                terms = {
                    e: rng.randint(-3, 3)
                    for k in range(deg + 1)
                    for e in monomials_of_degree(3, k)
                    if rng.random() < 0.6
                }
                f = MultiPoly(ZZ, 3, terms)
            return f

        f = poly(1) * poly(d - 1) if seed % 2 == 0 else poly(d)
        assert _solve_sieve_primes(Q, 2 * B + 1)
        res = enum_affine_hypersurface(f, B)
        assert set(res.points) == brute_force_affine_points(f, B)
        assert len(res.points) == res.count and res.sieve_rejections == 0

    @pytest.mark.parametrize(
        "text, dom, B",
        [
            # automatic primes t^2+t+1, t, t+1
            ("x0^2 + x1*x2 + t*x0 + t^2", F2T, 8),
            # automatic primes t, t+1, t+2; the content t+1 is one of them
            ("(t+1)*(x0^2 - x1*x2 + t)", F3T, 9),
            # automatic primes 3, 2 over Q; 3 divides the content
            ("3*(x0^2 + x1^2 - x2^2)", ZZ, 6),
        ],
    )
    def test_automatic_sieve_oracle(self, text, dom, B):
        f = poly_parse(text, 3, dom)
        field = Q if dom is ZZ else GlobalField.function_field(dom.q)
        assert len(_solve_sieve_primes(field, field.box_side(B))) >= 2
        res = enum_affine_hypersurface(f, B)
        assert set(res.points) == brute_force_affine_points(f, B)
        assert res.count > 0 and res.sieve_rejections == 0

    def test_user_prime_equal_to_an_automatic_one(self):
        # the automatic primes at B = 6 are 3 and 2; the user's 3 is taken
        # once, and only the user's primes count as rejections
        f = poly_parse("x0^2 + x1*x2 - 7", 3, ZZ)
        assert [p.norm for p in _solve_sieve_primes(Q, 13)] == [3, 2]
        box = range(-6, 7)
        values = [f.evaluate((a, b, c)) for a in box for b in box for c in box]
        oracle = brute_force_affine_points(f, 6)
        for primes in [(3,), (3, 5), (5, 7), (2, 3)]:
            sieve = tuple(PrimeIdealDesc(p, p) for p in primes)
            res = enum_affine_hypersurface(f, 6, EnumOptions(sieve=sieve))
            assert set(res.points) == oracle
            assert res.sieve_rejections == sum(1 for v in values if any(v % p for p in primes))

    def test_automatic_sieve_at_a_large_box(self):
        # x0^2 + x1^2 = x2^2 in the box of side 121: each pair (x0, x1)
        # whose sum of squares is a square s^2 <= 60^2 gives x2 = +-s
        f = poly_parse("x0^2+x1^2-x2^2", 3, ZZ)
        want = 0
        for a in range(-60, 61):
            for b in range(-60, 61):
                s = math.isqrt(a * a + b * b)
                if s * s == a * a + b * b and s <= 60:
                    want += 1 if s == 0 else 2
        # without the automatic primes 11 and 13 the 121^3 cells would all
        # be candidates, far past this budget
        res = enum_affine_hypersurface(f, 60, EnumOptions(collect=False, budget=10**5))
        assert (res.count, res.sieve_rejections) == (want, 0) == (897, 0)

    def test_ff_affine(self):
        f = poly_parse("x0*x1 - 1", 2, F2T)
        res = enum_affine_hypersurface(f, 2)
        assert set(res.points) == brute_force_affine_points(f, 2)

    def test_budget_counts_every_box_cell(self):
        # an implementation pin, named when the budget counted every box
        # cell: the N^(n-1) prefixes and the p^n root-table
        # evaluations of each sieve prime are charged before the box is
        # listed, then each candidate; a refusal reports budget + 1
        cases = [
            # N = 7: no sieve prime, so all 7^3 cells are candidates
            (ZZ, 3, 49, 49, 49 + 343, 25),
            # N = 8: primes t and t+1, then 128 candidates
            (F2T, 4, 64, 64 + 16, 64 + 16 + 128, 64),
        ]
        for dom, B, prefixes, tables, charge, count in cases:
            f = poly_parse("x0^2+x1^2-x2^2", 3, dom)
            for budget in (0, prefixes - 1, tables - 1, charge - 1):
                with pytest.raises(BudgetExceededError) as err:
                    enum_affine_hypersurface(f, B, EnumOptions(budget=budget))
                assert (err.value.budget, err.value.visited) == (budget, budget + 1)
            res = enum_affine_hypersurface(f, B, EnumOptions(budget=charge))
            assert (res.count, res.sieve_rejections) == (count, 0)

    def test_huge_box_refused_before_the_box(self):
        for f, B in [(poly_parse("x0 - x1", 2, ZZ), 10**400), (poly_parse("x0 - x1", 2, F2T), 2**40)]:
            with pytest.raises(BudgetExceededError) as err:
                enum_affine_hypersurface(f, B)
            assert err.value.visited == 50_000_001

    def test_sieved_point_order(self):
        # pinned before the shared prefix x solve scan: the points come in
        # coordinate order whichever variable is solved for
        sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        f = poly_parse("x0^3+x0*x2+x1-x2^2", 3, ZZ)  # solves for x1
        res = enum_affine_hypersurface(f, 3, EnumOptions(sieve=sieve))
        assert res.sieve_rejections == 320
        assert res.points == (
            (-1, 1, -1), (-1, 1, 0), (-1, 3, -2), (-1, 3, 1), (0, 0, 0), (0, 1, -1),
            (0, 1, 1), (1, -1, 0), (1, -1, 1), (1, 1, -1), (1, 1, 2), (2, 0, -2),
        )
        f = poly_parse("x0^2+x1*x2+t", 3, F2T)  # solves for x0
        prime = PrimeIdealDesc(FqPoly(2, [1, 1, 1]), 4)
        res = enum_affine_hypersurface(f, 4, EnumOptions(sieve=(prime,)))
        assert res.sieve_rejections == 384
        assert [" ".join(map(str, p)) for p in res.points] == [
            "0 1 t", "0 t 1", "1 1 t+1", "1 t+1 1", "t 1 t^2+t", "t t t+1",
            "t t+1 t", "t t^2+t 1", "t+1 1 t^2+t+1", "t+1 t^2+t+1 1",
            "t^2 t^2+t t^2+t+1", "t^2 t^2+t+1 t^2+t",
        ]

    def test_sieve_prime_from_another_field(self):
        cases = [
            (poly_parse("x0^2+x1^2-x2^2", 3, F2T), PrimeIdealDesc(3, 3), "F_2(t)"),
            (poly_parse("x0^2+x1^2-x2^2", 3, ZZ), PrimeIdealDesc(FqPoly.t(2), 2), "Q"),
            (poly_parse("x0^2+x1^2-x2^2", 3, F3T), PrimeIdealDesc(FqPoly.t(2), 2), "F_3(t)"),
        ]
        for f, prime, name in cases:
            with pytest.raises(ValueError, match=rf"sieve prime {re.escape(str(prime.generator))}.*{re.escape(name)}"):
                enum_affine_hypersurface(f, 4, EnumOptions(sieve=(prime,)))


class TestQueryAndBounds:
    def test_run_query_projective(self):
        q = PointQuery(field=Q, ambient="projective", nvars=2, f=None, bound=2)
        assert run_query(q).count == 8

    def test_query_validation(self):
        with pytest.raises(ValueError):
            PointQuery(field=Q, ambient="projective", nvars=3, f=poly_parse("x0+1", 3, ZZ), bound=2)
        with pytest.raises(ValueError):
            PointQuery(field=Q, ambient="affine", nvars=2, f=None, bound=0)

    def test_query_rejects_unknown_ambient_and_mode(self):
        with pytest.raises(ValueError, match="ambient"):
            PointQuery(Q, "proj", 3, None, 5)
        with pytest.raises(ValueError, match="mode"):
            PointQuery(Q, "projective", 3, None, 5, mode="cnt")
        q = PointQuery(Q, "projective", 3, None, 2, mode="count")
        assert run_query(q).points is None

    def test_query_rejects_projective_sieve(self):
        # the projective enumerators read no sieve, so a sieve there would
        # silently do nothing
        sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        conic = poly_parse("x0^2+x1^2-x2^2", 3, ZZ)
        for f in (None, conic):
            with pytest.raises(ValueError, match="sieve applies to affine queries only"):
                PointQuery(Q, "projective", 3, f, 20, "count", sieve)
        assert run_query(PointQuery(Q, "affine", 3, conic, 20, "count", sieve)).count > 0

    @pytest.mark.parametrize("dom", [ZZ, F2T], ids=["Q", "F_2(t)"])
    @pytest.mark.parametrize("H", [0, -1])
    def test_bounds_below_one_refused(self, dom, H):
        # over F_q(t) the box of a bound below 1 would hold the constants,
        # of size 1 > H; over Q it would be empty or fail inside the scan
        field = GlobalField.function_field(dom.q) if dom.q else Q
        conic = poly_parse("x0*x2 - x1^2", 3, dom)
        plane = poly_parse("x0 + x1 + 1", 2, dom)
        for collect in (True, False):
            options = EnumOptions(collect=collect)
            with pytest.raises(ValueError, match="bound must be >= 1"):
                enum_curve_points_proj(conic, H, options)
            with pytest.raises(ValueError, match="bound must be >= 1"):
                enum_affine_hypersurface(plane, H, options)
            with pytest.raises(ValueError, match="bound must be >= 1"):
                enum_proj_points(2, H, field, options)


def test_curve_count_mode_keeps_no_points():
    # count mode adds each prefix's primitive zeros to a counter, so its
    # memory does not grow with the count: 18 565 points at H = 50
    import tracemalloc

    f = poly_parse("x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)", 3, ZZ)
    tracemalloc.start()
    try:
        count = enum_curve_points_proj(f, 50, EnumOptions(collect=False)).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 18565
    assert peak <= 2**20, peak


# ---------------------------------------------------------------------------
# the scan's row collapse and the sieve's root tables, against evaluation
# ---------------------------------------------------------------------------


def per_key_sieve_tables(f, field, primes, solve, values):
    """The per-key build of `_sieve_tables`: at every key of residue classes,
    the classes of the solve coordinate at which the primitive part of f,
    evaluated exactly at the class representatives, is divisible by the
    prime."""
    from itertools import product

    from ratgrowth.algebra.fqpoly import all_polys

    if not primes:
        return []
    coeffs = f.domain.clear_denominators(f.terms.values())
    f = MultiPoly(field.integer_domain(), f.nvars, zip(f.terms, coeffs)).primitive_part()
    out = []
    for prime in primes:
        gen = prime.generator
        reps = list(range(gen)) if field.is_rational else list(all_polys(field.q, gen.degree - 1))
        residues = [v % gen if field.is_rational else poly_to_index(v % gen) for v in values]
        table = {}
        for key in product(range(len(reps)), repeat=f.nvars - 1):
            coords = [reps[i] for i in key]
            roots = {r for r, z in enumerate(reps) if not f.evaluate((*coords[:solve], z, *coords[solve:])) % gen}
            hits = frozenset(iv for iv, r in enumerate(residues) if r in roots)
            table.setdefault(key[:-1], []).append(hits)
        out.append((residues, table))
    return out


# per field: the box, a form with a content that a prime of the box divides,
# a non-homogeneous affine form, and the box of the P^3 surfaces
STAGING_FIELDS = {
    "Q": (ZZ, 30, "6*x0^2+12*x1*x2", "x0^2*x1 - x0*x1 + x2^3 - 2", 10),
    "F_2(t)": (F2T, 16, "(t^3+t+1)*(x0^2 + t*x1*x2)", "x0^2*x1 + x0*x1 + x2^3 + t", 8),
    "F_3(t)": (F3T, 27, "(t^2+1)*(x0^2 + t*x1*x2)", "x0^2*x1 - x0*x1 + x2^3 - t", 9),
}
STAGING_CURVES = ["x0*x2 - x1^2", "x0^3+x1^3-2*x2^3+x0*x1*x2", "x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)", "x1 - x2"]
STAGING_SURFACES = ["x0^2*x3 - x1^2*x3 + x2^3", "x0*x3 - x1*x2"]


def staging_cases(field_name):
    dom, H, content, affine, H_surface = STAGING_FIELDS[field_name]
    cases = [(poly_parse(text, 3, dom), H) for text in [*STAGING_CURVES, content, affine]]
    return cases + [(poly_parse(text, 4, dom), H_surface) for text in STAGING_SURFACES]


class TestRootTablesByClass:
    """`_sieve_tables` finds roots at one key per projective class of keys
    when the primitive part of f is homogeneous, and per key otherwise; both
    must equal the per-key build at every key, for every solve variable."""

    @pytest.mark.parametrize("field_name", list(STAGING_FIELDS))
    def test_tables_match_the_per_key_build(self, field_name):
        from ratgrowth.enumeration import _sieve_tables
        from ratgrowth.globalfield import field_for_poly

        homogeneous = 0
        for f, H in staging_cases(field_name):
            field = field_for_poly(f)
            values = field.box(H)
            primes = _solve_sieve_primes(field, len(values))
            assert primes
            homogeneous += f.primitive_part().is_homogeneous
            for solve in range(f.nvars):
                got = _sieve_tables(f, field, primes, solve, values)
                assert got == per_key_sieve_tables(f, field, primes, solve, values), (str(f), solve)
        # all but the affine form take the projective-class build
        assert homogeneous == len(STAGING_CURVES) + len(STAGING_SURFACES) + 1

    def test_a_prime_above_the_box(self):
        # a prime of norm 13 over a box of 7 values: residues 7..12 of the
        # classes hold no box value, and the scaling still maps every class
        from ratgrowth.enumeration import _sieve_tables

        f = poly_parse("x0^3+x1^3-2*x2^3+x0*x1*x2", 3, ZZ)
        values = Q.box(3)
        for solve in range(3):
            primes = [PrimeIdealDesc(13, 13), PrimeIdealDesc(2, 2)]
            got = _sieve_tables(f, Q, primes, solve, values)
            assert got == per_key_sieve_tables(f, Q, primes, solve, values)


class TestRowCollapse:
    """Each row of the scan substitutes its head into f once, on the raw
    ring of O_K; the staged coefficients must equal the coefficient forms
    of f evaluated by `MultiPoly.evaluate`, and the ring's kernel `zeros`
    must keep exactly the solve values at which f evaluates to zero."""

    @staticmethod
    def coefficient_forms(f, solve, last):
        # (solve exponent, last exponent) -> that coefficient of f as a form
        # in the other variables
        forms = {}
        for e, c in f.terms.items():
            rest = tuple(0 if i in (solve, last) else x for i, x in enumerate(e))
            forms.setdefault((e[solve], e[last]), {})[rest] = c
        return {ke: MultiPoly(f.domain, f.nvars, terms) for ke, terms in forms.items()}

    @pytest.mark.parametrize("field_name", list(STAGING_FIELDS))
    def test_staged_rows_match_evaluation(self, field_name):
        from itertools import product

        from ratgrowth.algebra.multipoly import _power_tables
        from ratgrowth.enumeration import _collapse, _grouped_terms
        from ratgrowth.globalfield import field_for_poly

        dropped = vanishing = 0
        for f, _ in staging_cases(field_name):
            field = field_for_poly(f)
            ring = f.domain.ring
            values = field.box(2 if field.is_rational else field.q)
            every = range(len(values))
            for solve in range(f.nvars):
                others = [i for i in range(f.nvars) if i != solve]
                tables = [_power_tables(ring, ring.raw(values), {e[i] for e in f.terms}) for i in range(f.nvars)]
                fixed, solve_table = [tables[i] for i in others], tables[solve]
                k_of = {id(col): k for k, col in solve_table.items()}
                e_of = {id(col): e for e, col in fixed[-1].items()}
                forms = self.coefficient_forms(f, solve, others[-1])
                grouped = _grouped_terms(f, solve)
                for head in product(range(len(values)), repeat=f.nvars - 2):
                    point = [field.one] * f.nvars
                    for i, ih in zip(others, head):
                        point[i] = values[ih]
                    at_head = {ke: g.evaluate(tuple(point)) for ke, g in forms.items()}
                    dropped += sum(not v for v in at_head.values())
                    staged = _collapse(grouped, fixed, head, solve_table, ring)
                    # every kept sum is nonzero, and every nonzero sum is kept
                    got = {}
                    for col, const, pairs in staged:
                        k = k_of[id(col)]
                        assert const or pairs, (str(f), solve, head, k)
                        got.update({(k, e_of[id(column)]): c for column, c in pairs})
                        if const:
                            got[k, 0] = const
                    got = dict(zip(got, ring.cook(got.values())))
                    assert got == {ke: v for ke, v in at_head.items() if v}, (str(f), solve, head)
                    for last, value in enumerate(values):
                        point[others[-1]] = value
                        want = []
                        for iv, z in enumerate(values):
                            point[solve] = z
                            if not f.evaluate(tuple(point)):
                                want.append(iv)
                        hits = ring.zeros(staged, last, every)
                        assert list(hits) == want, (str(f), solve, head, last)
                        vanishing += hits is every
        # the boxes reach heads at which some coefficient sums to zero, and
        # prefixes at which f vanishes for every solve value
        assert dropped and vanishing
