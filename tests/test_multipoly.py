"""Sparse polynomial arithmetic, the text grammar, canonical printing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra import multipoly
from ratgrowth.algebra.fqpoly import FqPoly
from ratgrowth.algebra.linalg import ExactMatrix, kernel_vector
from ratgrowth.algebra.multipoly import (
    MultiPoly,
    ParseError,
    evaluation_matrix,
    interpolant,
    monomials_of_degree,
    monomials_up_to_degree,
    poly_parse,
)

ZZ = CoeffDomain.integers()
QQ = CoeffDomain.rationals()
GF5 = CoeffDomain.prime_field(5)
F2T = CoeffDomain.poly_ring(2)


class TestParser:
    def test_conic(self):
        f = poly_parse("x0*x2 - x1^2", 3, ZZ)
        assert len(f.terms) == 2
        assert f.degree == 2
        assert f.is_homogeneous

    def test_zero(self):
        f = poly_parse("0", 3, ZZ)
        assert f.is_zero
        assert f.terms == {}

    def test_alias_cuspidal(self):
        f = poly_parse("y^2*z - x^3", 3, ZZ)
        g = poly_parse("x1^2*x2 - x0^3", 3, ZZ)
        assert f == g
        assert len(f.terms) == 2

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            poly_parse("x0 + ^2", 3, ZZ)
        assert err.value.pos == 5

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            poly_parse("x5", 3, ZZ)
        with pytest.raises(ParseError):
            poly_parse("z", 2, ZZ)

    def test_t_reserved(self):
        f = poly_parse("t*x0 + x1", 2, F2T)
        assert f.degree == 1
        with pytest.raises(ParseError):
            poly_parse("t*x0", 2, ZZ)

    def test_ff_coefficients(self):
        f = poly_parse("(t^2+1)*x0*x1 + t*x2^2", 3, F2T)
        t = FqPoly.t(2)
        assert f.coefficient((1, 1, 0)) == t**2 + 1
        assert f.coefficient((0, 0, 2)) == t

    def test_rational_division(self):
        f = poly_parse("1/2*x0 + 3/4", 2, QQ)
        assert f.coefficient((1, 0)) == Fraction(1, 2)
        assert f.coefficient((0, 0)) == Fraction(3, 4)
        with pytest.raises(ParseError):
            poly_parse("x0/x1", 2, QQ)

    def test_parens_and_pow(self):
        f = poly_parse("(x0 + x1)^2", 2, ZZ)
        g = poly_parse("x0^2 + 2*x0*x1 + x1^2", 2, ZZ)
        assert f == g

    def test_unexpected_trailing(self):
        with pytest.raises(ParseError):
            poly_parse("x0 x1", 3, ZZ)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            poly_parse("x0^-2", 3, ZZ)


def random_poly(dom, nvars, rng, max_deg=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = dom.sample(rng)
    return MultiPoly(dom, nvars, terms)


ALL_DOMAINS = [ZZ, QQ, GF5, F2T, CoeffDomain.rational_functions(3)]


class TestArithmetic:
    @pytest.mark.parametrize("dom", ALL_DOMAINS)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_ring_axioms(self, dom, seed):
        rng = random.Random(seed)
        f, g, h = (random_poly(dom, 2, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)

    def test_pow(self):
        f = poly_parse("x0 + x1", 2, ZZ)
        assert f**3 == f * f * f
        assert (f**0).is_constant

    def test_exact_div(self):
        f = poly_parse("x0^2 - x1^2", 2, ZZ)
        g = poly_parse("x0 - x1", 2, ZZ)
        assert f.exact_div(g) == poly_parse("x0 + x1", 2, ZZ)
        with pytest.raises(ArithmeticError):
            poly_parse("x0^2 + x1", 2, ZZ).exact_div(g)

    @pytest.mark.parametrize("dom", ALL_DOMAINS + [CoeffDomain.residue_field(FqPoly(2, [1, 1, 1]))])
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_divmod(self, dom, nvars, seed):
        rng = random.Random(seed)
        f = random_poly(dom, nvars, rng, max_deg=4, nterms=6)
        d = random_poly(dom, nvars, rng, max_deg=2, nterms=3)
        if d.is_zero:
            with pytest.raises(ZeroDivisionError):
                f.divmod(d)
            return
        quo, rem = f.divmod(d)
        assert quo * d + rem == f
        # no term of rem is divisible by the leading term of d
        lt_e, lt_c = d.leading_term()
        for e, c in rem.terms.items():
            if all(a >= b for a, b in zip(e, lt_e)):
                assert not dom.is_field
                with pytest.raises(ArithmeticError):
                    dom.exact_div(c, lt_c)
        assert (f * d).divmod(d) == (f, MultiPoly.zero(dom, nvars))
        assert (f * d).exact_div(d) == f

    @pytest.mark.parametrize("p", [2, 5, 7])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_univariate_divmod_matches_fqpoly(self, p, seed):
        """In one variable over F_p, divmod is Euclidean division; FqPoly's
        packed-int divmod is an independent implementation of it."""
        rng = random.Random(seed)
        dom = CoeffDomain.prime_field(p)
        a = [rng.randrange(p) for _ in range(rng.randint(0, 9))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
        as_multi = lambda cs: MultiPoly(dom, 1, {(i,): c for i, c in enumerate(cs)})
        quo, rem = divmod(FqPoly(p, a), FqPoly(p, b))
        assert as_multi(a).divmod(as_multi(b)) == (as_multi(quo.coeffs), as_multi(rem.coeffs))

    def test_divmod_over_z_keeps_indivisible_leads(self):
        # 3*x0 is a multiple of the monomial x0 but not of 2*x0
        f = poly_parse("4*x0^2 + 3*x0 + 1", 1, ZZ)
        quo, rem = f.divmod(poly_parse("2*x0", 1, ZZ))
        assert (quo, rem) == (poly_parse("2*x0", 1, ZZ), poly_parse("3*x0 + 1", 1, ZZ))

    def test_evaluate(self):
        f = poly_parse("x0*x2 - x1^2", 3, ZZ)
        assert f.evaluate((1, 2, 4)) == 0
        assert f.evaluate((1, 1, 2)) == 1

    def test_translate_matches_evaluation(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_poly(ZZ, 2, rng)
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            shifted = f.translate(a)
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert shifted.evaluate(x) == f.evaluate((x[0] + a[0], x[1] + a[1]))

    def test_partial_derivative(self):
        f = poly_parse("x0^3*x1 + x1^2", 2, ZZ)
        assert f.partial(0) == poly_parse("3*x0^2*x1", 2, ZZ)
        assert f.partial(1) == poly_parse("x0^3 + 2*x1", 2, ZZ)

    def test_dehomogenize(self):
        h = poly_parse("x0^2 + x1*x2 - 3*x2^2", 3, ZZ)
        assert h.dehomogenize(2) == poly_parse("x0^2 + x1 - 3", 2, ZZ)
        assert h.dehomogenize(0) == poly_parse("1 + x0*x1 - 3*x1^2", 2, ZZ)

    def test_permute_variables(self):
        f = poly_parse("x0^2*x1", 2, ZZ)
        assert f.permute_variables([1, 0]) == poly_parse("x1^2*x0", 2, ZZ)

    def test_content_primitive(self):
        f = poly_parse("6*x0 - 9*x1", 2, ZZ)
        p = f.primitive_part()
        assert p == poly_parse("2*x0 - 3*x1", 2, ZZ)
        assert (-f).primitive_part() == p  # sign normalization

    def test_lowest_degree(self):
        f = poly_parse("x0^2 + x0 + 1", 2, ZZ)
        assert f.lowest_degree() == 0


def monomial_row(dom, monomials, coords):
    """The one row of the evaluation matrix at a single point."""
    return list(evaluation_matrix(dom, monomials, [coords]).entries[0])


class TestMonomialRow:
    @pytest.mark.parametrize(
        "dom",
        ALL_DOMAINS + [CoeffDomain.residue_field(FqPoly(2, (1, 1, 0, 1)))],
        ids=lambda d: d.describe(),
    )
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_matches_monomial_evaluation(self, dom, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 3)
        monos = [(0,) * nvars] + [
            tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(rng.randint(0, 6))
        ]
        rng.shuffle(monos)
        coords = [dom.sample(rng) for _ in range(nvars)]
        coords[rng.randrange(nvars)] = 0
        want = [MultiPoly.monomial(dom, e).evaluate(coords) for e in monos]
        assert monomial_row(dom, monos, coords) == want

    def test_constant_monomials_only(self):
        assert monomial_row(GF5, [(0, 0)], (0, 3)) == [1]
        assert monomial_row(ZZ, [], (2,)) == []


def kernel_poly_oracle(dom, monomials, points_coords, nvars):
    """The body of detmethod._kernel_poly before it became interpolant."""
    rows = [monomial_row(dom, monomials, coords) for coords in points_coords]
    vec = kernel_vector(ExactMatrix.from_rows(dom, rows))
    if vec is None:
        return None
    coeffs = dom.primitive(vec[::-1])[::-1]
    poly = MultiPoly(dom, nvars, dict(zip(monomials, coeffs)))
    for coords in points_coords:
        if not dom.is_zero(poly.evaluate(coords)):
            raise AssertionError("interpolant fails to vanish on its points")
    return poly


def locus_form_oracle(dom, n, monos, locus):
    """One degree of high_mult_locus's loop before it called interpolant."""
    rows = [monomial_row(dom, monos, pt) for pt in locus]
    vec = kernel_vector(ExactMatrix.from_rows(dom, rows))
    if vec is not None:
        h = MultiPoly(dom, n, zip(monos, dom.primitive(vec[::-1])[::-1]))
        for pt in locus:
            assert dom.is_zero(h.evaluate(pt)), "interpolant fails to vanish"
        return h
    return None


class TestInterpolant:
    DOMAINS = [ZZ, GF5, F2T, CoeffDomain.residue_field(FqPoly(2, (1, 1, 1)))]

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.describe())
    def test_matches_the_replaced_bodies(self, dom):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(60):
            nvars = rng.randint(2, 3)
            degree = rng.randint(1, 3)
            monos = (monomials_of_degree if rng.random() < 0.5 else monomials_up_to_degree)(nvars, degree)
            # up to two points past the monomial count, so full rank occurs
            points = [
                tuple(dom.sample(rng) for _ in range(nvars))
                for _ in range(rng.randint(1, len(monos) + 2))
            ]
            assert evaluation_matrix(dom, monos, points) == ExactMatrix.from_rows(
                dom, [monomial_row(dom, monos, pt) for pt in points]
            )
            got = interpolant(dom, monos, points)
            assert got == kernel_poly_oracle(dom, monos, points, nvars)
            assert got == locus_form_oracle(dom, nvars, monos, points)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.describe())
    def test_no_points_is_none(self, dom):
        # the evaluation matrix of no points has no columns, so no kernel
        monos = monomials_of_degree(3, 2)
        assert evaluation_matrix(dom, monos, []) == ExactMatrix(dom, ())
        assert kernel_vector(evaluation_matrix(dom, monos, [])) is None
        assert interpolant(dom, monos, []) is None

    @pytest.mark.parametrize("dom", DOMAINS + [CoeffDomain.poly_ring(3)], ids=lambda d: d.describe())
    def test_column_reads_against_the_full_matrix(self, dom, monkeypatch):
        # the interpolant reads the columns 0..fc that the elimination
        # reaches, and equals the kernel vector of the whole evaluation
        # matrix under the normalization it had before
        rng = random.Random(99)
        reads: list = []
        read = multipoly._MonomialColumns.column

        def reading(self, c):
            reads.append(c)
            return read(self, c)

        monkeypatch.setattr(multipoly._MonomialColumns, "column", reading)
        shapes = set()
        for trial in range(60):
            nvars = rng.randint(2, 3)
            monos = monomials_of_degree(nvars, rng.randint(1, 3))
            npoints = rng.randint(1, len(monos) + 3)
            if trial % 3 == 0:
                # every point has x0 = 0, so the first column x0^d is zero: fc = 0
                points = [(dom.zero,) + tuple(dom.sample(rng) for _ in range(nvars - 1)) for _ in range(npoints)]
            else:
                points = [tuple(dom.sample(rng) for _ in range(nvars)) for _ in range(npoints)]
            vec = kernel_vector(evaluation_matrix(dom, monos, points))
            reads.clear()
            got = interpolant(dom, monos, points)
            if vec is None:
                assert got is None and reads == list(range(len(monos)))
                shapes.add("full rank")
                continue
            fc = max(i for i, c in enumerate(vec) if c)
            assert reads == list(range(fc + 1))
            want = MultiPoly(dom, nvars, dict(zip(monos, dom.primitive(vec[::-1])[::-1])))
            assert got == want and list(got.terms.items()) == list(want.terms.items())
            shapes.add("fc = 0" if fc == 0 else "fc > 0")
            if len(points) > len(monos):
                shapes.add("more rows than columns")
        assert shapes == {"full rank", "fc = 0", "fc > 0", "more rows than columns"}

    def test_full_rank_is_none(self):
        monos = monomials_of_degree(3, 1)
        unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert interpolant(ZZ, monos, unit) is None
        assert interpolant(GF5, monos, unit) is None
        assert interpolant(ZZ, monos, unit[:2]) == poly_parse("x2", 3, ZZ)

    def test_last_support_monomial_leads(self):
        # through (1:1:1) and (2:1:0) over Z: x0 - 2*x1 + x2, scaled so the
        # coefficient of x2 is positive
        form = interpolant(ZZ, monomials_of_degree(3, 1), [(1, 1, 1), (2, 1, 0)])
        assert form == poly_parse("x0 - 2*x1 + x2", 3, ZZ)

    def test_doctored_kernel_fails_loudly(self, monkeypatch):
        # the vanishing check is an exact test, not an assert that -O strips
        from ratgrowth.detmethod import cover_pipeline
        from ratgrowth.reduction import high_mult_locus

        monkeypatch.setattr(multipoly, "kernel_vector", lambda m: (m.domain.one,) * m.cols)
        with pytest.raises(AssertionError, match="fails to vanish"):
            cover_pipeline(poly_parse("x0*x2 - x1^2", 3, ZZ), 20)
        with pytest.raises(AssertionError, match="fails to vanish"):
            high_mult_locus(poly_parse("x0", 3, GF5) ** 4, 2, 5)


class TestCanonicalText:
    @pytest.mark.parametrize("dom", ALL_DOMAINS)
    def test_roundtrip_random(self, dom):
        rng = random.Random(11)
        for _ in range(30):
            f = random_poly(dom, 3, rng)
            assert poly_parse(f.to_string(), 3, dom) == f

    def test_roundtrip_is_identity_on_canonical(self):
        texts = ["x0*x2 - x1^2", "0", "x0^3 + 3*x0*x1*x2 - 7"]
        for text in texts:
            f = poly_parse(text, 3, ZZ)
            assert poly_parse(f.to_string(), 3, ZZ) == f

    def test_grevlex_order(self):
        monos = monomials_of_degree(3, 2)
        assert monos[0] == (2, 0, 0)
        assert monos == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))

    def test_monomial_counts(self):
        assert len(monomials_of_degree(3, 3)) == 10
        assert len(monomials_up_to_degree(3, 2)) == 10
        # no variables: only the empty exponent vector, of degree 0
        assert monomials_of_degree(0, 0) == ((),)
        assert monomials_of_degree(0, 2) == ()


class TestInvariants:
    def test_no_zero_coefficients_stored(self):
        f = poly_parse("x0 - x0", 2, ZZ)
        assert f.is_zero and not f.terms

    def test_homogeneous_flag_consistency(self):
        f = poly_parse("x0^2 + x1", 2, ZZ)
        assert not f.is_homogeneous
        degs = {sum(e) for e in f.terms}
        assert len(degs) > 1
