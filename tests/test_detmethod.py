"""Certificates, auxiliary polynomials, the covering pipelines."""

import json
import math
import random

import pytest

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly
from ratgrowth.algebra.multipoly import MultiPoly, poly_parse
from ratgrowth import detmethod
from ratgrowth.algebra.primes import PrimeIdealDesc, primes_in_range
from ratgrowth.detmethod import (
    AffineCoverParams,
    CoverParams,
    CoverResult,
    NotApplicable,
    PipelineError,
    PointsNotCongruent,
    RegimeViolation,
    cover_high_mult,
    cover_pipeline,
    cover_pipeline_affine,
    interp_det_certificate,
    monomial_basis,
    regime_check,
)
from ratgrowth.enumeration import enum_affine_hypersurface, enum_curve_points_proj
from ratgrowth.globalfield import GlobalField, primitive_normalize, reduce_point_mod_p
from ratgrowth.reduction import mult_at_point, reduce_curve_mod_p

Q = GlobalField.rationals()
ZZ = CoeffDomain.integers()


class TestMonomialBasis:
    def test_degree_one(self):
        b = monomial_basis(3, 1)
        assert b.monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert b.s == 3

    def test_plane_curve_formula(self):
        for d in (2, 3, 4, 7, 26):
            assert monomial_basis(3, d - 1).s == d * (d + 1) // 2

    def test_four_variables(self):
        assert monomial_basis(4, 2).s == 10

    def test_duplicate_free_and_ordered(self):
        b = monomial_basis(3, 5)
        assert len(set(b.monomials)) == b.s
        from ratgrowth.algebra.multipoly import grevlex_key

        keys = [grevlex_key(m) for m in b.monomials]
        assert keys == sorted(keys, reverse=True)


class TestCertificates:
    def test_explicit_3x3(self):
        p5 = PrimeIdealDesc(5, 5)
        pts = [primitive_normalize(Q, t) for t in [(1, 0, 0), (1, 5, 0), (1, 0, 5)]]
        cert = interp_det_certificate(pts, 1, p5, mu=1, a=1.0)
        assert cert.det_norm == 25
        assert cert.valuation == 2
        assert cert.verdict == "MeetsBound"
        assert cert.norm_cap_ok

    def test_repeated_point_vanishes(self):
        p5 = PrimeIdealDesc(5, 5)
        pts = [primitive_normalize(Q, t) for t in [(1, 0, 0), (1, 0, 0), (1, 5, 0)]]
        cert = interp_det_certificate(pts, 1, p5, mu=1)
        assert cert.verdict == "VanishesIdentically"
        assert cert.valuation == math.inf

    def test_non_congruent_rejected(self):
        p5 = PrimeIdealDesc(5, 5)
        pts = [primitive_normalize(Q, t) for t in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]]
        with pytest.raises(PointsNotCongruent):
            interp_det_certificate(pts, 1, p5, mu=1)

    def test_size_mismatch_rejected(self):
        p5 = PrimeIdealDesc(5, 5)
        pts = [primitive_normalize(Q, (1, 0, 0))]
        with pytest.raises(ValueError):
            interp_det_certificate(pts, 1, p5, mu=1)

    def test_nonpositive_mu_rejected(self):
        # the bound s^2/(2 mu) - a s means nothing for mu < 1
        p5 = PrimeIdealDesc(5, 5)
        pts = [primitive_normalize(Q, t) for t in [(1, 0, 0), (1, 5, 0), (1, 0, 5)]]
        for mu in (0, -1):
            with pytest.raises(ValueError, match=f"interp_det_certificate.*got {mu}$"):
                interp_det_certificate(pts, 1, p5, mu=mu)

    def test_congruent_pair_forces_divisibility(self):
        # two distinct points in one residue class force p | det
        rng = random.Random(44)
        p = 7
        prime = PrimeIdealDesc(p, p)
        for _ in range(20):
            base = (1, rng.randint(0, 6), rng.randint(0, 6))
            pts = [
                primitive_normalize(
                    Q,
                    (
                        base[0],
                        base[1] + p * rng.randint(0, 4),
                        base[2] + p * rng.randint(0, 4),
                    ),
                )
                for _ in range(3)
            ]
            # a large slack: these synthetic congruent tuples are not curve
            # points, so only the literal divisibility is at stake here
            cert = interp_det_certificate(pts, 1, prime, mu=1, a=10.0)
            assert cert.valuation >= 1 or cert.det_norm == 0

    def test_mu_recheck_against_curve(self):
        conic = poly_parse("x0*x2 - x1^2", 3, ZZ)
        p5 = PrimeIdealDesc(5, 5)
        pts = [
            primitive_normalize(Q, (b * b, a * b, a * a))
            for a, b in [(1, 1), (6, 1), (11, 1)]
        ]
        cert = interp_det_certificate(pts, 1, p5, mu=1, curve=conic)
        assert cert.mu == 1
        with pytest.raises(ValueError):
            interp_det_certificate(pts, 1, p5, mu=2, curve=conic)

    def test_parametrized_class_certificates(self):
        # conic class: rows are (1, a_j, a_j^2), a Vandermonde shape
        p5 = PrimeIdealDesc(5, 5)
        pts = [
            primitive_normalize(Q, (1, a, a * a)) for a in (1, 6, 11)
        ]  # a = 1 mod 5
        cert = interp_det_certificate(pts, 1, p5, mu=1, a=1.0)
        assert cert.det_norm == 250  # Vandermonde (5)(10)(5)
        assert cert.valuation == 3
        assert cert.verdict == "MeetsBound"


class TestCoverHighMult:
    def test_empty_class_sentinel(self):
        f = poly_parse("x0^26 + x1^26 + x2^26", 3, ZZ)  # no rational points
        primes = [PrimeIdealDesc(5, 5), PrimeIdealDesc(7, 7)]
        poly, audit = cover_high_mult(f, 20, primes, N_const=1.0)
        assert poly is None and audit["status"] == "empty_class"

    def test_cusp_gets_a_line(self):
        # (0:1:0) is the only point of the curve with mu = 25 at every prime,
        # above the threshold 26 / log 20; the smooth points are low at 5
        f = poly_parse("x1*x0^25 - x2^26", 3, ZZ)
        primes = [PrimeIdealDesc(5, 5)]
        poly, audit = cover_high_mult(f, 20, primes, N_const=0.4)
        assert audit["status"] == "ok" and audit["xi_s_size"] == 1
        assert poly.degree == audit["d_prime"] == 1
        assert poly == poly_parse("x0", 3, ZZ)
        assert poly.evaluate((0, 1, 0)) == 0

    def test_degree_violation_refused(self):
        f = poly_parse("x0*x2 - x1^2", 3, ZZ)
        with pytest.raises(RegimeViolation):
            cover_high_mult(f, 20, [PrimeIdealDesc(5, 5)], N_const=4.0)

    def test_height_below_two_rejected(self):
        # the threshold d / log H needs log H > 0
        f = poly_parse("x0^26 + x1^26 + x2^26", 3, ZZ)
        with pytest.raises(ValueError, match="cover_high_mult.*got 1$"):
            cover_high_mult(f, 1, [PrimeIdealDesc(5, 5)])
        poly, audit = cover_high_mult(f, 2, [PrimeIdealDesc(5, 5)])
        assert poly is None and audit["status"] == "empty_class"

    def test_height_two_picks_its_own_window(self):
        # at H = 2 the window's floor log 2 is below 1, which primes_in_range
        # refuses; no prime has norm 1 or less, so the window is (1, 2 + log 2)
        f = poly_parse("x1*x0^25 - x2^26", 3, ZZ)
        for primes in (None, []):
            poly, audit = cover_high_mult(f, 2, primes)
            assert poly is None
            assert (audit["num_primes"], audit["status"]) == (1, "empty_class")

    def test_non_homogeneous_curve_refused(self):
        # the cusp plus x0 is no plane curve; the pipeline refuses it as well
        f = poly_parse("x1*x0^25 - x2^26 + x0", 3, ZZ)
        with pytest.raises(ValueError, match="homogeneous"):
            cover_high_mult(f, 20, [PrimeIdealDesc(5, 5)], N_const=0.4)
        with pytest.raises(ValueError, match="homogeneous"):
            cover_pipeline(f, 20)

    def test_default_degree_constant_is_the_pipelines(self):
        f = poly_parse("x1*x0^29 - x2^30", 3, ZZ)
        assert cover_high_mult(f, 20, None) == cover_high_mult(f, 20, None, CoverParams.N)

    def test_agrees_with_the_pipeline(self):
        # the standalone step reads the pipeline's partition, window and audit
        f = poly_parse("x1*x0^29 - x2^30", 3, ZZ)
        poly, audit = cover_high_mult(f, 20, None)
        high = dict(cover_pipeline(f, 20).high_mult)
        assert (high.pop("poly"), high.pop("degree")) == (str(poly), poly.degree)
        assert audit == high
        assert (audit["d_prime"], audit["num_primes"], audit["xi_s_size"]) == (11, 65, 1)
        assert audit["status"] == "ok" and poly == poly_parse("x0^11", 3, ZZ)

    def test_degree30_fixture_against_rank_oracle(self):
        # degree-30 curve at H = 20 with the everywhere-high set computed by
        # full multiplicity scans over the primes with norms in (3, 81)
        from ratgrowth.algebra.linalg import ExactMatrix, rank
        from ratgrowth.algebra.primes import primes_in_range
        from ratgrowth.detmethod import monomial_basis
        from ratgrowth.enumeration import enum_curve_points_proj
        from ratgrowth.reduction import mult_at_point, reduce_curve_mod_p

        f = poly_parse("x1*x0^29 - x2^30", 3, ZZ)
        H = 20
        primes = primes_in_range(3, 81)
        points = enum_curve_points_proj(f, H).points
        threshold = f.degree / math.log(H)
        xi_s = []
        for p in points:
            mus = []
            for prime in primes:
                reduced = reduce_curve_mod_p(f, prime)
                if not reduced.good:
                    continue
                rp = reduce_point_mod_p(p, prime)
                mus.append(mult_at_point(reduced.f_p, rp.coords).mu)
            if mus and all(mu >= threshold for mu in mus):
                xi_s.append(p)
        assert xi_s  # the singular point survives every scan

        poly, audit = cover_high_mult(f, H, primes, N_const=4.0)
        assert audit["status"] == "ok"
        assert audit["xi_s_size"] == len(xi_s)
        for p in xi_s:
            assert poly.evaluate(p.coords) == 0

        # rank oracle: at the audit degree the evaluation matrix of xi_s
        # must be rank-deficient, which is exactly interpolant existence
        basis = monomial_basis(3, audit["d_prime"])
        from ratgrowth.algebra.domains import CoeffDomain as _CD

        qq = _CD.rationals()
        rows = [
            [MultiPoly.monomial(qq, exps).evaluate(p.coords) for exps in basis.monomials]
            for p in xi_s
        ]
        assert rank(ExactMatrix.from_rows(qq, rows)) < basis.s
        assert poly.degree == audit["d_prime"] < f.degree


class TestRegime:
    def test_examples(self):
        assert regime_check(26, 20).ok
        assert not regime_check(8, 20).ok  # 8 < (log 20)^2 = 8.97
        assert not regime_check(10**6, 100).ok  # above H^(3/2)
        r = regime_check(26, 20)
        assert math.isclose(r.lhs, math.log(20) ** 2)

    def test_huge_height_decided_exactly(self):
        # H^(3/2) = 10^600 exceeds the float range; d < H^(3/2) is d^2 < H^3
        H = 10**400
        r = regime_check(200, H)
        assert not r.ok and r.rhs == math.inf  # 200 < (log H)^2 = 8.5e5
        assert regime_check(10**600 - 1, H).ok
        assert not regime_check(10**600, H).ok
        r = regime_check(10**6, H, "AffinePila")
        assert r.ok and r.rhs == math.inf

    def test_huge_height_cover_json_is_strict(self):
        # strict JSON has no Infinity: the out-of-range rhs is written as null
        f = poly_parse("x0*x2 - x1^2", 3, CoeffDomain.integers())
        result = CoverResult(f, 10**400, regime_check(200, 10**400), [], [], {}, [], {})

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        payload = json.loads(json.dumps(result.to_json_dict()), parse_constant=reject)
        assert payload["regime"]["rhs"] is None and payload["regime"]["d"] == 200

    def test_affine_variant(self):
        r = regime_check(9, 20, "AffinePila")
        assert r.rhs == 20.0
        assert r.ok == (math.log(20) ** 2 < 9 < 20)


class TestCoverPipeline:
    def test_fixture_d26(self):
        f = poly_parse("x1*x0^25 - x2^26", 3, ZZ)
        res = cover_pipeline(f, 20)
        assert res.regime.ok
        assert res.uncovered == []
        assert res.counts["points"] == 4
        assert res.counts["max_aux_degree"] < 26
        assert res.counts["aux"] <= math.log(20) ** 12
        # the singular point (0:1:0) stays high-multiplicity everywhere
        assert res.counts["xi_s"] == 1
        assert res.high_mult["status"] == "ok"

    def test_out_of_regime_still_covers(self):
        f = poly_parse("x0*x2 - x1^2", 3, ZZ)
        res = cover_pipeline(f, 100, CoverParams(budget=80_000_000))
        assert not res.regime.ok  # d = 2 < (log 100)^2
        assert res.uncovered == []

    def test_json_shape(self):
        f = poly_parse("x1*x0^25 - x2^26", 3, ZZ)
        res = cover_pipeline(f, 20)
        payload = res.to_json_dict()
        assert set(payload) == {
            "curve",
            "H",
            "regime",
            "classes",
            "aux_polys",
            "high_mult",
            "uncovered",
            "counts",
        }
        assert payload["classes"]
        for cls in payload["classes"]:
            assert list(cls) == [
                "prime",
                "prime_norm",
                "point",
                "mu",
                "aux_poly",
                "class_size",
                "aux_status",
            ]


class TestAffinePipeline:
    def test_product_one_fixture(self):
        f = poly_parse("x0*x1*x2 - 1", 3, ZZ)
        res = cover_pipeline_affine(f, 4)
        assert res.counts["points"] == 4  # sign patterns with product 1
        assert res.uncovered == []
        assert res.counts["max_aux_degree"] <= 2

    def test_degree_one_refused(self):
        f = poly_parse("x0 - x1", 3, ZZ)
        with pytest.raises(NotApplicable):
            cover_pipeline_affine(f, 4)

    def test_degree9_partition_cross_check(self):
        factors = [
            "x0^2 + x1^2 - 2",
            "x0 - x2",
            "x1*x2 - 1",
            "x0^2 + x1^2 + x2^2 - 3",
            "x0 + x1 + x2",
            "x2 - 1",
        ]
        f = poly_parse(factors[0], 3, ZZ)
        for text in factors[1:]:
            f = f * poly_parse(text, 3, ZZ)
        assert f.degree == 9
        primes = (PrimeIdealDesc(5, 5), PrimeIdealDesc(7, 7))
        res = cover_pipeline_affine(f, 3, AffineCoverParams(primes=primes))
        assert res.uncovered == []

        # direct residue-bucketing oracle for the partition sizes
        points = enum_affine_hypersurface(f, 3).points
        threshold = f.degree / math.log(3) ** 1.0
        buckets = {}
        stranded = 0
        reduced = {p: reduce_curve_mod_p(f, p) for p in primes}
        for pt in points:
            placed = False
            for prime in primes:
                rp = tuple(c % prime.generator for c in pt)
                mu = mult_at_point(reduced[prime].f_p, rp, projective=False).mu
                if mu < threshold:
                    buckets.setdefault((prime.norm, rp), 0)
                    buckets[(prime.norm, rp)] += 1
                    placed = True
                    break
            if not placed:
                stranded += 1
        expected_sizes = sorted(buckets.values())
        assert sorted(c.class_size for c in res.classes) == expected_sizes
        assert res.counts["xi_s"] == stranded

    def test_full_rank_class_out_of_regime_is_chunked(self):
        # mod 3 the class (3, 4), (-3, 4), (0, -5) is not collinear, so no
        # degree-1 form passes through it; the projective circle at the
        # same height is chunked too (tests/test_cover_golden.py)
        f = poly_parse("x0^2 + x1^2 - 25", 2, ZZ)
        res = cover_pipeline_affine(f, 5)
        assert res.regime.ok is False
        assert res.uncovered == []
        assert "chunked" in {c.aux_status for c in res.classes}

    def test_high_mult_degree_clamped_out_of_regime(self):
        # floor((log 8)^2) = 4 reaches d = 2: the form degree is clamped to
        # d - 1 = 1 and the full-rank residual set is chunked, as in the
        # projective pipeline
        f = poly_parse("x0^2 + x1^2 - 25", 2, ZZ)
        res = cover_pipeline_affine(f, 8)
        assert res.regime.ok is False
        assert res.uncovered == []
        assert res.high_mult["status"] == "chunked"
        assert res.counts["aux"] == 6
        proj = cover_pipeline(poly_parse("x0^2 + x1^2 - 25*x2^2", 3, ZZ), 8)
        assert proj.high_mult["status"] == "chunked"
        assert proj.counts["aux"] == 6
        assert proj.uncovered == []
        # both report the clamped degree that their high form was built at
        assert res.high_mult["d_prime"] == proj.high_mult["d_prime"] == 1

    def test_supplied_prime_of_another_field_refused(self):
        f = poly_parse("x0*x1*x2 - 1", 3, ZZ)
        t_plus_1 = PrimeIdealDesc(FqPoly(2, [1, 1]), 2)
        with pytest.raises(ValueError, match="is not a prime of Q"):
            cover_pipeline_affine(f, 4, AffineCoverParams(primes=(t_plus_1,)))

    def test_empty_prime_tuple_refused(self):
        # primes=() supplies no prime; it does not fall back to the window
        f = poly_parse("x0*x1*x2 - 1", 3, ZZ)
        with pytest.raises(PipelineError, match="^no usable primes in the requested window$"):
            cover_pipeline_affine(f, 4, AffineCoverParams(primes=()))

    def test_supplied_prime_of_bad_reduction_refused(self):
        # 5 x0 x1 - 1 reduces to the constant -1 mod 5
        f = poly_parse("5*x0*x1 - 1", 2, ZZ)
        primes = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
        with pytest.raises(PipelineError, match="^supplied prime 5 has bad reduction$"):
            cover_pipeline_affine(f, 4, AffineCoverParams(primes=primes))
        assert cover_pipeline_affine(f, 4, AffineCoverParams(primes=primes[:1])).uncovered == []

    def test_monitors_recorded(self):
        f = poly_parse("x0*x1*x2 - 1", 3, ZZ)
        res = cover_pipeline_affine(f, 4)
        for m in res.counts["monitors"]:
            assert "valuation_monitor_rhs" in m


class TestParams:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "params, name",
        [(CoverParams, "M"), (CoverParams, "N"), (AffineCoverParams, "M"), (AffineCoverParams, "a")],
    )
    def test_non_finite_refused(self, params, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            params(**{name: value})

    def test_finite_values_kept(self):
        assert CoverParams(M=2, N=0.5) == CoverParams(2, 0.5)
        assert AffineCoverParams(a=7).a == 7


class TestWrappedReductionNames:
    """Tracers wrap reduce_point_mod_p and mult_at_point where detmethod
    holds them; the covering core must look both up at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"reduce_point_mod_p": 0, "mult_at_point": 0}
        for name in counts:
            original = getattr(detmethod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(detmethod, name, counted)
        return counts

    def test_projective_cover(self, calls):
        f = poly_parse("x1*x0^25 - x2^26", 3, ZZ)
        res = cover_pipeline(f, 20)
        assert res.uncovered == []
        # a class point is reduced at the good primes in norm order up to
        # the prime of its class, a point of xi_s at every good prime; one
        # multiplicity per distinct residue point and prime
        log_h = math.log(20)
        good = [
            prime
            for prime in primes_in_range(log_h, CoverParams.M * log_h**4)
            if reduce_curve_mod_p(f, prime).good
        ]
        assert len(good) == res.counts["num_primes"]
        expected = sum((1 + good.index(c.prime)) * c.class_size for c in res.classes)
        expected += res.counts["xi_s"] * len(good)
        assert calls["reduce_point_mod_p"] == expected
        assert expected < res.counts["points"] * len(good)
        assert 0 < calls["mult_at_point"] <= calls["reduce_point_mod_p"]

    def test_affine_cover(self, calls):
        res = cover_pipeline_affine(poly_parse("x0*x1*x2 - 1", 3, ZZ), 4)
        assert res.uncovered == []
        # affine points reduce coordinate-wise through the prime
        assert calls["reduce_point_mod_p"] == 0
        assert 0 < calls["mult_at_point"] <= res.counts["points"] * res.counts["num_primes"]
