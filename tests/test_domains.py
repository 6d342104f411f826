"""Domain arithmetic: F_q[t], F_q(t), prime/residue fields, exactness."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.multipoly import poly_parse
from ratgrowth.algebra.fqpoly import (
    FqPoly,
    FqRational,
    all_polys,
    count_monic_irreducibles,
    fq_gcd,
    fq_xgcd,
    is_irreducible,
    monic_irreducibles_of_degree,
    monic_polys_of_degree,
    poly_from_index,
    poly_to_index,
)


def polys(q, max_deg=4):
    return st.integers(min_value=0, max_value=q ** (max_deg + 1) - 1).map(
        lambda i: poly_from_index(q, i)
    )


class TestFqPoly:
    def test_basic_shape(self):
        t = FqPoly.t(3)
        f = t**2 + 2 * t + 1
        assert f.coeffs == (1, 2, 1)
        assert f.degree == 2
        assert FqPoly.zero(3).degree == -1
        assert not FqPoly.zero(3)

    def test_str_parse_roundtrip(self):
        t = FqPoly.t(5)
        ring = CoeffDomain.poly_ring(5)
        for f in [t**3 + 2 * t + 4, FqPoly.zero(5), FqPoly.one(5), t, 3 * t**2]:
            assert poly_parse(str(f), 1, ring).coefficient((0,)) == f

    @given(polys(3), polys(3), polys(3))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == FqPoly.zero(3)

    @given(polys(5), polys(5))
    def test_divmod(self, a, b):
        if not b:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree or not r

    @given(polys(2, 5), polys(2, 5))
    def test_gcd_divides(self, a, b):
        if not a and not b:
            return
        g = fq_gcd(a, b) if a else b.monic()
        if a:
            assert not (a % g)
        if b:
            assert not (b % g)

    @given(polys(3, 4), polys(3, 4))
    def test_xgcd_identity(self, a, b):
        if not a and not b:
            return
        g, u, v = fq_xgcd(a, b)
        assert u * a + v * b == g

    def test_index_roundtrip(self):
        for q in (2, 3):
            for i in range(q**4):
                assert poly_to_index(poly_from_index(q, i)) == i

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FqPoly.t(2) + FqPoly.t(3)


class TestIrreducibility:
    def test_known_irreducibles_f2(self):
        t = FqPoly.t(2)
        assert is_irreducible(t**2 + t + 1)
        assert not is_irreducible(t**2 + 1)  # (t+1)^2
        assert is_irreducible(t**3 + t + 1)
        assert is_irreducible(t**3 + t**2 + 1)
        assert not is_irreducible(t**4 + t**2 + 1)

    @pytest.mark.parametrize("q,n", [(2, d) for d in range(1, 12)] + [(3, d) for d in range(1, 8)] + [(5, d) for d in range(1, 5)] + [(7, d) for d in range(1, 4)] + [(11, 1), (11, 2), (11, 3), (13, 1), (13, 2), (13, 3)])
    def test_count_formula_matches_enumeration(self, q, n):
        # cross-check against exhaustive enumeration wherever q^n <= 4096
        if q**n > 4096:
            pytest.skip("beyond the exhaustive window")
        enumerated = len(monic_irreducibles_of_degree(q, n))
        assert enumerated == count_monic_irreducibles(q, n)

    def test_monic_enumeration_complete(self):
        assert len(list(monic_polys_of_degree(2, 3))) == 8
        assert len(list(all_polys(3, 2))) == 27


class TestFqRational:
    def test_normalization(self):
        t = FqPoly.t(2)
        x = FqRational(t**2 + t, t)  # = t + 1
        assert x.num == t + 1 and x.den == FqPoly.one(2)
        y = FqRational(t, t + 1)
        assert (y * FqRational(t + 1)).num == t

    @given(polys(3, 3), polys(3, 3), polys(3, 2), polys(3, 2))
    def test_field_axioms(self, a, b, c, d):
        if not b or not d:
            return
        x = FqRational(a, b)
        y = FqRational(c, d)
        assert x + y == y + x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x

    def test_monic_denominator(self):
        t = FqPoly.t(5)
        x = FqRational(t, 2 * t + 1)
        assert x.den.is_monic


class TestPickleAndDeepcopy:
    """Immutable values round-trip through pickle and copy.deepcopy; the
    default slot restore would go through the refusing __setattr__."""

    VALUES = [
        FqPoly.t(2),
        FqPoly.zero(3),
        FqPoly(5, (4, 0, 3, 1)),
        FqRational(FqPoly.t(3), FqPoly(3, (1, 1))),
        FqRational(FqPoly.zero(2)),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_roundtrip(self, value, roundtrip):
        back = roundtrip(value)
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert str(back) == str(value)

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_curve_and_point_over_function_field(self, roundtrip):
        from ratgrowth.globalfield import GlobalField, primitive_normalize

        field = GlobalField.parse("Fq(t):q=2")
        f = poly_parse("x1*x0^3 - t*x2^4", 3, field.integer_domain())
        pt = primitive_normalize(field, (FqPoly.t(2), FqPoly.one(2), FqPoly.zero(2)))
        assert roundtrip(f) == f and str(roundtrip(f)) == str(f)
        assert roundtrip(pt) == pt


class TestCoeffDomain:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            CoeffDomain.prime_field(6)
        with pytest.raises(ValueError):
            CoeffDomain.poly_ring(4)
        t = FqPoly.t(2)
        with pytest.raises(ValueError):
            CoeffDomain.residue_field(t**2 + 1)  # reducible
        CoeffDomain.residue_field(t**2 + t + 1)

    def test_residue_field_inverse(self):
        t = FqPoly.t(2)
        dom = CoeffDomain.residue_field(t**3 + t + 1)
        assert dom.size == 8
        for elem in dom.elements():
            if dom.is_zero(elem):
                continue
            assert dom.mul(elem, dom.inv(elem)) == dom.one

    def test_prime_field_ops(self):
        dom = CoeffDomain.prime_field(7)
        assert dom.add(5, 4) == 2
        assert dom.mul(3, 5) == 1
        assert dom.inv(3) == 5
        assert dom.exact_div(1, 3) == 5

    def test_integer_exact_div(self):
        dom = CoeffDomain.integers()
        assert dom.exact_div(12, 4) == 3
        with pytest.raises(ArithmeticError):
            dom.exact_div(10, 4)

    def test_sample_deterministic(self):
        dom = CoeffDomain.rational_functions(3)
        a = [dom.sample(random.Random(42)) for _ in range(5)]
        b = [dom.sample(random.Random(42)) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize(
        "dom",
        [
            CoeffDomain.integers(),
            CoeffDomain.rationals(),
            CoeffDomain.prime_field(5),
            CoeffDomain.poly_ring(2),
            CoeffDomain.rational_functions(3),
        ],
    )
    @settings(max_examples=25)
    @given(data=st.data())
    def test_ring_axioms_via_sample(self, dom, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
        a, b, c = (dom.sample(rng) for _ in range(3))
        assert dom.add(dom.add(a, b), c) == dom.add(a, dom.add(b, c))
        assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))
        assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
        assert dom.add(a, dom.neg(a)) == dom.zero


SIX_KINDS = [
    CoeffDomain.integers(),
    CoeffDomain.rationals(),
    CoeffDomain.prime_field(7),
    CoeffDomain.poly_ring(3),
    CoeffDomain.rational_functions(2),
    CoeffDomain.residue_field(FqPoly(2, (1, 1, 0, 1))),
]


class TestModulusDecidedOnce:
    """add, sub, neg, mul and exact_div against the per-kind branches they
    replaced, which are kept here as the oracle."""

    @staticmethod
    def reduced(dom, value):
        if dom.kind == "residue_field":
            return value % dom.pi
        if dom.kind == "prime_field":
            return value % dom.p
        return value

    @classmethod
    def old_exact_div(cls, dom, a, b):
        if dom.kind in ("integers", "poly_ring"):
            quo, rem = divmod(a, b)
            if rem:
                raise ArithmeticError(f"{b} does not divide {a}")
            return quo
        return dom.div(a, b)

    @staticmethod
    def outcome(fn, *args):
        try:
            value = fn(*args)
        except ArithmeticError as exc:
            return type(exc)
        return type(value), value

    @pytest.mark.parametrize("dom", SIX_KINDS, ids=lambda d: d.describe())
    def test_ops_match_the_kind_branches(self, dom):
        rng = random.Random(16)
        for _ in range(200):
            a, b = dom.sample(rng), dom.sample(rng)
            for got, want in (
                (dom.add(a, b), self.reduced(dom, a + b)),
                (dom.sub(a, b), self.reduced(dom, a - b)),
                (dom.neg(a), self.reduced(dom, -a)),
                (dom.mul(a, b), self.reduced(dom, a * b)),
            ):
                assert type(got) is type(want) and got == want
            if dom.is_zero(b):
                continue
            # a multiple of b, and a draw that b need not divide
            for num in (dom.mul(a, b), a):
                assert self.outcome(dom.exact_div, num, b) == self.outcome(self.old_exact_div, dom, num, b)

    @pytest.mark.parametrize("dom", SIX_KINDS, ids=lambda d: d.describe())
    def test_constants_and_modulus(self, dom):
        assert dom.zero == dom.coerce(0) and dom.one == dom.coerce(1)
        assert type(dom.zero) is type(dom.coerce(0))
        want = {"prime_field": dom.p, "residue_field": dom.pi}.get(dom.kind)
        assert dom.modulus == want

    @pytest.mark.parametrize("dom", SIX_KINDS, ids=lambda d: d.describe())
    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_identity_is_the_four_fields(self, dom, roundtrip):
        assert [f.name for f in dataclasses.fields(CoeffDomain)] == ["kind", "p", "q", "pi"]
        twin = CoeffDomain(dom.kind, dom.p, dom.q, dom.pi)
        assert twin == dom and hash(twin) == hash(dom) and repr(twin) == repr(dom)
        assert "modulus" not in repr(dom)
        back = roundtrip(dom)
        assert back == dom and hash(back) == hash(dom)
        assert (back.modulus, back.zero, back.one) == (dom.modulus, dom.zero, dom.one)
        assert back.add(back.one, back.one) == dom.add(dom.one, dom.one)
        assert dom != CoeffDomain.prime_field(5)
