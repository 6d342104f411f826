"""Domain arithmetic: F_q[t], F_q(t), prime/residue fields, exactness."""

import copy
import pickle
import random
from fractions import Fraction

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


def _records() -> dict:
    """One instance of every record class, by class name."""
    from ratgrowth import detmethod
    from ratgrowth.algebra.linalg import ExactMatrix
    from ratgrowth.algebra.primes import PrimeIdealDesc
    from ratgrowth.enumeration import EnumOptions, PointQuery, PointSetResult
    from ratgrowth.globalfield import GlobalField, Place, primitive_normalize, reduce_point_mod_p
    from ratgrowth.harness import CUSPIDAL_FAMILY, BoundSpec, ExperimentReport, ExperimentRow, FitResult
    from ratgrowth.reduction import (
        CycleIntersection,
        FactoredCycle,
        HighMultLocus,
        MultiplicityReport,
        reduce_curve_mod_p,
    )

    Q, ZZ, F5 = GlobalField.rationals(), CoeffDomain.integers(), CoeffDomain.prime_field(5)
    p5 = PrimeIdealDesc(5, 5)
    conic = poly_parse("x0*x2 - x1^2", 3, ZZ)
    point = primitive_normalize(Q, (1, 2, 4))
    residue = reduce_point_mod_p(point, p5)
    regime = detmethod.RegimeReport("Curve", False, 8.97, 3, 89.4)
    row = ExperimentRow("cuspidal_monomial", "Q", 3, 8, 8, 2.5, 3.2, True, 1.5)
    chart = detmethod._Chart(False, len, sorted, tuple, str)
    t = FqPoly.t(2)
    return {
        "CoeffDomain": CoeffDomain.residue_field(t**2 + t + 1),
        "ExactMatrix": ExactMatrix.from_rows(F5, [[1, 2], [3, 4]]),
        "PrimeIdealDesc": p5,
        "GlobalField": GlobalField.function_field(2),
        "Place": Place.finite(p5),
        "ProjPoint": point,
        "ResiduePoint": residue,
        "EnumOptions": EnumOptions(collect=False),
        "PointQuery": PointQuery(Q, "projective", 3, conic, 10, mode="count"),
        "PointSetResult": PointSetResult(1, (point,), 0.5),
        "ReducedHypersurface": reduce_curve_mod_p(conic, p5),
        "MultiplicityReport": MultiplicityReport((0, 0, 1), 2, "hypersurface"),
        "FactoredCycle": FactoredCycle(((conic, 1),), 3, 1),
        "HighMultLocus": HighMultLocus("ok", poly_parse("x0", 3, F5), 1, (residue,), Fraction(1, 2)),
        "CycleIntersection": CycleIntersection((((0, 0, 1), 2),), 2, 4, (1, 2)),
        "BoundSpec": BoundSpec("Curve"),
        "FamilySpec": CUSPIDAL_FAMILY,
        "FitResult": FitResult(0.5, 1.25, (0.0, -0.5), False),
        "ExperimentRow": row,
        "ExperimentReport": ExperimentReport("cuspidal_monomial", "Q", 3, [row], None),
        "MonomialBasis": detmethod.monomial_basis(3, 1),
        "ValuationCertificate": detmethod.ValuationCertificate(
            p5, residue, 1, 1, 3, (point,), 25, 2, 0.5, 1.5, "MeetsBound", True, 3.25, 10.0
        ),
        "RegimeReport": regime,
        "ClassRecord": detmethod.ClassRecord(p5, residue, 1, 3, "ok", "x0 - x1"),
        "CoverResult": detmethod.CoverResult(conic, 3, regime, [], [], {}, [], {"points": 0}),
        "_Chart": chart,
        "_CoverPlan": detmethod._CoverPlan(conic, 3, Q, chart, None, [], conic, [p5], 1.5, 1, {"d_prime": 1}),
        "CoverParams": detmethod.CoverParams(),
        "AffineCoverParams": detmethod.AffineCoverParams(primes=(p5,)),
    }


# the dataclass reprs of the _records() values, which the record helper keeps
RECORD_REPRS = {
    'CoeffDomain': "CoeffDomain(kind='residue_field', p=None, q=2, pi=FqPoly(q=2, t^2+t+1))",
    'ExactMatrix': "ExactMatrix(domain=CoeffDomain(kind='prime_field', p=5, q=None, pi=None), entries=((1, 2), (3, 4)))",
    'PrimeIdealDesc': 'PrimeIdealDesc(generator=5, norm=5)',
    'GlobalField': "GlobalField(kind='Fq(t)', q=2)",
    'Place': "Place(kind='finite', prime=PrimeIdealDesc(generator=5, norm=5))",
    'ProjPoint': "ProjPoint(field=GlobalField(kind='Q', q=None), coords=(1, 2, 4), height=4)",
    'ResiduePoint': "ResiduePoint(domain=CoeffDomain(kind='prime_field', p=5, q=None, pi=None), coords=(1, 2, 4))",
    'EnumOptions': 'EnumOptions(collect=False, sieve=None, budget=50000000)',
    'PointQuery': "PointQuery(field=GlobalField(kind='Q', q=None), ambient='projective', nvars=3, f=MultiPoly(Z, nvars=3, -x1^2 + x0*x2), bound=10, mode='count', sieve=None, budget=50000000)",
    'PointSetResult': "PointSetResult(count=1, points=(ProjPoint(field=GlobalField(kind='Q', q=None), coords=(1, 2, 4), height=4),), elapsed=0.5, sieve_rejections=0)",
    'ReducedHypersurface': 'ReducedHypersurface(f_p=MultiPoly(F_5, nvars=3, x1^2 + 4*x0*x2), original_degree=2, reduced_degree=2, good=True, prime=PrimeIdealDesc(generator=5, norm=5))',
    'MultiplicityReport': "MultiplicityReport(point=(0, 0, 1), mu=2, context='hypersurface')",
    'FactoredCycle': 'FactoredCycle(components=((MultiPoly(Z, nvars=3, -x1^2 + x0*x2), 1),), nvars=3, dim=1)',
    'HighMultLocus': "HighMultLocus(kind='ok', poly=MultiPoly(F_5, nvars=3, x0), degree=1, locus=(ResiduePoint(domain=CoeffDomain(kind='prime_field', p=5, q=None, pi=None), coords=(1, 2, 4)),), threshold=Fraction(1, 2))",
    'CycleIntersection': 'CycleIntersection(point_mults=(((0, 0, 1), 2),), total_degree=2, degree_bound=4, direction=(1, 2))',
    'BoundSpec': "BoundSpec(theorem='Curve', c=1.0, kappa=12, d_K=1)",
    'FamilySpec': "FamilySpec(name='cuspidal_monomial', template='x1*x0^{d1} - x2^{d}')",
    'FitResult': 'FitResult(slope=0.5, intercept=1.25, residuals=(0.0, -0.5), degenerate=False)',
    'ExperimentRow': "ExperimentRow(family='cuspidal_monomial', field='Q', d=3, H=8, count=8, bound=2.5, ratio=3.2, regime_ok=True, elapsed_ms=1.5, status='ok')",
    'ExperimentReport': "ExperimentReport(family='cuspidal_monomial', field='Q', d=3, rows=[ExperimentRow(family='cuspidal_monomial', field='Q', d=3, H=8, count=8, bound=2.5, ratio=3.2, regime_ok=True, elapsed_ms=1.5, status='ok')], fitted_exponent=None)",
    'MonomialBasis': 'MonomialBasis(nvars=3, degree=1, monomials=((1, 0, 0), (0, 1, 0), (0, 0, 1)))',
    'ValuationCertificate': "ValuationCertificate(prime=PrimeIdealDesc(generator=5, norm=5), residue_point=ResiduePoint(domain=CoeffDomain(kind='prime_field', p=5, q=None, pi=None), coords=(1, 2, 4)), mu=1, degree=1, s=3, points=(ProjPoint(field=GlobalField(kind='Q', q=None), coords=(1, 2, 4), height=4),), det_norm=25, valuation=2, a=0.5, bound_rhs=1.5, verdict='MeetsBound', norm_cap_ok=True, log_norm=3.25, log_norm_cap=10.0)",
    'RegimeReport': "RegimeReport(variant='Curve', ok=False, lhs=8.97, d=3, rhs=89.4)",
    'ClassRecord': "ClassRecord(prime=PrimeIdealDesc(generator=5, norm=5), residue_point=ResiduePoint(domain=CoeffDomain(kind='prime_field', p=5, q=None, pi=None), coords=(1, 2, 4)), mu=1, class_size=3, aux_status='ok', aux_poly='x0 - x1')",
    'CoverResult': "CoverResult(curve=MultiPoly(Z, nvars=3, -x1^2 + x0*x2), H=3, regime=RegimeReport(variant='Curve', ok=False, lhs=8.97, d=3, rhs=89.4), aux_polys=[], classes=[], high_mult={}, uncovered=[], counts={'points': 0})",
    '_Chart': "_Chart(projective=False, residue=<built-in function len>, monomials=<built-in function sorted>, coords=<class 'tuple'>, sort_key=<class 'str'>)",
    '_CoverPlan': "_CoverPlan(f=MultiPoly(Z, nvars=3, -x1^2 + x0*x2), H=3, field=GlobalField(kind='Q', q=None), chart=_Chart(projective=False, residue=<built-in function len>, monomials=<built-in function sorted>, coords=<class 'tuple'>, sort_key=<class 'str'>), regime=None, points=[], lift=MultiPoly(Z, nvars=3, -x1^2 + x0*x2), good=[PrimeIdealDesc(generator=5, norm=5)], threshold=1.5, degree=1, high_mult={'d_prime': 1})",
    'CoverParams': 'CoverParams(M=4.0, N=4.0, budget=50000000)',
    'AffineCoverParams': 'AffineCoverParams(M=4.0, a=0.6, budget=50000000, primes=(PrimeIdealDesc(generator=5, norm=5),))',
}
MUTABLE_RECORDS = {"CoverResult", "PointSetResult", "ExperimentRow", "ExperimentReport"}
ROUNDTRIPS = [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy]


class TestPickleAndDeepcopy:
    """Immutable values round-trip through pickle and copy.deepcopy; the
    default slot restore would go through the refusing __setattr__.  The
    record classes keep the semantics of the dataclasses they replaced."""

    VALUES = [
        FqPoly.t(2),
        FqPoly.zero(3),
        FqPoly(5, (4, 0, 3, 1)),
        FqRational(FqPoly.t(3), FqPoly(3, (1, 1))),
        FqRational(FqPoly.zero(2)),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS, ids=["pickle", "deepcopy"])
    def test_roundtrip(self, value, roundtrip):
        back = roundtrip(value)
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert str(back) == str(value)

    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS, ids=["pickle", "deepcopy"])
    def test_curve_and_point_over_function_field(self, roundtrip):
        from ratgrowth.globalfield import GlobalField, primitive_normalize

        field = GlobalField.parse("Fq(t):q=2")
        f = poly_parse("x1*x0^3 - t*x2^4", 3, field.integer_domain())
        pt = primitive_normalize(field, (FqPoly.t(2), FqPoly.one(2), FqPoly.zero(2)))
        assert roundtrip(f) == f and str(roundtrip(f)) == str(f)
        assert roundtrip(pt) == pt

    @pytest.mark.parametrize("field", ["Q", "Fq(t):q=2"])
    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS, ids=["pickle", "deepcopy"])
    def test_slotted_proj_point(self, field, roundtrip):
        from ratgrowth.enumeration import enum_curve_points_proj
        from ratgrowth.globalfield import GlobalField, ProjPoint

        field = GlobalField.parse(field)
        conic = poly_parse("x0*x2 - x1^2", 3, field.integer_domain())
        # collect mode builds its points without ProjPoint.__init__
        points = enum_curve_points_proj(conic, 4).points
        assert len(points) > 2 and not hasattr(points[-1], "__dict__")
        for point in points:
            back = roundtrip(point)
            assert type(back) is ProjPoint and back == point and hash(back) == hash(point)
            assert repr(back) == repr(point) and str(back) == str(point)
            assert back == ProjPoint(point.field, point.coords, point.height)

    def test_every_record_class_is_sampled(self):
        import sys

        import ratgrowth.cli  # noqa: F401  (imports every module)

        found = {
            value.__name__
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "ratgrowth"
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name and "_fields" in value.__dict__
        }
        assert found == set(RECORD_REPRS) and len(found) == 29

    @pytest.mark.parametrize("name", sorted(RECORD_REPRS))
    def test_record_repr_is_the_dataclass_one(self, name):
        assert repr(_records()[name]) == RECORD_REPRS[name]

    @pytest.mark.parametrize("name", sorted(RECORD_REPRS))
    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS, ids=["pickle", "deepcopy"])
    def test_record_equality_hash_and_roundtrip(self, name, roundtrip):
        value = _records()[name]
        cls = type(value)
        twin = cls(*[getattr(value, field) for field in cls._fields])
        back = roundtrip(value)
        assert type(back) is cls and twin == value and back == value and not twin != value
        assert repr(back) == repr(value)
        if name in MUTABLE_RECORDS:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(value)
        elif name == "_CoverPlan":
            # frozen, but hashing reaches its list fields, as a dataclass's did
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                hash(value)
        else:
            assert hash(twin) == hash(value) == hash(back)
        # equality holds only within one class, whatever the field values
        assert value != tuple(getattr(value, field) for field in cls._fields)

    @pytest.mark.parametrize("name", sorted(RECORD_REPRS))
    def test_frozen_records_refuse_assignment(self, name):
        value = _records()[name]
        first = type(value)._fields[0]
        if name in MUTABLE_RECORDS:
            setattr(value, first, "changed")
            assert getattr(value, first) == "changed"
            return
        with pytest.raises(AttributeError):
            setattr(value, first, "changed")
        with pytest.raises(AttributeError):
            delattr(value, first)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert repr(value) == RECORD_REPRS[name]

    def test_equality_only_within_one_class(self):
        from ratgrowth.harness import FamilySpec
        from ratgrowth.records import record

        @record(frozen=True)
        class Lookalike:
            name: str
            template: str

        spec, other = FamilySpec("a", "b"), Lookalike("a", "b")
        assert spec != other and other != spec and hash(spec) == hash(other)
        assert repr(other).endswith("Lookalike(name='a', template='b')")

    def test_keyword_and_default_construction(self):
        from ratgrowth.algebra.primes import PrimeIdealDesc
        from ratgrowth.detmethod import ClassRecord
        from ratgrowth.harness import BoundSpec

        p5 = PrimeIdealDesc(norm=5, generator=5)
        assert p5 == PrimeIdealDesc(5, 5)
        record = ClassRecord(prime=p5, residue_point=(1, 0), mu=1, class_size=2, aux_status="ok")
        assert record.aux_poly is None and record == ClassRecord(p5, (1, 0), 1, 2, "ok", None)
        assert BoundSpec("Curve") == BoundSpec("Curve", c=1.0, kappa=12, d_K=1) != BoundSpec("Curve", 2.0)
        for args, kwargs in [((), {}), (("Curve", 1.0, 12, 1, 0), {}), (("Curve",), {"theorem": "Curve"}),
                             (("Curve",), {"kappa_": 1})]:
            with pytest.raises(TypeError):
                BoundSpec(*args, **kwargs)

        from ratgrowth.records import record

        with pytest.raises(TypeError, match="without a default follows"):

            @record
            class Misordered:
                a: int = 0
                b: int

    def test_post_init_still_refuses_bad_input(self):
        from ratgrowth.algebra.primes import PrimeIdealDesc
        from ratgrowth.globalfield import GlobalField
        from ratgrowth.harness import BoundSpec

        for build in (lambda: GlobalField("Fq(t)", 4), lambda: GlobalField("Q", 2),
                      lambda: CoeffDomain.prime_field(6), lambda: PrimeIdealDesc(6, 6),
                      lambda: BoundSpec("NoSuchTheorem")):
            with pytest.raises(ValueError):
                build()

    def test_lift_is_outside_equality_and_repr(self):
        from ratgrowth.reduction import ReducedHypersurface

        value = _records()["ReducedHypersurface"]
        other = ReducedHypersurface(*[getattr(value, f) for f in ReducedHypersurface._fields[:-1]],
                                    lift=poly_parse("x0", 3, value.lift.domain))
        assert other.lift != value.lift and "lift" not in repr(value)
        assert other == value and hash(other) == hash(value) and repr(other) == repr(value)


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
        assert CoeffDomain._fields == ("kind", "p", "q", "pi")
        twin = CoeffDomain(dom.kind, dom.p, dom.q, dom.pi)
        assert twin == dom and hash(twin) == hash(dom) and repr(twin) == repr(dom)
        assert "modulus" not in repr(dom)
        back = roundtrip(dom)
        assert back == dom and hash(back) == hash(dom)
        assert (back.modulus, back.zero, back.one) == (dom.modulus, dom.zero, dom.one)
        assert back.add(back.one, back.one) == dom.add(dom.one, dom.one)
        assert dom != CoeffDomain.prime_field(5)
