"""Places, absolute values, heights, primitive points, reductions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.fqpoly import FqPoly, FqRational, all_polys, fq_gcd, poly_from_index, poly_to_index
from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.primes import PrimeIdealDesc, primes_in_range
from ratgrowth.globalfield import (
    AllCoordinatesVanish,
    GlobalField,
    ProjPoint,
    Place,
    ResiduePoint,
    abs_value,
    height_of_primitive,
    height_proj,
    is_canonical_lead,
    places_with_nontrivial_value,
    primitive_normalize,
    product_formula_check,
    reduce_point_mod_p,
)

Q = GlobalField.rationals()
F2 = GlobalField.function_field(2)
F3 = GlobalField.function_field(3)
F5 = GlobalField.function_field(5)


def normalize_residue_tuple(domain: CoeffDomain, coords) -> ResiduePoint:
    """Oracle for reduce_point_mod_p: the residue point of a tuple coerced
    into `domain`."""
    scaled = domain.primitive([domain.coerce(c) for c in coords])
    if scaled is None:
        raise AllCoordinatesVanish("residue tuple is identically zero")
    return ResiduePoint(domain, scaled)


def random_rational(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-999, 999)
    return Fraction(num, rng.randint(1, 999))


def random_ff_element(rng, q) -> FqRational:
    num = FqPoly.zero(q)
    while not num:
        num = poly_from_index(q, rng.randrange(q**9))
    den = FqPoly.zero(q)
    while not den:
        den = poly_from_index(q, rng.randrange(q**9))
    return FqRational(num, den)


class TestField:
    def test_unsupported_kind_fails_loudly(self):
        with pytest.raises(NotImplementedError):
            GlobalField("cubic")
        with pytest.raises(ValueError):
            GlobalField.function_field(4)

    def test_parse_descriptors(self):
        assert GlobalField.parse("Q").is_rational
        f = GlobalField.parse("Fq(t):q=3")
        assert f.q == 3 and f.d_K == 1

    # q is ASCII digits: int() used to read "1_1" as 11 and "١١" as 11
    @pytest.mark.parametrize("descriptor", ["Fq(t):q=1_1", "Fq(t):q=١١", "Fq(t):q= 3", "Fq(t):q=+3", "Fq(t):q="])
    def test_descriptor_q_is_ascii_digits(self, descriptor):
        with pytest.raises(ValueError) as err:
            GlobalField.parse(descriptor)
        assert str(err.value) == f"unknown field descriptor {descriptor!r}"


# -- oracles: the per-field helpers that GlobalField's O_K methods replaced ----


def _max_degree(q: int, bound: int) -> int:
    k = 0
    while q ** (k + 1) <= bound:
        k += 1
    return k


def _box_side(field: GlobalField, bound: int) -> int:
    if field.is_rational:
        return 2 * bound + 1
    return field.q ** (_max_degree(field.q, bound) + 1)


def _lead_count(field: GlobalField, bound: int) -> int:
    return bound if field.is_rational else (_box_side(field, bound) - 1) // (field.q - 1)


def _box_values(field: GlobalField, bound: int) -> list:
    if field.is_rational:
        b = int(bound)
        return list(range(-b, b + 1))
    return list(all_polys(field.q, _max_degree(field.q, bound)))


def _norm_of(field: GlobalField, value) -> int:
    if field.is_rational:
        return abs(value)
    if not value:
        return 0
    return field.q**value.degree


def _height_of_primitive(field: GlobalField, coords) -> int:
    if field.is_rational:
        return max(abs(c) for c in coords)
    return field.q ** max(c.degree for c in coords if c)


def _is_unit_gcd(field: GlobalField, g) -> bool:
    if field.is_rational:
        return g == 1
    return g.degree == 0


def _gcd_step(field: GlobalField, g, x):
    if field.is_rational:
        return gcd(g, abs(x))
    if not x:
        return g
    return x.monic() if not g else fq_gcd(g, x)


def _old_sort_key(point: ProjPoint):
    if point.field.is_rational:
        return (point.height, point.coords)
    return (point.height, tuple(poly_to_index(c) for c in point.coords))


def _bounds(field: GlobalField) -> list[int]:
    """Every bound from 1 to 70, and each q^k and q^k - 1 in F_q(t)."""
    out = set(range(1, 71))
    if not field.is_rational:
        for k in range(1, 41):
            out |= {field.q**k, field.q**k - 1}
    return sorted(out)


FIELDS = [Q, F2, F3, F5]


@pytest.mark.parametrize("field", FIELDS, ids=GlobalField.describe)
class TestIntegerRing:
    # the boxes are listed up to this many elements; larger bounds compare
    # the side and the lead count, which are computed without listing
    LISTED = 5**5

    def test_descriptor_inverts_parse(self, field):
        assert GlobalField.parse(field.descriptor()) == field
        assert field.descriptor() == (field.kind if field.is_rational else f"Fq(t):q={field.q}")

    def test_zero_and_one(self, field):
        assert not field.zero and field.size(field.zero) == 0
        assert field.one == field.integer_domain().one and field.size(field.one) == 1

    def test_box_side_and_leads(self, field):
        for bound in _bounds(field):
            side = field.box_side(bound)
            assert side == _box_side(field, bound), bound
            assert field.box_leads(bound) == _lead_count(field, bound), bound
            if side <= self.LISTED:
                box = field.box(bound)
                assert box == _box_values(field, bound), bound
                assert len(box) == side
                assert sum(map(is_canonical_lead, [field] * side, box)) == field.box_leads(bound)

    def test_key_size_and_order(self, field):
        box = field.box(self.LISTED // 2 if field.is_rational else self.LISTED // field.q)
        if not field.is_rational:
            assert list(map(poly_to_index, box)) == list(range(len(box)))
        # elements compare in the canonical order of the box
        assert sorted(reversed(box)) == box
        assert [field.size(x) for x in box] == [_norm_of(field, x) for x in box]

    def test_height_and_sort_key(self, field):
        rng = random.Random(field.descriptor())
        box = field.box(40 if field.is_rational else field.q**3)
        points = set()
        while len(points) < 300:
            raw = [rng.choice(box) for _ in range(3)]
            if any(raw):
                points.add(primitive_normalize(field, raw))
        for point in points:
            assert point.height == height_of_primitive(field, point.coords)
            assert point.height == _height_of_primitive(field, point.coords)
        assert sorted(points, key=ProjPoint.sort_key) == sorted(points, key=_old_sort_key)

    def test_gcd_fold(self, field):
        rng = random.Random(field.descriptor())
        for bound in _bounds(field):
            if field.box_side(bound) > self.LISTED:
                continue
            box = field.box(bound)
            for x in box:  # a zero argument still normalizes
                assert field.gcd(x, field.zero) == field.gcd(field.zero, x) == _gcd_step(field, field.zero, x)
            for _ in range(40):
                xs = [rng.choice(box) for _ in range(rng.randint(1, 4))]
                g, old = field.zero, field.zero
                for x in xs:
                    g, old = field.gcd(g, x), _gcd_step(field, old, x)
                    assert g == old, (bound, xs)
                assert (g == field.one) == _is_unit_gcd(field, old)
                assert not g or is_canonical_lead(field, g)  # nonnegative resp. monic

    def test_lead_unit(self, field):
        box = field.box(40 if field.is_rational else field.q**3)
        units = {field.lead_unit(x) for x in box}
        # the units of O_K, each making its multiples canonical
        assert units == ({1, -1} if field.is_rational else set(range(1, field.q)))
        assert field.lead_unit(field.zero) == 1
        for x in box:
            if x:
                assert is_canonical_lead(field, x * field.lead_unit(x))
                assert (field.lead_unit(x) == 1) == is_canonical_lead(field, x)


class TestAbsValue:
    def test_spec_values(self):
        assert abs_value(Q, 12, Place.finite(PrimeIdealDesc(2, 2))) == Fraction(1, 4)
        t = FqPoly.t(3)
        assert abs_value(F3, FqRational(t**2 + 1), Place.infinite()) == 9
        assert abs_value(Q, Fraction(3, 5), Place.archimedean()) == Fraction(3, 5)

    def test_zero(self):
        assert abs_value(Q, 0, Place.archimedean()) == 0

    def test_place_field_mismatch(self):
        with pytest.raises(ValueError):
            abs_value(F2, FqRational(FqPoly.one(2)), Place.archimedean())
        with pytest.raises(ValueError):
            abs_value(Q, 5, Place.infinite())


class TestProductFormula:
    def test_spec_examples(self):
        assert product_formula_check(Q, 6) == 1
        assert product_formula_check(Q, -1) == 1
        t = FqPoly.t(2)
        assert product_formula_check(F2, FqRational(t, t + 1)) == 1

    def test_ff_hand_oracle(self):
        # |t/(t+1)|: at (t) it is 1/2, at (t+1) it is 2, at infinity 2^0 = 1
        t = FqPoly.t(2)
        x = FqRational(t, t + 1)
        vt = abs_value(F2, x, Place.finite(PrimeIdealDesc(t, 2)))
        vt1 = abs_value(F2, x, Place.finite(PrimeIdealDesc(t + 1, 2)))
        vinf = abs_value(F2, x, Place.infinite())
        assert (vt, vt1, vinf) == (Fraction(1, 2), Fraction(2), Fraction(1))

    def test_large_number_with_small_factors(self):
        x = Fraction(10**20, 3**40)
        places = places_with_nontrivial_value(Q, x)
        assert [str(place.prime) for place in places[1:]] == ["2", "3", "5"]
        assert product_formula_check(Q, x) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_random_rationals(self, seed):
        rng = random.Random(seed)
        assert product_formula_check(Q, random_rational(rng)) == 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_random_function_field(self, seed):
        rng = random.Random(seed)
        assert product_formula_check(F3, random_ff_element(rng, 3)) == 1


class TestPrimitiveNormalize:
    def test_spec_examples(self):
        assert primitive_normalize(Q, (Fraction(2, 3), Fraction(4, 3), 0)).coords == (1, 2, 0)
        assert primitive_normalize(Q, (-3, 6, -9)).coords == (1, -2, 3)
        t = FqPoly.t(2)
        p = primitive_normalize(F2, (FqRational(t**2 + t), FqRational(t)))
        assert p.coords == (t + 1, FqPoly.one(2))

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(4)
        for _ in range(50):
            raw = tuple(random_rational(rng) for _ in range(3))
            p = primitive_normalize(Q, raw)
            again = primitive_normalize(Q, p.coords)
            assert again.coords == p.coords
            lam = random_rational(rng)
            scaled = primitive_normalize(Q, tuple(lam * c for c in raw))
            assert scaled.coords == p.coords

    def test_ff_scale_invariant(self):
        rng = random.Random(9)
        for _ in range(25):
            raw = tuple(random_ff_element(rng, 2) for _ in range(3))
            p = primitive_normalize(F2, raw)
            lam = random_ff_element(rng, 2)
            scaled = primitive_normalize(F2, tuple(lam * c for c in raw))
            assert scaled.coords == p.coords
            assert primitive_normalize(F2, p.coords).coords == p.coords

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_normalize(Q, (0, 0, 0))


class TestHeights:
    def test_spec_examples(self):
        assert height_proj(Q, (1, 2)) == 2
        assert height_proj(Q, (2, 4)) == 2
        t = FqPoly.t(3)
        assert height_proj(F3, (FqRational(FqPoly.one(3)), FqRational(t))) == 3
        assert height_proj(Q, (6, 10, 15)) == 15

    def test_height_at_least_one_and_exact_max(self):
        rng = random.Random(17)
        for _ in range(60):
            raw = tuple(random_rational(rng) for _ in range(3))
            p = primitive_normalize(Q, raw)
            assert p.height >= 1
            assert p.height == max(abs(c) for c in p.coords)
            lam = random_rational(rng)
            assert height_proj(Q, tuple(lam * c for c in raw)) == p.height


class TestBox:
    def test_spec_examples(self):
        # box(bound) holds exactly the O_K elements of size at most bound
        assert -7 in Q.box(7) and Q.size(-7) == 7
        t = FqPoly.t(2)
        assert t**3 in F2.box(8) and F2.size(t**3) == 8
        assert t**3 not in F2.box(7)
        assert 0 in Q.box(1) and Q.size(0) == 0
        assert FqPoly.zero(2) in F2.box(1) and F2.size(FqPoly.zero(2)) == 0


class TestReduction:
    def test_spec_examples(self):
        p5 = PrimeIdealDesc(5, 5)
        r = reduce_point_mod_p(primitive_normalize(Q, (1, 2, 0)), p5)
        assert str(r) == "(1 : 2 : 0)"
        r2 = reduce_point_mod_p(primitive_normalize(Q, (3, 5, 7)), p5)
        # (3 : 0 : 2) normalized to leading 1: multiply by 3^-1 = 2 mod 5
        assert str(r2) == "(1 : 0 : 4)"
        t = FqPoly.t(2)
        r3 = reduce_point_mod_p(
            primitive_normalize(F2, (t + 1, FqPoly.one(2))), PrimeIdealDesc(t, 2)
        )
        assert str(r3) == "(1 : 1)"

    def test_commutes_with_permutation(self):
        rng = random.Random(23)
        p7 = PrimeIdealDesc(7, 7)
        for _ in range(40):
            raw = tuple(rng.randint(-30, 30) for _ in range(3))
            if not any(raw):
                continue
            point = primitive_normalize(Q, raw)
            reduced = reduce_point_mod_p(point, p7)
            perm = [0, 1, 2]
            rng.shuffle(perm)
            permuted_raw = tuple(raw[perm[i]] for i in range(3))
            reduced_perm = reduce_point_mod_p(primitive_normalize(Q, permuted_raw), p7)
            direct_perm = tuple(reduced.coords[perm[i]] for i in range(3))
            assert reduced_perm == normalize_residue_tuple(reduced.domain, direct_perm)

    def test_higher_degree_residue_field(self):
        t = FqPoly.t(2)
        pi = t**2 + t + 1
        prime = PrimeIdealDesc(pi, 4)
        point = primitive_normalize(F2, (t**3, t + 1, FqPoly.one(2)))
        r = reduce_point_mod_p(point, prime)
        assert r.domain.kind == "residue_field"
        assert len(r.coords) == 3

    @pytest.mark.parametrize(
        "field, coords, prime",
        [
            (Q, (5, 10, 0), PrimeIdealDesc(5, 5)),
            (F2, (FqPoly(2, [1, 1]), FqPoly.zero(2)), PrimeIdealDesc(FqPoly(2, [1, 1]), 2)),
            (F3, (FqPoly(3, [1, 0, 1]),) * 2, PrimeIdealDesc(FqPoly(3, [1, 0, 1]), 9)),
        ],
    )
    def test_non_primitive_input_named(self, field, coords, prime):
        point = ProjPoint(field, coords, 0)  # bypasses primitive_normalize
        with pytest.raises(AllCoordinatesVanish, match="non-primitive input"):
            reduce_point_mod_p(point, prime)

    def test_prime_of_another_field_refused(self):
        point = primitive_normalize(Q, (1, 2, 3))
        with pytest.raises(ValueError, match="does not belong"):
            reduce_point_mod_p(point, PrimeIdealDesc(FqPoly(2, [1, 1]), 2))

    @pytest.mark.parametrize(
        "field, prime",
        [(Q, p) for p in primes_in_range(1, 30)]
        + [(F2, p) for p in primes_in_range(1, 9, 2)]
        + [(F3, p) for p in primes_in_range(1, 28, 3)],
        ids=str,
    )
    def test_reduction_matches_normalizing_unreduced_tuples(self, field, prime):
        # reduce_point_mod_p scales the residues prime.residue already
        # reduced; normalize_residue_tuple coerces raw input first
        rng = random.Random(prime.norm)
        dom = prime.residue_field
        for _ in range(30):
            if field.is_rational:
                raw = [rng.randint(-60, 60) for _ in range(3)]
            else:
                raw = [poly_from_index(field.q, rng.randrange(field.q**4)) for _ in range(3)]
            if not any(raw):
                continue
            point = primitive_normalize(field, raw)
            try:
                fast = reduce_point_mod_p(point, prime)
            except AllCoordinatesVanish:
                continue
            if field.is_rational or prime.generator.degree >= 2:
                unreduced = point.coords  # ints, or polynomials not yet reduced mod pi
            else:  # F_q: residues shifted by multiples of q, some negative
                unreduced = [prime.residue(c) + field.q * rng.randint(-3, 3) for c in point.coords]
            slow = normalize_residue_tuple(dom, unreduced)
            assert fast == slow and fast.coords == slow.coords
            assert hash(fast) == hash(slow)
            assert fast.domain is dom

    def test_residue_field_of_degree_two_is_reached(self):
        assert any(p.residue_field.kind == "residue_field" for p in primes_in_range(1, 9, 2))

    def test_reduced_points_are_whole_records(self):
        # reduce_point_mod_p builds its points without __init__; each is
        # slotted, frozen, and equal to, hashed, shown and pickled as the
        # point that __init__ builds
        import copy
        import pickle

        from ratgrowth.records import FrozenInstanceError

        for field, prime in ((Q, PrimeIdealDesc(7, 7)), (F3, primes_in_range(3, 10, 3)[0])):
            rp = reduce_point_mod_p(primitive_normalize(field, (2, 3, 5) if field.is_rational else (
                FqPoly(3, [1, 1]), FqPoly(3, [2]), FqPoly(3, [0, 1, 1]))), prime)
            built = ResiduePoint(rp.domain, rp.coords)
            assert not hasattr(rp, "__dict__")
            assert rp == built and hash(rp) == hash(built) and repr(rp) == repr(built)
            for copied in (pickle.loads(pickle.dumps(rp)), copy.deepcopy(rp)):
                assert copied == rp and type(copied) is ResiduePoint
            with pytest.raises(FrozenInstanceError):
                rp.coords = (1, 0, 0)

    def test_equal_coords_over_different_domains_differ(self):
        f5, f7 = CoeffDomain.prime_field(5), CoeffDomain.prime_field(7)
        a, b = ResiduePoint(f5, (1, 2, 3)), ResiduePoint(f7, (1, 2, 3))
        assert a != b
        assert len({a, b}) == 2
        assert ResiduePoint(f5, (1, 2, 3)) == a and hash(ResiduePoint(f5, (1, 2, 3))) == hash(a)
