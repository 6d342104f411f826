"""Prime ideal enumeration, residue maps and the primality recheck."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.fqpoly import FqPoly, count_monic_irreducibles, monic_polys_of_degree
from ratgrowth.algebra.primes import (
    PrimeIdealDesc,
    primes_in_range,
    rational_primes_below,
    recheck_prime,
)


def oracle_irreducible_cubics_f2():
    """Spec-style oracle: a cubic over F_2 is irreducible iff it has no
    root and no quadratic factor (the latter is implied by no root for
    cubics, but check anyway)."""
    t = FqPoly.t(2)
    out = []
    for g in monic_polys_of_degree(2, 3):
        has_root = any(g.evaluate(a) == 0 for a in (0, 1))
        has_quad = any(
            not (g % q_)
            for q_ in monic_polys_of_degree(2, 2)
        )
        if not has_root and not has_quad:
            out.append(g)
    return out


class TestPrimesInRange:
    def test_rational_strict_bounds(self):
        assert [p.norm for p in primes_in_range(3, 20)] == [5, 7, 11, 13, 17, 19]

    def test_empty_window(self):
        assert primes_in_range(20, 21) == []

    def test_function_field_window(self):
        # norms strictly between 1 and 9 over F_2: degrees 1..3
        descs = primes_in_range(1, 9, 2)
        assert [d.norm for d in descs] == [2, 2, 4, 8, 8]
        gens = [str(d.generator) for d in descs]
        assert gens[:3] == ["t", "t+1", "t^2+t+1"]
        cubics = {str(g) for g in oracle_irreducible_cubics_f2()}
        assert set(gens[3:]) == cubics

    def test_sorted_strictly_by_norm_then_generator(self):
        descs = primes_in_range(1, 28, 3)
        keys = [d.sort_key() for d in descs]
        assert keys == sorted(keys)
        norms = [d.norm for d in descs]
        assert norms == sorted(norms)

    def test_independent_recheck(self):
        for desc in primes_in_range(2, 200):
            assert recheck_prime(desc)
        for desc in primes_in_range(1, 128, 2):
            assert recheck_prime(desc)

    def test_bad_descriptor_rejected(self):
        with pytest.raises(ValueError):
            PrimeIdealDesc(6, 6)
        with pytest.raises(ValueError):
            PrimeIdealDesc(5, 7)
        t = FqPoly.t(2)
        with pytest.raises(ValueError):
            PrimeIdealDesc(t**2 + 1, 4)

    def test_listed_primes_equal_checked_ones(self):
        # primes_in_range builds its descriptors without the primality test;
        # each equals, and hashes as, the descriptor built with it
        for q in (None, 2, 3):
            for desc in primes_in_range(1, 90, q):
                checked = PrimeIdealDesc(desc.generator, desc.norm)
                assert desc == checked and hash(desc) == hash(checked)
                assert desc.residue_field == checked.residue_field
                assert recheck_prime(desc)

    def test_outside_input_is_still_checked(self):
        # a composite number and reducible quadratics over F_3
        t = FqPoly.t(3)
        for generator, norm in ((15, 15), (t**2 + 2, 9), (t**2 + t, 9)):
            with pytest.raises(ValueError, match="not"):
                PrimeIdealDesc(generator, norm)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            primes_in_range(0.5, 10)
        with pytest.raises(ValueError):
            primes_in_range(10, 3)

    @pytest.mark.parametrize("q", [0, 1])
    def test_q_at_most_one_is_refused(self, q):
        # q ** deg never reaches hi for q <= 1; a q that stops after a few
        # powers turns such a loop into an error instead of a hang
        with pytest.raises(ValueError, match=rf"q = {q}\b"):
            primes_in_range(1, 10, _FewPowers(q))

    @pytest.mark.parametrize("q", [4, 6, 9, 15])
    def test_composite_q_is_refused(self, q):
        # F_4(t) is not F_2[t]/(4): no "prime" over Z/q is listed
        with pytest.raises(ValueError, match=rf"q = {q}\b"):
            primes_in_range(1, 100, q)


class _FewPowers(int):
    """An int that allows a handful of powers of itself, then raises."""

    def __new__(cls, value: int):
        self = super().__new__(cls, value)
        self.left = 8
        return self

    def __pow__(self, other, mod=None):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError(f"q = {int(self)} was raised to a power too many times")
        return int(self) ** other


class TestChebyshevTheta:
    """Chebyshev's theta(T), the sum of log(norm) over the primes of norm < T,
    read off the primes that primes_in_range lists."""

    @staticmethod
    def theta(T, q=None):
        return sum(math.log(d.norm) for d in primes_in_range(1, T, q))

    def test_single_prime(self):
        assert math.isclose(self.theta(3), math.log(2))

    def test_four_primes(self):
        assert math.isclose(self.theta(11), math.log(2 * 3 * 5 * 7))

    def test_function_field_linear(self):
        assert math.isclose(self.theta(5, 3), 3 * math.log(3))

    def test_matches_enumeration_small(self):
        # oracle: the count of monic irreducibles of each degree k, each of
        # norm q^k, and the rational sieve for Q
        for q in (2, 3):
            for T in (3, 5, 9, 20, 60):
                counted = sum(
                    count_monic_irreducibles(q, k) * k * math.log(q)
                    for k in range(1, T) if q**k < T
                )
                assert math.isclose(self.theta(T, q), counted)
        for T in (3, 5, 9, 20, 60, 1000):
            sieved = sum(math.log(p) for p in rational_primes_below(T))
            assert math.isclose(self.theta(T), sieved)

    @pytest.mark.parametrize("T", [100, 1000, 10**4, 10**5, 10**6])
    def test_linear_window(self, T):
        # Chebyshev's bounds on the sieve behind primes_in_range over Q
        ratio = sum(math.log(p) for p in rational_primes_below(T)) / T
        assert 0.3 <= ratio <= 1.2


# rational primes, and the F_2[t] and F_3[t] primes of degree 1, 2 and 3
RESIDUE_PRIMES = primes_in_range(1, 30) + primes_in_range(1, 9, 2) + primes_in_range(1, 28, 3)


def _o_k_elements(prime):
    if prime.is_rational:
        return st.integers(-(10**30), 10**30)
    q = prime.generator.q
    return st.lists(st.integers(0, q - 1), max_size=9).map(lambda cs: FqPoly(q, cs))


def _residue_oracle(prime, x):
    """Z -> F_p and F_q[t] -> F_q[t]/(pi) by coercion; for a degree-1 pi,
    the constant term of the remainder mod pi."""
    if prime.is_rational or prime.generator.degree > 1:
        return prime.residue_field.coerce(x)
    r = x % prime.generator
    return r.coeffs[0] if r else 0


class TestResidue:
    def test_degrees_covered(self):
        degrees = {(p.q, 1 if p.is_rational else p.generator.degree) for p in RESIDUE_PRIMES}
        assert degrees >= {(None, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)}

    @pytest.mark.parametrize("prime", RESIDUE_PRIMES, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ring_homomorphism_matching_oracle(self, prime, data):
        F = prime.residue_field
        x = data.draw(_o_k_elements(prime))
        y = data.draw(_o_k_elements(prime))
        rx, ry = prime.residue(x), prime.residue(y)
        assert rx == _residue_oracle(prime, x)
        assert ry == _residue_oracle(prime, y)
        assert prime.residue(x + y) == F.add(rx, ry)
        assert prime.residue(x - y) == F.sub(rx, ry)
        assert prime.residue(x * y) == F.mul(rx, ry)

    @pytest.mark.parametrize("prime", RESIDUE_PRIMES, ids=str)
    def test_residue_field_built_once(self, prime):
        assert prime.residue_field is prime.residue_field
        assert prime.residue_field.size == prime.norm
        # the cached field takes no part in equality or hashing
        twin = PrimeIdealDesc(prime.generator, prime.norm)
        assert twin == prime and hash(twin) == hash(prime)
