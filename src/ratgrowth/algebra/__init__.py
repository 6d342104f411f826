"""Exact arithmetic: domains, sparse polynomials, linear algebra, primes."""

from .domains import CoeffDomain
from .fqpoly import FqPoly, FqRational, fq_gcd, fq_lcm, fq_xgcd
from .linalg import ExactMatrix, det_exact, kernel_basis, kernel_vector, rank, rref
from .multipoly import (
    MultiPoly,
    ParseError,
    monomials_of_degree,
    monomials_up_to_degree,
    poly_parse,
)
from .primes import PrimeIdealDesc, primes_in_range, recheck_prime

__all__ = [
    "CoeffDomain",
    "ExactMatrix",
    "FqPoly",
    "FqRational",
    "MultiPoly",
    "ParseError",
    "PrimeIdealDesc",
    "det_exact",
    "fq_gcd",
    "fq_lcm",
    "fq_xgcd",
    "kernel_basis",
    "kernel_vector",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "poly_parse",
    "primes_in_range",
    "rank",
    "recheck_prime",
    "rref",
]
