"""Byte-level pins of the covering pipelines' JSON output.

Each case stores the sha256 of ``json.dumps(result.to_json_dict())``
without ``sort_keys``, so the key order, the class order, the polynomial
texts and every reported float count.
"""

import hashlib
import json

import pytest

from ratgrowth import corpus
from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.multipoly import poly_parse
from ratgrowth.algebra.primes import PrimeIdealDesc
from ratgrowth.detmethod import AffineCoverParams, cover_pipeline, cover_pipeline_affine

ZZ = CoeffDomain.integers()

DEGREE9_FACTORS = (
    "x0^2 + x1^2 - 2",
    "x0 - x2",
    "x1*x2 - 1",
    "x0^2 + x1^2 + x2^2 - 3",
    "x0 + x1 + x2",
    "x2 - 1",
)


def _fixture(name):
    return lambda: cover_pipeline(*corpus.cover_fixture_poly(name))


def _projective(text, H, domain=ZZ):
    return lambda: cover_pipeline(poly_parse(text, 3, domain), H)


def _affine(text, B, params=None):
    return lambda: cover_pipeline_affine(poly_parse(text, 3, ZZ), B, params)


def _degree9():
    f = poly_parse(DEGREE9_FACTORS[0], 3, ZZ)
    for text in DEGREE9_FACTORS[1:]:
        f = f * poly_parse(text, 3, ZZ)
    primes = (PrimeIdealDesc(5, 5), PrimeIdealDesc(7, 7))
    return cover_pipeline_affine(f, 3, AffineCoverParams(primes=primes))


CASES = {
    "curve_d26_H20_Q": (
        _fixture("curve_d26_H20_Q"),
        "884e1dd16014db60b2d126fbb350b79f2b7717c856ca113a53c34d730aacc67f",
    ),
    "fermat_d26_H20_Q": (
        _fixture("fermat_d26_H20_Q"),
        "dffb718f6cfac32f9da0cefc27e4bdac9d9ad6838e7e8a8b37ee597f4ed8d501",
    ),
    "curve_d26_H16_F2t": (
        _fixture("curve_d26_H16_F2t"),
        "bbef6755b5d43faa8a34f999dedf854337a8be32034c34c7cf71305f1c3de37f",
    ),
    # out of regime: the projective chunked fallback for full-rank classes
    "conic_r5_H5_proj": (
        _projective("x0^2 + x1^2 - 25*x2^2", 5),
        "8456bc3bc4aa165d59cfcf829c3419b7d41656f7b185c105c0ccab61d40f24b7",
    ),
    # in regime, with classes of 11 to 49 points and non-trivial kernels
    "arrangement_H4_F2t": (
        _projective("x0*x1*x2*(x0+x1)*(x1+x2)", 4, CoeffDomain.poly_ring(2)),
        "d15698784ae832c7d09ddc428e5a9ce64e7908e9c1a57eb4ca464ffecf50ce57",
    ),
    # the packed odd-q elimination: classes of 13 to 19 of the 132 points
    "arrangement_H3_F3t": (
        _projective("x0*x1*x2*(x0-x1)*(x1-x2)", 3, CoeffDomain.poly_ring(3)),
        "28d8da8b2308dd63dd458fb694b94522a1f7c6bcbe4e625a1fb3e04bf82439ea",
    ),
    # and at q = 5, on 622 points
    "arrangement_H5_F5t": (
        _projective("x0*x1*x2*(x0-x1)*(x1-x2)", 5, CoeffDomain.poly_ring(5)),
        "844c1b299d3e10496c4e23c56ba4805b88cd1b707405829f3d92c80bf28e5485",
    ),
    "signed_sextic_H6_Q": (
        _projective("x0*x1*x2*(x0-x1)*(x1+x2)*(x0+x2)", 6),
        "c78b4c828577ffa7d91c8e13c657f0469f3f8b17d0a73aa26328fc60c9b9fdbe",
    ),
    "product_one_B4_affine": (
        _affine("x0*x1*x2 - 1", 4),
        "2c9bcf9e9f45c62cc815b8cbdc46e45074ee2836e8094742108b4422cd6bc18b",
    ),
    "sphere3_B4_affine": (
        _affine("x0^2+x1^2+x2^2-3", 4),
        "4fc5c4a747a60cec11919d9807e441c5b571506de4bf7ecb7d076a92850677d0",
    ),
    "degree9_B3_primes57_affine": (
        _degree9,
        "c404d7bae2e5fb30309724426de153dd8b41f805a42a1dc6bec42f239cef9829",
    ),
}


def cover_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_json_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cover_json_digest(name):
    run, expected = CASES[name]
    assert cover_digest(run()) == expected
