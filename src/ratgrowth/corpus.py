"""Seeded corpora backing the frozen regression baselines.

Both scripts/derive_baselines.py and the acceptance suite replay these
exact generators, so the recorded constants stay reproducible.  Cycle
components are irreducible by construction: lines, and the smooth conics
and quadrics listed below (smooth plane conics and smooth quadric
surfaces are irreducible over any field, including char 2).
"""

from __future__ import annotations

import random

from .algebra.domains import CoeffDomain
from .algebra.multipoly import MultiPoly, poly_parse
from .algebra.primes import PrimeIdealDesc
from .globalfield import GlobalField, ProjPoint, primitive_normalize
from .reduction import FactoredCycle

SMOOTH_CONICS = ("x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1")
SMOOTH_QUADRICS_P3 = ("x0*x3 + x1*x2", "x0*x2 + x1*x3")


def random_plane_cycle(rng: random.Random, p: int, max_degree: int = 30) -> FactoredCycle:
    """A random effective plane-curve cycle over F_p in factored form."""
    dom = CoeffDomain.prime_field(p)
    comps: list[tuple[MultiPoly, int]] = []
    seen: set = set()
    degree = 0
    target = rng.randint(6, max_degree)
    while degree < target:
        mult = rng.randint(1, 3)
        if rng.random() < 0.3:
            text = rng.choice(SMOOTH_CONICS)
        elif rng.random() < 0.15:
            text = "x2"
        elif rng.random() < 0.5:
            text = f"x0 + {rng.randrange(p)}*x1 + {rng.randrange(p)}*x2"
        else:
            text = f"x1 + {rng.randrange(p)}*x2"
        poly = poly_parse(text, 3, dom)
        key = hash(poly.primitive_part())
        deg = poly.degree
        if key in seen or degree + mult * deg > max_degree:
            if degree >= 2 and rng.random() < 0.2:
                break
            continue
        seen.add(key)
        comps.append((poly, mult))
        degree += mult * deg
    if not comps:
        comps = [(poly_parse("x0", 3, dom), 2)]
    return FactoredCycle(tuple(comps), 3, 1)


def random_space_cycle(rng: random.Random, p: int, max_degree: int = 12) -> FactoredCycle:
    """A random effective surface cycle in P^3 over F_p in factored form."""
    dom = CoeffDomain.prime_field(p)
    comps: list[tuple[MultiPoly, int]] = []
    seen: set = set()
    degree = 0
    target = rng.randint(4, max_degree)
    while degree < target:
        mult = rng.randint(1, 2)
        if rng.random() < 0.3:
            text = rng.choice(SMOOTH_QUADRICS_P3)
        else:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            text = f"x0 + {a}*x1 + {b}*x2 + {c}*x3"
        poly = poly_parse(text, 4, dom)
        key = hash(poly.primitive_part())
        if key in seen or degree + mult * poly.degree > max_degree:
            break
        seen.add(key)
        comps.append((poly, mult))
        degree += mult * poly.degree
    if not comps:
        comps = [(poly_parse("x0", 4, dom), 2)]
    return FactoredCycle(tuple(comps), 4, 2)


def certificate_corpus() -> list[tuple[MultiPoly, PrimeIdealDesc, list[ProjPoint], int]]:
    """Determinant-certificate fixtures: for each of the degree 2, 3 and 5
    members of the cuspidal monomial family and each p in {5, 7, 11, 13},
    two smooth residue classes and one singular one, each of full size
    s = d(d+1)/2, built from the degree-1 parametrization
    (s : t) -> (s^d : t^d : s^(d-1) t)."""
    field = GlobalField.rationals()
    dom = CoeffDomain.integers()
    corpus = []
    for d in (2, 3, 5):
        curve = poly_parse(f"x1*x0^{d - 1} - x2^{d}", 3, dom)
        s = d * (d + 1) // 2
        for p in (5, 7, 11, 13):
            prime = PrimeIdealDesc(p, p)
            for base in (1, 2):
                pts = [
                    primitive_normalize(
                        field,
                        ((base + j * p) ** d, 1, (base + j * p) ** (d - 1)),
                    )
                    for j in range(s)
                ]
                corpus.append((curve, prime, pts, d))
            pts = [
                primitive_normalize(
                    field, ((p * (j + 1)) ** d, 1, (p * (j + 1)) ** (d - 1))
                )
                for j in range(s)
            ]
            corpus.append((curve, prime, pts, d))
    return corpus


COVER_FIXTURES = {
    "curve_d26_H20_Q": ("x1*x0^25 - x2^26", "Q", 20),
    "curve_d30_H20_Q": ("x1*x0^29 - x2^30", "Q", 20),
    "fermat_d26_H20_Q": ("x0^26 + x1^26 - x2^26", "Q", 20),
    "curve_d26_H16_F2t": ("x1*x0^25 - x2^26", "Fq(t):q=2", 16),
}


def cover_fixture_poly(name: str) -> tuple[MultiPoly, int]:
    text, field_desc, height = COVER_FIXTURES[name]
    field = GlobalField.parse(field_desc)
    return poly_parse(text, 3, field.integer_domain()), height


def capture_plane_corpus(n_fixtures: int = 50, seed: int = 2024):
    """(cycle, k) pairs for the plane capture baseline."""
    rng = random.Random(seed)
    out = []
    while len(out) < n_fixtures:
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        cyc = random_plane_cycle(rng, p)
        k = rng.choice([1.5, 2.0, 2.5, 3.0, 4.0])
        if cyc.degree / k < 1:
            continue
        out.append((cyc, k))
    return out


def capture_space_corpus(n_fixtures: int = 10, seed: int = 77):
    rng = random.Random(seed)
    out = []
    while len(out) < n_fixtures:
        p = rng.choice([3, 5, 7])
        cyc = random_space_cycle(rng, p)
        k = rng.choice([1.5, 2.0, 2.5, 3.0])
        if cyc.degree / k < 1:
            continue
        out.append((cyc, k))
    return out


def cycle_audit_corpus(n_fixtures: int = 15, seed: int = 99):
    """(cycle, k) pairs with 3 <= D <= 10 and D/k >= 2 for the cycle audit."""
    rng = random.Random(seed)
    out = []
    while len(out) < n_fixtures:
        p = rng.choice([5, 7, 11, 13])
        cyc = random_plane_cycle(rng, p, max_degree=10)
        D = cyc.degree
        if not 3 <= D <= 10:
            continue
        choices = [k for k in (1.5, 2.0, 2.5, 3.0) if D / k >= 2]
        if not choices:
            continue
        out.append((cyc, rng.choice(choices)))
    return out
