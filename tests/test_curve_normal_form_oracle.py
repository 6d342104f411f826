"""Curve enumeration keeps its zeros in primitive normal form by
construction; the normalize-and-dedupe path it replaced is the oracle.

The oracle runs the same scan, collects every raw zero, takes each one's
`CoeffDomain.primitive` representative into a set and sorts the points by
`ProjPoint.sort_key`.  The enumerator must give the same points in the same
order, and its count mode their number.  `brute_force_curve_points` stays
the independent oracle on the smaller boxes.
"""

import pytest

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.multipoly import poly_parse
from ratgrowth.enumeration import (
    EnumOptions,
    _scan,
    _sieve_tables,
    _solve_sieve_primes,
    brute_force_curve_points,
    enum_curve_points_proj,
)
from ratgrowth.globalfield import ProjPoint, field_for_poly, height_of_primitive, is_canonical_lead

TEXTS = [
    # solve variable 0; (1 : 0 : 0) is a point
    "x0*x2 - x1^2",
    # solve variable 1; (0 : 1 : 0) is a point, and (0 : 1 : -1) is found
    # from the pair (0, 1) and the solve value -1
    "x0^2 + x0*x2 + x1*x2 + x2^2",
    # solve variable 2; (0 : 0 : 1) is a point
    "x0^3 + x0*x1*x2 - x1^3 + x0^2*x1",
    # solve variable 2 and a squared solve coordinate
    "x2^2 - x0*x1",
    # solve variable 0 and the monomial x0*x1: every pair with x1 = 0 vanishes
    "x0*x1",
    # lines through (1 : 0 : 0), (0 : 1 : 0) and (0 : 0 : 1)
    "x1 - x2",
    "x0 + x2",
    "x0 + 2*x1",
    "x0",
    "x2",
    # line arrangements: coordinate lines and lines through coordinate points
    "x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)",
    "x0*x1*x2*(x0+x1)*(x1+x2)",
    "x2*(x0 - x1)*(x0 + x1 + x2)",
    # a cubic with a few points, and one with none over Q
    "x0^3+x1^3-2*x2^3+x0*x1*x2",
    "x0^2 + x1^2 + x2^2",
]
FIELDS = [
    (CoeffDomain.integers(), (5, 12)),
    (CoeffDomain.poly_ring(2), (2, 8)),
    (CoeffDomain.poly_ring(3), (3, 9)),
    # a third odd-slot field; the box of 5 values at H = 1 takes the brute force
    (CoeffDomain.poly_ring(5), (1, 5)),
]
BRUTE_FORCE_CELLS = 5_000


def _solve_variable(f) -> int:
    appearing = [i for i in range(3) if f.degree_in(i) > 0]
    return min(appearing, key=lambda i: len({e[i] for e in f.terms}))


def normalize_and_dedupe(f, H):
    """The former curve enumerator: the scan's raw zeros, normalized by
    `CoeffDomain.primitive` into a set, as ProjPoints sorted by
    (height, coordinates).  Also returns the solve variable, and whether
    its coordinate point is on the curve."""
    field = field_for_poly(f)
    solve = _solve_variable(f)
    nvals = field.box_side(H)
    values = field.box(H)
    sieve = _sieve_tables(f, field, _solve_sieve_primes(field, nvals), solve, values)
    izero = values.index(field.zero)
    leads = [i for i, v in enumerate(values) if is_canonical_lead(field, v)]
    rows = [((ia,), range(nvals)) for ia in leads] + [((izero,), [izero] + leads)]
    zeros = []

    def emit_row(head):
        def emit(last, hits):
            prefix = [values[i] for i in head + (last,)]
            for iv in hits:
                point = list(prefix)
                point.insert(solve, values[iv])
                zeros.append(tuple(point))

        return emit

    _scan(f, values, solve, rows, sieve, 10**9, 0, emit_row)
    found = set(map(field.integer_domain().primitive, zeros))
    found.discard(None)
    points = [ProjPoint(field, coords, height_of_primitive(field, coords)) for coords in found]
    axis = tuple(field.one if i == solve else field.zero for i in range(3))
    return solve, tuple(sorted(points, key=ProjPoint.sort_key)), axis in found


@pytest.mark.parametrize("dom, heights", FIELDS, ids=lambda v: getattr(v, "describe", lambda: None)())
def test_points_and_order_match_the_oracle(dom, heights):
    solves, axis_points = set(), 0
    for text in TEXTS:
        f = poly_parse(text, 3, dom)
        for H in heights:
            solve, want, on_axis = normalize_and_dedupe(f, H)
            got = enum_curve_points_proj(f, H)
            assert got.points == want, (text, H)
            assert all(type(c) is type(f.domain.zero) for p in got.points for c in p.coords)
            assert [p.height for p in got.points] == [p.height for p in want]
            assert got.count == len(want)
            counted = enum_curve_points_proj(f, H, EnumOptions(collect=False))
            assert (counted.count, counted.points) == (len(want), None)
            if len(field_for_poly(f).box(H)) ** 3 <= BRUTE_FORCE_CELLS:
                assert set(got.points) == brute_force_curve_points(f, H), (text, H)
            solves.add(solve)
            axis_points += on_axis
    # every solve variable ran, and the solve axis point was found
    assert solves == {0, 1, 2} and axis_points > 0


def test_fraction_coefficients_match_the_oracle():
    f = poly_parse("x0*x2/2 - x1^2/3 + x0*x1", 3, CoeffDomain.rationals())
    for H in (4, 12):
        assert enum_curve_points_proj(f, H).points == normalize_and_dedupe(f, H)[1]
