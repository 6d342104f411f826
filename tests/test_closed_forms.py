"""Curve counts against closed forms in #P^1.

The conic x0 x2 = x1^2 is the image of P^1 by (s : t) -> (s^2 : s t : t^2),
which takes a point of height h to one of height h^2.  So its count at H is
#P^1(Q, isqrt(H)) over Q, and #P^1 at q^floor(k/2) at H = q^k over F_q(t).
The six lines of the sextic arrangement x0 x1 x2 (x0-x1) (x1-x2) (x0-x2)
carry 6 #P^1(Q, H) points, less 11 for the repeats at its four triple and
three double points.  A signed permutation of the variables keeps heights,
so it keeps every count.

#P^1 comes from the closed forms `_count_proj_q` and `_count_proj_fq`, which
never scan; the counts come from the scan, in count and in collect mode.
"""

from math import isqrt, prod

import pytest

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.multipoly import MultiPoly, poly_parse
from ratgrowth.enumeration import (
    DEFAULT_BUDGET,
    EnumOptions,
    _count_proj_fq,
    _count_proj_q,
    enum_curve_points_proj,
)
from ratgrowth.globalfield import GlobalField

CONIC = "x0*x2 - x1^2"
SEXTIC = "x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)"


def p1_q(H):
    return _count_proj_q(1, H, DEFAULT_BUDGET)


def p1_fq(q, H):
    return _count_proj_fq(1, H, GlobalField.function_field(q))


CASES = [
    pytest.param(CONIC, CoeffDomain.integers(), 300, lambda: p1_q(isqrt(300)), id="conic_Q_H300"),
    pytest.param(CONIC, CoeffDomain.poly_ring(2), 2**6, lambda: p1_fq(2, 2**3), id="conic_F2t_H2^6"),
    pytest.param(CONIC, CoeffDomain.poly_ring(3), 3**4, lambda: p1_fq(3, 3**2), id="conic_F3t_H3^4"),
    pytest.param(SEXTIC, CoeffDomain.integers(), 60, lambda: 6 * p1_q(60) - 11, id="sextic_Q_H60"),
]
# (permutation, signs): x_i -> sign_i x_{perm[i]}
SIGNED_PERMUTATIONS = [
    pytest.param((0, 1, 2), (1, 1, 1), id="identity"),
    pytest.param((2, 0, 1), (1, -1, 1), id="cycle_minus_x1"),
    pytest.param((1, 0, 2), (-1, 1, -1), id="swap_minus_x0_x2"),
]


def signed_permutation(f, perm, signs):
    g = f.permute_variables(perm)
    dom = g.domain
    return MultiPoly(dom, g.nvars, {e: dom.mul(c, dom.coerce(prod(s**k for s, k in zip(signs, e))))
                                    for e, c in g.terms.items()})


def test_closed_forms_pinned():
    # the figures the CI smoke checks read: 384 on the conic at H = 300 over
    # Q, and 513 at H = 256 over F_2(t)
    assert p1_q(17) == 384
    assert p1_fq(2, 2**4) == 513


@pytest.mark.parametrize("perm, signs", SIGNED_PERMUTATIONS)
@pytest.mark.parametrize("text, dom, H, closed_form", CASES)
def test_count_equals_the_closed_form(text, dom, H, closed_form, perm, signs):
    f = signed_permutation(poly_parse(text, 3, dom), perm, signs)
    want = closed_form()
    assert enum_curve_points_proj(f, H, EnumOptions(collect=False)).count == want
    assert len(enum_curve_points_proj(f, H).points) == want
