"""Mod-p geometry and local invariants.

Multiplicity of a point on a hypersurface is the least order with a
nonvanishing Hasse-Taylor coefficient, which works uniformly in every
characteristic.  Local intersection numbers of plane curves are computed
by the classical recursive reduction against the defining axioms (W.
Fulton, Algebraic Curves, 3.3), with a bivariate gcd for detecting shared
components.  Both run on MultiPoly: the gcd is a primitive Euclid in
(F[x])[y], its y-coefficients polynomials in x alone, divided with
MultiPoly.divmod.  On top of those sit the
derivative-cycle construction, the intersection bookkeeping for the
cycle audit, and the capture of high-multiplicity loci by low-degree
interpolants.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, product, repeat
from math import comb
from operator import getitem, lt, mul, sub

from .algebra.domains import CoeffDomain
from .algebra.multipoly import MultiPoly, interpolant, monomials_of_degree
from .algebra.primes import PrimeIdealDesc
from .enumeration import BudgetExceededError
from .globalfield import field_for_poly, primitive_lift
from .records import record


class DerivativeIdenticallyZero(ArithmeticError):
    """Every sampled direction gave a vanishing derivative combination
    (the polynomial is a p-th power or a sum of such)."""


@record(frozen=True, hidden=("lift",))
class ReducedHypersurface:
    """Coefficient-wise reduction of a primitive polynomial modulo a prime."""

    f_p: MultiPoly
    original_degree: int
    reduced_degree: int
    good: bool
    prime: PrimeIdealDesc
    # the primitive O_K polynomial that f_p reduces (primitive_lift)
    lift: MultiPoly


@record(frozen=True)
class MultiplicityReport:
    point: tuple
    mu: int
    context: str  # "hypersurface" | "cycle"


def _check_owned(field, prime: PrimeIdealDesc) -> None:
    if not field.owns_prime(prime):
        raise ValueError(f"prime {prime.generator} is not a prime of {field.describe()}")


def good_primes(lift: MultiPoly, primes) -> list:
    """The primes, in order, at which reduce_curve_mod_p(lift, prime).good
    holds, decided without reducing the polynomial: some term of positive
    total degree has a coefficient with a nonzero residue.  Each prime's
    scan stops at the first such term."""
    field = field_for_poly(lift)
    positive = [c for e, c in lift.terms.items() if any(e)]
    good = []
    for prime in primes:
        _check_owned(field, prime)
        if any(map(prime.residue, positive)):
            good.append(prime)
    return good


def reduce_curve_mod_p(f: MultiPoly, prime: PrimeIdealDesc) -> ReducedHypersurface:
    """Reduce the primitive (content-one) representative of f
    (primitive_lift) modulo the prime, coefficient by coefficient; reports
    the reduced degree and whether the reduction is still a
    positive-dimensional hypersurface."""
    lift = primitive_lift(f)
    _check_owned(field_for_poly(lift), prime)
    f_p = lift.map_coefficients(prime.residue_field, prime.residue)
    if f_p.is_zero:
        raise AssertionError("content-one polynomial reduced to zero")
    return ReducedHypersurface(
        f_p=f_p,
        original_degree=lift.degree,
        reduced_degree=f_p.degree,
        good=f_p.degree > 0,
        prime=prime,
        lift=lift,
    )


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------


class _TaylorPlan:
    """The Hasse-Taylor coefficients of the polynomial with these {beta: c}
    terms over dom, laid out for evaluation at many points.  Order k lists,
    per alpha of total degree k, the pairs (c * binom(beta, alpha), beta -
    alpha) with a binomial nonzero in dom's characteristic, the difference
    as its nonzero (variable, exponent) entries; an alpha with no pair is
    left out.  An order is built when a scan first reaches it.  A plan over
    O_K (Z, whose binomials stay unreduced, or F_q[t]) serves every prime:
    order reads it at one.  It reads one point at a time; high_mult_locus
    reads a whole line of F_q at once through _LinePlan."""

    __slots__ = ("dom", "terms", "tops", "degree", "orders")

    def __init__(self, dom: CoeffDomain, terms: dict):
        self.dom, self.terms, self.orders = dom, terms, []
        self.tops = tuple(map(max, zip(*terms)))
        self.degree = max(map(sum, terms))

    def _build(self, k: int) -> list:
        char, out = self.dom.characteristic, []
        for alpha in monomials_of_degree(len(self.tops), k):
            pairs = []
            for beta, c in self.terms.items():
                binom = math.prod(map(comb, beta, alpha))  # 0 unless beta >= alpha
                if char:
                    binom %= char
                if binom:
                    delta = tuple((i, b - a) for i, (b, a) in enumerate(zip(beta, alpha)) if b > a)
                    pairs.append((c if binom == 1 else c * binom, delta))
            if pairs:
                out.append(pairs)
        return out

    def order(self, coords, stop: int | None = None, prime: PrimeIdealDesc | None = None) -> int:
        """min(mu, stop) for mu the least total degree with a nonzero Taylor
        coefficient at the coordinates; mu itself when stop is None.

        The coordinates lie in dom, or, with a prime, in its residue field,
        where their powers are taken; mu is then that of the polynomial
        reduced mod the prime.  Sums run on the raw lifts (Z for F_p, F_q[t]
        for F_q[t]/(pi), the plan's own coefficients at a prime) and are
        reduced once, by dom.coerce or prime.residue, a ring homomorphism:
        the test is exact."""
        if prime is None:
            field, reduce = self.dom, self.dom.coerce
        else:
            field, reduce = prime.residue_field, prime.residue
        mul, one, zero = field.mul, field.one, self.dom.zero
        powers = [list(accumulate(repeat(a, top), mul, initial=one)) for a, top in zip(coords, self.tops)]
        last = self.degree if stop is None else min(stop - 1, self.degree)
        for k in range(last + 1):
            if k == len(self.orders):
                self.orders.append(self._build(k))
            for pairs in self.orders[k]:
                acc = zero
                for term, delta in pairs:
                    for i, e in delta:
                        term = term * powers[i][e]
                    acc = acc + term
                if not field.is_zero(reduce(acc)):
                    return k
        if last < self.degree:
            return stop
        raise AssertionError("nonzero polynomial with no Taylor coefficients")


class _LinePlan:
    """The Hasse-Taylor coefficients of a chart polynomial over a finite
    field, laid out for the lines of its last coordinate z: the other
    coordinates are fixed along a line.  Split alpha = (alpha', j) and beta
    = (beta', b) at z.  Order s lists, per alpha' of total degree s, the
    triples (b, coefficients, monomials): per term beta with beta' >=
    alpha' and binom(beta', alpha') nonzero in the field, the coefficient
    c * binom(beta', alpha') and the index in `deltas` of beta' - alpha',
    grouped by b.  binom[b][a] is binom(b, a) mod the characteristic, a
    prime, so a product of nonzero entries is nonzero.  An alpha' with no
    term is left out, and an order is built when a line first reaches
    it."""

    __slots__ = ("split", "prefix", "binom", "deltas", "index", "orders")

    def __init__(self, terms: dict, binom: list):
        self.prefix = len(next(iter(terms))) - 1
        self.split = [(beta[:-1], beta[-1], c) for beta, c in terms.items()]
        self.binom, self.deltas, self.index, self.orders = binom, [], {}, []

    def order(self, s: int) -> list:
        while s >= len(self.orders):
            self.orders.append(self._build(len(self.orders)))
        return self.orders[s]

    def _build(self, s: int) -> list:
        binom, deltas, index = self.binom, self.deltas, self.index
        out = []
        for alpha in monomials_of_degree(self.prefix, s):
            groups: dict = {}
            for mid, b, c in self.split:
                if any(map(lt, mid, alpha)):
                    continue
                bin_ = math.prod(map(getitem, map(binom.__getitem__, mid), alpha))
                if bin_:
                    delta = tuple(map(sub, mid, alpha))
                    if delta not in index:
                        index[delta] = len(deltas)
                        deltas.append(delta)
                    cs, ids = groups.setdefault(b, ([], []))
                    cs.append(c * bin_)
                    ids.append(index[delta])
            if groups:
                out.append([(b, tuple(cs), tuple(ids)) for b, (cs, ids) in groups.items()])
        return out

    def line(self, pre: list, modulus):
        """Yields, order k by order k, the line's Hasse-Taylor coefficients
        of order k as polynomials in z: per alpha' of degree s <= k with
        j = k - s, the pairs (coefficients, exponents) of
        sum_b binom(b, j) g_(alpha', b) z^(b - j), where g_(alpha', b) is
        the z^b coefficient of the alpha'-th Hasse derivative in the fixed
        coordinates, whose power rows pre lists.  Each g is a raw sum
        reduced once by modulus; the zero polynomials are left out."""
        binom, deltas, monos, shifted = self.binom, self.deltas, [], []
        value = monos.__getitem__
        for k in count():
            order = self.order(k)
            # the line's value of each monomial beta' - alpha' seen so far
            monos.extend(math.prod(map(getitem, pre, d)) for d in deltas[len(monos) :])
            layer = []
            for groups in order:
                g = [
                    (b, v)
                    for b, cs, ids in groups
                    if (v := sum(map(mul, cs, map(value, ids))) % modulus)
                ]
                if g:
                    layer.append(g)
            shifted.append(layer)
            polys = []
            for s, layer in enumerate(shifted):
                j = k - s
                for g in layer:
                    terms = [(v * binom[b][j], b - j) for b, v in g if b >= j and binom[b][j]]
                    if terms:
                        polys.append(tuple(zip(*terms)))
            yield polys


def _line_scan(dom: CoeffDomain, charts: list, stop: int) -> list:
    """The points of P^(n-1)(dom), in proj_points_over order, at which
    every Hasse-Taylor coefficient of order below stop vanishes: those of
    multiplicity >= stop.

    A point is read on the chart of its leading 1 (charts[i] holds the
    terms of the form dehomogenized at x_i), whose coordinates before it
    are 0.  The chart's points are read a line at a time: the coordinates
    but the last are fixed, and their Taylor shift (_LinePlan.line) is
    taken once per line, an order only when some point of the line
    reaches it.  Each point then evaluates the univariate coefficients of
    each order on its powers, a raw sum reduced once, and leaves at its
    first nonzero one.  The powers of every field element come from one
    table, built once when lines share it (n >= 3); element 0 of the
    field is zero."""
    n, elems, modulus = len(charts), list(dom.elements()), dom.modulus
    top, char = max(sum(beta) for terms in charts for beta in terms), dom.characteristic
    binom = [[comb(b, a) % char for a in range(b + 1)] for b in range(top + 1)]

    def powers(a) -> list:
        return list(accumulate(repeat(a, top), dom.mul, initial=dom.one))

    table = [powers(a) for a in elems] if n >= 3 else None
    locus = []
    for lead, terms in enumerate(charts):
        plan = _LinePlan(terms, binom)
        free = n - 1 - lead
        head = (dom.zero,) * lead + (dom.one,)
        # the last chart holds one point, its last coordinate 0 as well
        xs = range(len(elems)) if free else (0,)
        zeros = min(lead, n - 2)  # fixed coordinates before the leading 1
        for prefix in product(range(len(elems)), repeat=max(free - 1, 0)):
            line = plan.line([table[i] for i in (0,) * zeros + prefix], modulus)
            hasse = []  # the line's orders, as far as some point has reached
            for x in xs:
                get = (table[x] if table else powers(elems[x])).__getitem__
                for k in range(stop):
                    if k == len(hasse):
                        hasse.append(next(line))
                    for cs, es in hasse[k]:
                        if sum(map(mul, cs, map(get, es))) % modulus:
                            break
                    else:
                        continue
                    break
                else:
                    tail = tuple(elems[i] for i in prefix) + ((elems[x],) if free else ())
                    locus.append(head + tail)
    return locus


def _to_chart(dom: CoeffDomain, coords) -> tuple[int, tuple]:
    """The chart of the last nonzero coordinate, and the point on it."""
    chart = max(i for i, c in enumerate(coords) if not dom.is_zero(c))
    inv = dom.inv(coords[chart])
    return chart, tuple(dom.mul(c, inv) for i, c in enumerate(coords) if i != chart)


def _affine_mult(
    f: MultiPoly, point, stop: int | None = None, plans: dict | None = None,
    prime: PrimeIdealDesc | None = None,
) -> int:
    dom = f.domain if prime is None else prime.residue_field
    plans = {} if plans is None else plans
    if "affine" not in plans:
        plans["affine"] = _TaylorPlan(f.domain, f.terms)
    return plans["affine"].order([dom.coerce(x) for x in point], stop, prime)


def is_projective_point(f: MultiPoly, point) -> bool:
    """How mult_at_point reads a point unless told: projective when f is
    homogeneous in 3 or more variables and the point is nonzero.  Bivariate
    input is an affine plane curve; an all-zero point is affine (a cone vertex)."""
    return f.is_homogeneous and len(point) == f.nvars >= 3 and any(point)


def mult_at_point(
    f: MultiPoly, point, projective: bool | None = None,
    stop: int | None = None, plans: dict | None = None, prime: PrimeIdealDesc | None = None,
) -> MultiplicityReport:
    """Multiplicity of the point on the hypersurface f = 0.

    Projective points are moved to the affine chart of their last nonzero
    coordinate; the multiplicity is the least total degree with a nonzero
    Taylor coefficient there (0 when f does not vanish at the point).
    With stop the scan ends there and reports min(mu, stop).  A plans dict
    kept beside f keeps its charts' Taylor plans from one call to the next.

    With a prime, f is over O_K (a primitive_lift) and the point lies over
    the prime's residue field: the multiplicity is that of f mod the prime,
    read on the plans of f itself, so one plans dict serves every prime.
    The covers (detmethod._partition) share plans only in this way; no
    caller in the library passes plans without a prime.
    """
    if f.is_zero:
        raise ValueError("multiplicity of the zero polynomial is undefined")
    if projective is None:
        projective = is_projective_point(f, point)
    if not projective:
        if len(point) != f.nvars:
            raise ValueError("affine point arity mismatch")
        mu = _affine_mult(f, point, stop, plans, prime)
        return MultiplicityReport(tuple(point), mu, "hypersurface")
    if len(point) != f.nvars:
        raise ValueError("projective point arity mismatch")
    # over Z or F_q[t] the chart coordinates live in the fraction field, or
    # at a prime in its residue field; the O_K coefficients multiply them
    # as they are
    dom = f.domain.fraction_field() if prime is None else prime.residue_field
    plans = {} if plans is None else plans
    chart, affine_point = _to_chart(dom, [dom.coerce(x) for x in point])
    if chart not in plans:
        chart_f = f.dehomogenize(chart)
        if chart_f.is_zero:
            raise ValueError(f"{f} vanishes identically on the chart x{chart} = 1")
        plans[chart] = _TaylorPlan(dom if prime is None else f.domain, chart_f.terms)
    mu = plans[chart].order(affine_point, stop, prime)
    return MultiplicityReport(tuple(point), mu, "hypersurface")


@record(frozen=True)
class FactoredCycle:
    """An effective cycle sum(n_j * C_j) given in factored form.

    Component polynomials must be pairwise non-associate; irreducibility
    is asserted by the caller and not verified (no factorization here).
    """

    components: tuple[tuple[MultiPoly, int], ...]
    nvars: int
    dim: int

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty cycle")
        dom = self.components[0][0].domain
        for poly, mult in self.components:
            if poly.is_zero or poly.domain != dom or poly.nvars != self.nvars:
                raise ValueError("incompatible cycle component")
            if not poly.is_homogeneous:
                raise ValueError("cycle components must be homogeneous")
            if mult < 1:
                raise ValueError("component multiplicities must be >= 1")
        normalized = [p.primitive_part() for p, _ in self.components]
        if len({hash(p) for p in normalized}) != len(normalized):
            raise ValueError("cycle components must be pairwise non-associate")

    @property
    def domain(self) -> CoeffDomain:
        return self.components[0][0].domain

    @property
    def degree(self) -> int:
        return sum(n * p.degree for p, n in self.components)

    def expanded(self) -> MultiPoly:
        out = MultiPoly.constant(self.domain, self.nvars, 1)
        for poly, mult in self.components:
            out = out * poly**mult
        return out


def cycle_mult(cycle: FactoredCycle, point) -> MultiplicityReport:
    """Multiplicity of a point on an effective cycle: the multiplicity-
    weighted sum over components."""
    total = 0
    for poly, mult in cycle.components:
        total += mult * mult_at_point(poly, point).mu
    return MultiplicityReport(tuple(point), total, "cycle")


def _directional(f: MultiPoly, direction) -> MultiPoly:
    """sum(a_i * df/dx_i) for the direction (a_i)."""
    out = MultiPoly.zero(f.domain, f.nvars)
    for coeff, i in zip(direction, range(f.nvars)):
        out = out + f.partial(i).scale(coeff)
    return out


def _directions(dom: CoeffDomain, nvars: int, a, seed: int, max_retries: int):
    """The directions to try, max_retries + 1 in all: a first when given,
    then samples drawn from random.Random(seed), each only when asked for."""
    rng = random.Random(seed)
    if a is not None:
        yield [dom.coerce(x) for x in a]
    for _ in range(max_retries + (a is None)):
        yield [dom.sample(rng) for _ in range(nvars)]


# ---------------------------------------------------------------------------
# local intersection numbers of plane curves
# ---------------------------------------------------------------------------

INFINITE = math.inf


def _y_coeffs(f: MultiPoly) -> dict[int, MultiPoly]:
    """{k: the coefficient of y^k}, each a polynomial in x alone."""
    rows: dict[int, dict] = {}
    for (ex, ey), c in f.terms.items():
        rows.setdefault(ey, {})[(ex, 0)] = c
    return {ey: MultiPoly(f.domain, 2, row) for ey, row in rows.items()}


def _x_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of two polynomials in x alone (Euclid with divmod)."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a.primitive_part()


def _y_primitive(f: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of f in (F[x])[y]; the content is monic."""
    content = reduce(_x_gcd, _y_coeffs(f).values(), MultiPoly.zero(f.domain, 2))
    return content, f if content.is_constant else f.exact_div(content)


def gcd_bivariate(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd of two 2-variable polynomials over a field (primitive Euclid in
    (F[x])[y]); normalized so the grevlex-leading coefficient is 1."""
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError(
            f"bivariate gcd needs 2-variable polynomials, got {f.nvars} and {g.nvars} variables"
        )
    if not f.domain.is_field:
        raise TypeError("bivariate gcd needs field coefficients")
    if f.is_zero or g.is_zero:
        return (f + g).primitive_part()
    (cont_a, A), (cont_b, B) = _y_primitive(f), _y_primitive(g)
    content = _x_gcd(cont_a, cont_b)
    if A.degree_in(1) < B.degree_in(1):
        A, B = B, A
    # B stays primitive; once its y-degree is 0 it is a unit
    while B.degree_in(1) > 0:
        # pseudo-remainder of A by B in y
        lc_b = _y_coeffs(B)[B.degree_in(1)]
        while A and A.degree_in(1) >= B.degree_in(1):
            shift = A.degree_in(1) - B.degree_in(1)
            lc_a = _y_coeffs(A)[A.degree_in(1)]
            A = A * lc_b - B * lc_a * MultiPoly.monomial(f.domain, (0, shift))
        if not A:
            return (B * content).primitive_part()
        A, B = B, _y_primitive(A)[1]
    return content


def _const_term(f: MultiPoly):
    return f.coefficient((0,) * f.nvars)


def fulton_intersection_number(f: MultiPoly, g: MultiPoly, point) -> int | float:
    """Local intersection number of two affine plane curves at a point.

    Returns 0 when one of them does not vanish there, INFINITE when they
    share a component through the point, and otherwise the unique value
    satisfying the classical axioms (symmetry, invariance under adding
    multiples, additivity over products, transverse lines give 1).
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("intersection numbers are for affine plane curves")
    dom = f.domain
    if not dom.is_field:
        raise TypeError("intersection numbers need field coefficients")
    if f.is_zero or g.is_zero:
        return INFINITE
    tf = f.translate(point)
    tg = g.translate(point)
    if not dom.is_zero(_const_term(tf)) or not dom.is_zero(_const_term(tg)):
        return 0
    h = gcd_bivariate(tf, tg)
    if h.degree >= 1:
        if dom.is_zero(_const_term(h)):
            return INFINITE
        tf = tf.exact_div(h)
        tg = tg.exact_div(h)
    y = MultiPoly.variable(dom, 2, 1)
    total = 0
    while True:
        if not dom.is_zero(_const_term(tf)) or not dom.is_zero(_const_term(tg)):
            return total
        # f(x, 0) and g(x, 0)
        a = _y_coeffs(tf).get(0)
        b = _y_coeffs(tg).get(0)
        if a is None and b is None:
            # both divisible by y despite gcd division: defensive
            return INFINITE
        if a is None:
            total += b.lowest_degree()
            tf = tf.exact_div(y)
            continue
        if b is None:
            total += a.lowest_degree()
            tg = tg.exact_div(y)
            continue
        if a.degree > b.degree:
            tf, tg = tg, tf
            a, b = b, a
        # kill the top coefficient of g(x, 0)
        (_, lc_a), (_, lc_b) = a.leading_term(), b.leading_term()
        xshift = MultiPoly.monomial(dom, (b.degree - a.degree, 0), lc_b)
        tg = tg.scale(lc_a) - tf * xshift
        if tg.is_zero:
            return INFINITE


# ---------------------------------------------------------------------------
# projective helpers over finite fields
# ---------------------------------------------------------------------------


def proj_points_over(domain: CoeffDomain, nvars: int):
    """Canonical representatives of P^{nvars-1}(F), first nonzero = 1."""
    elems = list(domain.elements())
    one, zero = domain.one, domain.zero
    for lead in range(nvars):
        for tail in product(elems, repeat=nvars - 1 - lead):
            yield (zero,) * lead + (one,) + tail


@record(frozen=True)
class HighMultLocus:
    kind: str  # "ok" | "empty" | "all_points"
    poly: MultiPoly | None
    degree: int | None
    locus: tuple
    threshold: Fraction


class NoInterpolantError(RuntimeError):
    def __init__(self, cap_degree: int, npoints: int):
        super().__init__(
            f"no nonzero form of degree <= {cap_degree} vanishes on all "
            f"{npoints} high-multiplicity points"
        )


# the most points of P^(n-1)(F) that a high-multiplicity scan visits
LOCUS_BUDGET = 2_000_000


def high_mult_locus(f_p: MultiPoly, k, cap_degree: int, strict: bool = True) -> HighMultLocus:
    """Locate the points of multiplicity above deg(f)/k and produce a
    minimal-degree nonzero form vanishing on all of them.

    With strict=False the threshold is >= instead of >.  If deg(f)/k < 1
    every point of the hypersurface qualifies and the sentinel
    "all_points" is returned (the caller keeps the hypersurface itself).
    """
    if f_p.is_constant:
        raise ValueError("need a nonconstant hypersurface")
    if f_p.nvars < 2:
        raise ValueError("the locus needs a positive-dimensional projective space: 2 or more variables")
    dom = f_p.domain
    if dom.size is None:
        raise TypeError("high-multiplicity scan needs a finite residue field")
    if isinstance(k, float) and not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    kf = Fraction(k)
    if kf < 1:
        raise ValueError("need k >= 1")
    D = f_p.degree
    threshold = Fraction(D) / kf
    if threshold < 1:
        return HighMultLocus("all_points", None, None, (), threshold)
    n = f_p.nvars
    npoints = sum(dom.size**i for i in range(n))
    if npoints > LOCUS_BUDGET:
        raise BudgetExceededError(LOCUS_BUDGET, npoints, "high-multiplicity locus")
    charts = [f_p.dehomogenize(i).terms for i in range(n)]
    if not all(charts):
        raise ValueError(f"{f_p} vanishes identically on a chart")
    # mu > threshold (strict) or mu >= threshold exactly when mu >= stop
    stop = math.floor(threshold) + 1 if strict else math.ceil(threshold)
    locus = _line_scan(dom, charts, stop)
    if not locus:
        return HighMultLocus("empty", None, 0, (), threshold)
    for degree in range(1, cap_degree + 1):
        h = interpolant(dom, monomials_of_degree(n, degree), locus)
        if h is not None:
            return HighMultLocus("ok", h, degree, tuple(locus), threshold)
    raise NoInterpolantError(cap_degree, len(locus))


# ---------------------------------------------------------------------------
# the intersection cycle audit
# ---------------------------------------------------------------------------


@record(frozen=True)
class CycleIntersection:
    """The 0-cycle obtained by intersecting each component with its own
    derivative curve and with the other components."""

    point_mults: tuple[tuple[tuple, int], ...]
    total_degree: int
    degree_bound: int  # D^2
    direction: tuple


# the sampled directions that cycle_A tries after a before it gives up
CYCLE_RETRIES = 12


def cycle_A(cycle: FactoredCycle, a=None, seed: int = 0) -> CycleIntersection:
    """Point-multiplicity data and exact total degree for the intersection
    cycle sum_j n_j C_j . (n_j C'_j + sum_{l != j} n_l C_l).

    Rational points get their contributions from local intersection
    numbers; the total degree over the closure comes from degree
    bookkeeping on proper pairwise intersections.  Components of degree 1
    have empty derivative cycles and contribute only cross terms.
    """
    dom = cycle.domain
    if not dom.is_field or dom.size is None:
        raise TypeError("cycle audit needs a finite residue field")
    if cycle.nvars != 3:
        raise ValueError("cycle audit is implemented for plane curves")
    direction = None
    derivs: list[MultiPoly | None] = []
    last_error: Exception | None = None
    for candidate in _directions(dom, 3, a, seed, CYCLE_RETRIES):
        derivs, ok = [], True
        for poly, _ in cycle.components:
            combo = _directional(poly, candidate)
            if combo.is_zero:
                ok = False
                last_error = DerivativeIdenticallyZero(
                    f"direction {candidate} annihilates {poly}"
                )
                break
            if combo.is_constant:
                derivs.append(None)  # empty derivative cycle (degree-1 component)
                continue
            # proper intersection requires that the component does not
            # divide its derivative curve
            if _divides(poly, combo):
                ok = False
                last_error = None
                break
            derivs.append(combo)
        if ok:
            direction = tuple(candidate)
            break
    if direction is None:
        if isinstance(last_error, DerivativeIdenticallyZero):
            raise last_error
        raise DerivativeIdenticallyZero(
            "no sampled direction produced proper derivative cycles"
        )

    pairs: list[tuple[MultiPoly, MultiPoly, int]] = []
    for j, (fj, nj) in enumerate(cycle.components):
        dj = derivs[j]
        if dj is not None:
            pairs.append((fj, dj, nj * nj))
        for l, (fl, nl) in enumerate(cycle.components):
            if l != j:
                pairs.append((fj, fl, nj * nl))

    point_mults: dict[tuple, int] = {}
    for fpoly, gpoly, weight in pairs:
        for pt in _common_proj_zeros(fpoly, gpoly):
            contrib = _proj_intersection_number(fpoly, gpoly, pt)
            assert contrib != INFINITE, "non-proper intersection slipped through"
            if contrib:
                point_mults[pt] = point_mults.get(pt, 0) + weight * contrib

    total_degree = 0
    for j, (fj, nj) in enumerate(cycle.components):
        own = fj.degree * derivs[j].degree if derivs[j] is not None else 0
        cross = sum(
            nl * fj.degree * fl.degree
            for l, (fl, nl) in enumerate(cycle.components)
            if l != j
        )
        total_degree += nj * (nj * own + cross)

    D = cycle.degree
    if D >= 3:
        assert total_degree < D * D, (
            f"intersection cycle degree {total_degree} reaches D^2 = {D * D}"
        )

    return CycleIntersection(
        point_mults=tuple(sorted(point_mults.items(), key=lambda kv: _point_key(dom, kv[0]))),
        total_degree=total_degree,
        degree_bound=cycle.degree**2,
        direction=direction,
    )


def _point_key(dom: CoeffDomain, pt: tuple):
    return tuple(dom.sort_key(c) for c in pt)


def _divides(f: MultiPoly, g: MultiPoly) -> bool:
    if g.is_zero:
        return True
    try:
        g.exact_div(f)
        return True
    except (ArithmeticError, ZeroDivisionError):
        return False


def _common_proj_zeros(f: MultiPoly, g: MultiPoly):
    dom = f.domain
    for pt in proj_points_over(dom, 3):
        if dom.is_zero(f.evaluate(pt)) and dom.is_zero(g.evaluate(pt)):
            yield pt


def _proj_intersection_number(f: MultiPoly, g: MultiPoly, pt: tuple) -> int | float:
    chart, affine_pt = _to_chart(f.domain, pt)
    return fulton_intersection_number(
        f.dehomogenize(chart), g.dehomogenize(chart), affine_pt
    )


def silly_arithmetic_check(xs) -> bool:
    """True iff: whenever every entry is less than half the total, the
    square of the total is less than twice the off-diagonal pair sum."""
    xs = [int(x) for x in xs]
    if any(x < 0 for x in xs):
        raise ValueError("entries must be non-negative")
    total = sum(xs)
    hypothesis = all(2 * x < total for x in xs)
    if not hypothesis:
        return True
    off_diagonal = total * total - sum(x * x for x in xs)  # ordered pairs j != l
    return total * total < 2 * off_diagonal
