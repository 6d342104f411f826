"""Bounded-height point enumeration: projective space, plane curves,
affine hypersurfaces.

Every fast path has a deliberately naive brute-force oracle next to it;
tests require the two to produce identical point sets.  Fast paths
iterate canonical primitive representatives and solve one coordinate by
a grouped-term scan with per-variable power tables; oracles iterate raw
grids and normalize afterwards.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import reduce
from itertools import chain, product
from math import isqrt

from .algebra.fqpoly import all_polys
from .algebra.multipoly import MultiPoly, _power_tables
from .algebra.primes import PrimeIdealDesc, primes_in_range
from .globalfield import (
    GlobalField,
    ProjPoint,
    _proj_point,
    field_for_poly,
    is_canonical_lead,
    primitive_lift,
    primitive_normalize,
)
from .records import record

DEFAULT_BUDGET = 50_000_000
# the most points that collect mode keeps from P^n; a walk of P^2 over Q
# peaks at about 240 bytes a point, so about 2.4 * 10^8 bytes
COLLECT_CAP = 1_000_000


class BudgetExceededError(RuntimeError):
    """A stage visited more candidates than its budget allows."""

    def __init__(self, budget: int, visited: int, stage: str = "enumeration"):
        super().__init__(f"{stage} budget exceeded: {visited} > {budget}")
        self.budget = budget
        self.visited = visited
        self.stage = stage


class CollectCapExceededError(RuntimeError):
    """Collect mode would keep more points than COLLECT_CAP; with at_least,
    count is the number kept when the scan stopped."""

    def __init__(self, count: int, cap: int, at_least: bool = False):
        amount = f"at least {count}" if at_least else count
        super().__init__(f"collect mode would keep {amount} points, above the cap of {cap}")
        self.count = count
        self.cap = cap


@record(frozen=True)
class EnumOptions:
    collect: bool = True
    sieve: tuple[PrimeIdealDesc, ...] | None = None
    budget: int = DEFAULT_BUDGET


@record(frozen=True)
class PointQuery:
    """A reproducible description of one counting request."""

    field: GlobalField
    ambient: str  # "projective" | "affine"
    nvars: int
    f: MultiPoly | None
    bound: int
    mode: str = "collect"  # "collect" | "count"
    sieve: tuple[PrimeIdealDesc, ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.ambient not in ("projective", "affine"):
            raise ValueError(f"unknown ambient {self.ambient!r}: expected 'projective' or 'affine'")
        if self.mode not in ("collect", "count"):
            raise ValueError(f"unknown mode {self.mode!r}: expected 'collect' or 'count'")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.sieve and self.ambient == "projective":
            raise ValueError("a sieve applies to affine queries only")
        if self.f is not None:
            if self.f.nvars != self.nvars:
                raise ValueError("polynomial arity does not match the ambient space")
            if self.ambient == "projective" and not self.f.is_homogeneous:
                raise ValueError("projective constraints must be homogeneous")


@record
class PointSetResult:
    count: int
    points: tuple | None
    elapsed: float
    sieve_rejections: int = 0


# ---------------------------------------------------------------------------
# projective space
# ---------------------------------------------------------------------------


def _count_proj_q(n: int, H: int, budget: int) -> int:
    """#P^n(Q, H) by the divisor recursion on primitive tuples.

    Let P(v) be the number of nonzero primitive (n+1)-tuples with
    max |x_i| <= v.  A nonzero tuple is its gcd k times a primitive tuple
    of size <= v/k, so (2v+1)^(n+1) - 1 = sum_{k <= v} P(v // k).  P is
    needed only at the values H // j, which are taken in increasing order,
    and each sum runs over the blocks of k that share one quotient:
    O(H^(3/4)) blocks and O(sqrt(H)) memo entries in all.  Each block is
    one budget step; the steps of a value are charged before its sum.
    """

    def blocks(v: int) -> int:
        # the distinct quotients v // k for 2 <= k <= v
        r = isqrt(v)
        return v // (r + 1) + r - 1

    # H's own blocks are part of the total: a huge height is refused here,
    # not after the budget's worth of smaller sums
    if blocks(H) > budget:
        raise BudgetExceededError(budget, budget + 1)
    s = isqrt(H)
    prim: dict[int, int] = {}
    steps = 0
    # the values H // j: every v <= H // (s + 1), then H // j for j <= s
    for v in chain(range(1, H // (s + 1) + 1), (H // j for j in range(s, 0, -1))):
        steps += blocks(v)
        if steps > budget:
            raise BudgetExceededError(budget, budget + 1)
        total = (2 * v + 1) ** (n + 1) - 1
        k = 2
        while k <= v:
            w = v // k
            top = v // w
            total -= (top - k + 1) * prim[w]
            k = top + 1
        prim[v] = total
    return prim[H] // 2


def _count_proj_fq(n: int, H: int, field: GlobalField) -> int:
    """#P^n(F_q(t), H) in closed form.

    The box holds the S = q^(k+1) polynomials of degree <= k.  Its nonzero
    tuples group by their monic gcd, and the sum of mu(g) over monic g of
    degree j is 1, -q, 0, 0, ... for j = 0, 1, 2, ...; so the primitive
    tuples number S^(n+1) - 1 - q ((S/q)^(n+1) - 1), which is q^(n+1) - 1
    at k = 0 too.  Each point has q - 1 of them.
    """
    q, cells = field.q, field.box_side(H) ** (n + 1)
    return (cells - cells // q**n + q - 1) // (q - 1)


def enum_proj_points(
    n: int, H: int, field: GlobalField, options: EnumOptions | None = None
) -> PointSetResult:
    """All points of P^n(K) with height <= H, each exactly once in primitive
    normal form, ordered by (height, coordinates): the zero set of the zero
    form in n + 1 variables, which `_enum_proj_zeros` counts in closed form
    (`_count_proj_q`, whose blocks are budget steps, or `_count_proj_fq`)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _enum_proj_zeros(MultiPoly.zero(field.integer_domain(), n + 1), H, options)


def brute_force_proj_points(n: int, H: int, field: GlobalField) -> set[ProjPoint]:
    """Oracle: all raw tuples in the box, normalized into a set."""
    return {primitive_normalize(field, raw) for raw in product(field.box(H), repeat=n + 1) if any(raw)}


# ---------------------------------------------------------------------------
# plane curves in P^2
# ---------------------------------------------------------------------------


def _grouped_terms(f: MultiPoly, solve: int) -> dict[int, list]:
    """f's terms grouped by the exponent of the solve variable, each as
    (exponents of the other variables, raw coefficient)."""
    grouped: dict[int, list] = {}
    for exps, c in zip(f.terms, f.domain.ring.raw(f.terms.values())):
        rest = exps[:solve] + exps[solve + 1 :]
        grouped.setdefault(exps[solve], []).append((rest, c))
    return grouped


def _collapse(grouped: dict, tables: list, head, solve_table: list, ring) -> list:
    """f on the row of prefixes head + (last,), with the head substituted,
    on the raw ring: per solve exponent, (its power column, the constant
    coefficient, pairs (power column of the last coordinate, coefficient)),
    the terms of one last exponent merged and zero sums dropped."""
    times, plus, zero = ring.times, ring.plus, ring.zero
    last_table = tables[len(head)]
    staged = []
    for k, terms in grouped.items():
        merged = {}
        for exps, c in terms:
            for table, e, i in zip(tables, exps, head):
                if e:
                    c = times(c, table[e][i])
            e = exps[-1]
            merged[e] = plus(merged[e], c) if e in merged else c
        const = merged.pop(0, zero)
        pairs = [(last_table[e], c) for e, c in merged.items() if c]
        if const or pairs:
            staged.append((solve_table[k], const, pairs))
    return staged


def _solve_sieve_primes(field: GlobalField, nvals: int) -> list[PrimeIdealDesc]:
    """The primes that sieve the solve coordinate of a box of nvals values
    per coordinate, among those of norm at most nvals/4: the smallest of
    norm at least isqrt(nvals) in ascending order, until the product of
    the norms exceeds nvals, and if that falls short, those of smaller
    norm in descending order.  Their root tables take about nvals^(3/2)
    evaluations.  Empty for small boxes."""
    root, top = isqrt(nvals), nvals // 4
    if top < 2:
        return []
    # three primes of norm >= root > 2 exceed nvals, so the list grows only
    # until it holds three of them: a list up to top would cost as much as
    # the scan on large affine boxes over F_q(t)
    hi = 2 * root
    while True:
        primes = primes_in_range(1, min(hi, top + 1), field.q)
        cut = bisect_left(primes, root, key=lambda p: p.norm)
        if len(primes) - cut >= 3 or hi > top:
            break
        hi *= 2
    # the sort is stable, so each norm keeps its canonical order
    pool = primes[cut:] + sorted(primes[:cut], key=lambda p: -p.norm)
    chosen, modulus = [], 1
    for prime in pool:
        if modulus > nvals:
            break
        chosen.append(prime)
        modulus *= prime.norm
    return chosen


def _sieve_tables(f: MultiPoly, field: GlobalField, primes, solve: int, values: list) -> list:
    """Per prime: the residue class of each box value, and for each tuple
    of residue classes of the other coordinates the frozenset of box
    indices whose value completes it to a zero of f modulo the prime.
    The sets are stored as rows: keyed by the classes of all other
    coordinates but the last, then listed by the class of the last.

    Classes are numbered by their canonical representatives: 0..p-1 over
    Q, the polynomials of degree below deg(pi) by index over F_q(t).  The
    zeros come from exact evaluation of the primitive part of f at those
    representatives on the raw ring of O_K, with the row collapse and the
    kernel of the scan, then one reduction of the value, so no
    residue-field arithmetic is needed.  The primitive part vanishes where
    f does, and a prime that divides the content of f still sieves.  Where
    it is homogeneous, f(l x, z) = l^d f(x, z / l): roots are found at the
    zero key and the keys led by the class 1 only, and times l they are
    the roots at the keys l x."""
    if not primes:
        return []
    f = primitive_lift(f)
    ring, n = f.domain.ring, f.nvars
    grouped, raw = _grouped_terms(f, solve), ring.raw(values)
    out = []
    for prime in primes:
        gen = prime.generator
        reps = ring.raw(range(gen) if field.is_rational else all_polys(field.q, gen.degree - 1))
        gen = ring.raw([gen])[0]
        index = {r: i for i, r in enumerate(reps)}
        classes = range(len(reps))
        powers = [_power_tables(ring, reps, {e[i] for e in f.terms}) for i in range(n)]
        fixed = powers[:solve] + powers[solve + 1 :]
        residues = [index[ring.rem(v, gen)] for v in raw]
        buckets: list[list[int]] = [[] for _ in reps]
        for iv, r in enumerate(residues):
            buckets[r].append(iv)
        heads = list(product(classes, repeat=n - 2))
        # row l of the product table maps each class x to l x
        scales = ([[index[ring.rem(ring.times(a, b), gen)] for b in reps] for a in reps[1:]]
                  if f.is_homogeneous else [classes])
        rows = _lead_rows(n - 1, len(reps), 0, [1]) if f.is_homogeneous else [(h, classes) for h in heads]
        by_roots: dict[tuple, frozenset] = {}
        sets = {}
        for head, axis in rows:
            staged = _collapse(grouped, fixed, head, powers[solve], ring)
            for last in axis:
                roots = ring.zeros(staged, last, classes, gen)
                for scale in scales:
                    scaled = tuple(sorted(scale[r] for r in roots))
                    if scaled not in by_roots:
                        by_roots[scaled] = frozenset(iv for r in scaled for iv in buckets[r])
                    sets[tuple(scale[i] for i in head + (last,))] = by_roots[scaled]
        table = {head: [sets[head + (last,)] for last in classes] for head in heads}
        out.append((residues, table))
    return out


def _scan(f: MultiPoly, values: list, solve: int, rows, sieve: list,
          budget: int, spent: int, emit_row, counted: int = 0) -> int:
    """Hand each row's prefixes and the solve indices that complete them to
    a zero of f to emit_row(head)(last, hits), in scan order; return the
    number of cells that the first `counted` sieve tables admit.  The
    prefixes come in rows (head, axis): head + (last,) for each index last
    in axis, and a prefix without a zero is not emitted.

    The scan runs on the raw ring of O_K (F_q[t]'s packed ints over
    F_q(t)), on f over O_K (its primitive lift if its coefficients lie in
    a field) and the box values converted once; the indices it hands on
    index the values as given.
    For each prefix, the candidates are the solve indices that every sieve
    table admits, and each is decided by exact evaluation of the univariate
    that f collapses to there, staged once per row by `_collapse`, in the
    ring's kernel `zeros`.  Where that univariate is zero its sum has no
    term, so every candidate is a zero and none is evaluated.  Each row
    looks up the sieve table of its head once, so a prefix costs one list
    index per prime.  Every candidate adds one to the work `spent` before
    the scan, and work past `budget` raises BudgetExceededError."""
    if f.domain.is_field:
        f = primitive_lift(f)
    ring = f.domain.ring
    raw = ring.raw(values)
    tables = [_power_tables(ring, raw, {e[i] for e in f.terms}) for i in range(f.nvars)]
    fixed, solve_table = tables[:solve] + tables[solve + 1 :], tables[solve]
    grouped, zeros = _grouped_terms(f, solve), ring.zeros
    every = range(len(values))
    work, admitted = spent, 0
    for head, axis in rows:
        lookups = [(residues, table[tuple(residues[i] for i in head)]) for residues, table in sieve]
        first, rest = lookups[:counted], lookups[counted:]
        emit = emit_row(head)
        staged = _collapse(grouped, fixed, head, solve_table, ring)
        for last in axis:
            candidates = every
            if counted:
                for residues, row in first:
                    hits = row[residues[last]]
                    candidates = hits if candidates is every else candidates & hits
                admitted += len(candidates)
            for residues, row in rest:
                hits = row[residues[last]]
                candidates = hits if candidates is every else candidates & hits
            if not candidates:
                continue
            work += len(candidates)
            if work > budget:
                raise BudgetExceededError(budget, budget + 1)
            hits = zeros(staged, last, candidates)
            if hits:
                emit(last, hits)
    return admitted


def _charged(work: int, budget: int) -> int:
    """work, if it is within the budget; a refusal reports budget + 1."""
    if work > budget:
        raise BudgetExceededError(budget, budget + 1)
    return work


def _lead_rows(n: int, nvals: int, izero: int, leads: list):
    """The rows (head, axis) of the L (nvals^n - 1) / (nvals - 1) + 1
    prefixes of n box indices whose first nonzero value is one of the L
    canonical leads, by the position of that value, then the zero prefix."""
    every = range(nvals)
    for k in range(n - 1):
        for lead in leads:
            for tail in product(every, repeat=n - 2 - k):
                yield (izero,) * k + (lead,) + tail, every
    yield (izero,) * (n - 1), [izero] + leads


def _enum_proj_zeros(f: MultiPoly, H: int, options: EnumOptions | None) -> PointSetResult:
    """Exactly the height-<=H points of P^n on the zero set of the form f in
    n + 1 >= 2 variables, each once in primitive normal form, ordered by
    (height, coordinates).

    Strategy: pick a solve variable and iterate the other n coordinates
    over the box, skipping prefixes whose first nonzero coordinate is not
    canonical (a unit multiple of the prefix is visited instead).  For each
    prefix, the solve values that survive the residue sieve of
    `_solve_sieve_primes` are zeros if the prefix collapses f to the zero
    univariate, and are checked by exact evaluation of the univariate
    otherwise.  The zero form, whose zero set is P^n, is neither sieved nor
    evaluated, and its points are counted in closed form first: count mode
    returns that count, and collect mode refuses one above COLLECT_CAP.

    A zero is kept iff it is primitive, so each point is kept once and
    nothing is normalized or deduplicated: if a zero's gcd d, taken
    positive resp. monic, is not a unit, its quotient by d is a zero in
    the box on a canonical prefix, which the scan visits.  On the zero
    prefix only the solve value 1 is kept.  Where the solve coordinate
    comes first and is not canonical, the kept zero is multiplied by the
    unit that makes it canonical.  Collect mode stops once it keeps more
    than COLLECT_CAP points; count mode keeps none.
    """
    options = options or EnumOptions()
    if H < 1:
        raise ValueError("bound must be >= 1")
    if options.sieve:
        raise ValueError("a sieve applies to affine queries only")
    field = field_for_poly(f)
    start = time.perf_counter()
    n, npoints = f.nvars - 1, None
    if f.is_zero:
        npoints = _count_proj_q(n, H, options.budget) if field.is_rational else _count_proj_fq(n, H, field)
        if not options.collect:
            return PointSetResult(count=npoints, points=None, elapsed=time.perf_counter() - start)

    # solve variable: one that actually appears, with the fewest distinct
    # exponents; the zero form solves the last, which leads only the zero prefix
    appearing = [i for i in range(n + 1) if f.degree_in(i) > 0] or [n]
    solve = min(appearing, key=lambda i: len({e[i] for e in f.terms}))

    nvals = field.box_side(H)
    # the budget charges the scan's work: its prefixes and the root tables
    # of its primes before the box is listed, then its candidates
    spent = _charged(field.box_leads(H) * ((nvals**n - 1) // (nvals - 1)) + 1, options.budget)
    primes = [] if f.is_zero else _solve_sieve_primes(field, nvals)
    spent = _charged(spent + sum(p.norm ** (n + 1) for p in primes), options.budget)
    if npoints is not None and npoints > COLLECT_CAP:
        raise CollectCapExceededError(npoints, COLLECT_CAP)
    values = field.box(H)
    sieve = _sieve_tables(f, field, primes, solve, values)

    izero = values.index(field.zero)
    leads = [i for i, v in enumerate(values) if is_canonical_lead(field, v)]
    zero, one, ione, gcd = field.zero, field.one, values.index(field.one), field.gcd
    # per box value: its size, and the unit that makes it canonical
    sizes = [field.size(v) for v in values]
    units = [field.lead_unit(v) for v in values]
    collect = options.collect
    kept = []  # collect mode: (height, point)
    total = 0  # count mode: the number of points

    def emit_row(head):
        # the head's values, their gcd up to a unit, and their height
        row = tuple([values[i] for i in head])
        zero_row, g_row = not any(row), reduce(gcd, row) if row else zero
        size_row = max([sizes[i] for i in head], default=0)

        def emit(last, hits):
            nonlocal total
            b = values[last]
            if zero_row and last == izero:
                # the coordinate point of the solve axis, from its one canonical value
                hits = [ione] if ione in hits else []
            g = gcd(g_row, b)
            if not collect:
                total += len(hits) if g == one else sum(gcd(g, values[iv]) == one for iv in hits)
                return
            prefix = (*row, b)
            before, after = prefix[:solve], prefix[solve:]
            leading = not any(before)
            height = max(size_row, sizes[last])
            for iv in hits:
                c = values[iv]
                if g != one and gcd(g, c) != one:
                    continue
                point = (*before, c, *after)
                if leading and units[iv] != 1:
                    point = tuple([x * units[iv] for x in point])
                kept.append((max(height, sizes[iv]), point))
            if len(kept) > COLLECT_CAP:
                raise CollectCapExceededError(len(kept), COLLECT_CAP, at_least=True)

        return emit

    _scan(f, values, solve, _lead_rows(n, nvals, izero, leads), sieve, options.budget, spent, emit_row)
    points = None
    if collect:
        kept.sort()
        points = tuple(_proj_point(field, coords, height) for height, coords in kept)
        total = len(kept)
    return PointSetResult(count=total, points=points, elapsed=time.perf_counter() - start)


def enum_curve_points_proj(
    f: MultiPoly, H: int, options: EnumOptions | None = None
) -> PointSetResult:
    """Exactly the height-<=H rational points of the plane curve f = 0,
    each once in primitive normal form, ordered by (height, coordinates):
    the scan of `_enum_proj_zeros` on P^2."""
    if f.nvars != 3 or not f.is_homogeneous or f.degree < 1:
        raise ValueError("expected a nonconstant homogeneous polynomial in 3 variables")
    return _enum_proj_zeros(f, H, options)


def brute_force_curve_points(f: MultiPoly, H: int) -> set[ProjPoint]:
    """Oracle: evaluate f on every raw box triple, normalize the zeros."""
    field = field_for_poly(f)
    box = product(field.box(H), repeat=3)
    return {primitive_normalize(field, raw) for raw in box if any(raw) and not f.evaluate(raw)}


# ---------------------------------------------------------------------------
# affine hypersurfaces
# ---------------------------------------------------------------------------


def enum_affine_hypersurface(
    f: MultiPoly, B: int, options: EnumOptions | None = None
) -> PointSetResult:
    """All x in the O_K box of size B with f(x) = 0.

    The user's sieve primes, then the automatic ones of
    `_solve_sieve_primes` that the user did not supply, pre-filter
    candidates by their residues before any exact test; they can only skip
    non-solutions, so the result set is independent of the sieve choice.
    sieve_rejections counts the cells that a user prime rejects, 0 without
    a user sieve.
    """
    if f.is_zero:
        raise ValueError("hypersurface polynomial must be nonzero")
    if f.nvars < 2:
        raise ValueError("need at least 2 variables")
    if B < 1:
        raise ValueError("bound must be >= 1")
    options = options or EnumOptions()
    field = field_for_poly(f)
    for prime in options.sieve or ():
        if not field.owns_prime(prime):
            raise ValueError(f"sieve prime {prime.generator} is not a prime of {field.describe()}")
    start = time.perf_counter()
    n = f.nvars
    nvals = field.box_side(B)
    # charged as on curves: the prefixes and root tables, then the candidates
    spent = _charged(nvals ** (n - 1), options.budget)
    user = tuple(options.sieve or ())
    primes = user + tuple(p for p in _solve_sieve_primes(field, nvals) if p not in user)
    spent = _charged(spent + sum(p.norm**n for p in primes), options.budget)
    values = field.box(B)

    solve = min(range(n), key=lambda i: len({e[i] for e in f.terms}))
    sieve = _sieve_tables(f, field, primes, solve, values)
    rows = ((head, range(nvals)) for head in product(range(nvals), repeat=n - 2))
    found = []

    def emit_row(head):
        row = tuple(values[i] for i in head)

        def emit(last, hits):
            prefix = (*row, values[last])
            before, after = prefix[:solve], prefix[solve:]
            found.extend((*before, values[iv], *after) for iv in hits)

        return emit

    admitted = _scan(f, values, solve, rows, sieve, options.budget, spent, emit_row, len(user))
    keyed = sorted(found)
    elapsed = time.perf_counter() - start
    return PointSetResult(
        count=len(keyed),
        points=tuple(keyed) if options.collect else None,
        elapsed=elapsed,
        sieve_rejections=nvals**n - admitted if user else 0,
    )


def brute_force_affine_points(f: MultiPoly, B: int) -> set[tuple]:
    """Oracle: evaluate f on every raw box tuple."""
    return {raw for raw in product(field_for_poly(f).box(B), repeat=f.nvars) if not f.evaluate(raw)}


def run_query(query: PointQuery) -> PointSetResult:
    options = EnumOptions(
        collect=(query.mode == "collect"), sieve=query.sieve, budget=query.budget
    )
    if query.ambient == "projective":
        if query.f is None:
            return enum_proj_points(query.nvars - 1, query.bound, query.field, options)
        return enum_curve_points_proj(query.f, query.bound, options)
    if query.f is None:
        raise ValueError("affine queries need a polynomial")
    return enum_affine_hypersurface(query.f, query.bound, options)
