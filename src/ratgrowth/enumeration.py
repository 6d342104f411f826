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
from dataclasses import dataclass

from .algebra.fqpoly import FqPoly, fq_gcd, poly_to_index
from .algebra.multipoly import MultiPoly
from .algebra.primes import PrimeIdealDesc
from .globalfield import GlobalField, ProjPoint, height_of_primitive

DEFAULT_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """The enumeration visited more candidates than its budget allows."""

    def __init__(self, budget: int, visited: int):
        super().__init__(f"enumeration budget exceeded: {visited} > {budget}")
        self.budget = budget
        self.visited = visited


@dataclass(frozen=True)
class EnumOptions:
    collect: bool = True
    sieve: tuple[PrimeIdealDesc, ...] | None = None
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
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
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.f is not None:
            if self.f.nvars != self.nvars:
                raise ValueError("polynomial arity does not match the ambient space")
            if self.ambient == "projective" and not self.f.is_homogeneous:
                raise ValueError("projective constraints must be homogeneous")


@dataclass
class PointSetResult:
    count: int
    points: tuple | None
    elapsed: float
    sieve_rejections: int = 0


def field_for_poly(f: MultiPoly) -> GlobalField:
    kind = f.domain.kind
    if kind in ("integers", "rationals"):
        return GlobalField.rationals()
    if kind in ("poly_ring", "rational_functions"):
        return GlobalField.function_field(f.domain.q)
    raise ValueError(f"no global field matches coefficients in {f.domain.describe()}")


def _box_values(field: GlobalField, bound: int) -> list:
    """All O_K elements x with |x| <= bound, in canonical order."""
    if field.is_rational:
        b = int(bound)
        return list(range(-b, b + 1))
    q = field.q
    max_deg = 0
    while q ** (max_deg + 1) <= bound:
        max_deg += 1
    from .algebra.fqpoly import all_polys

    return list(all_polys(q, max_deg))


def _elem_key(field: GlobalField, x):
    return x if field.is_rational else poly_to_index(x)


def _is_unit_gcd(field: GlobalField, g) -> bool:
    if field.is_rational:
        return g == 1
    return g.degree == 0


def _gcd_step(field: GlobalField, g, x):
    if field.is_rational:
        from math import gcd

        return gcd(g, abs(x))
    if not x:
        return g
    return x.monic() if not g else fq_gcd(g, x)


def _zero_gcd(field: GlobalField):
    return 0 if field.is_rational else FqPoly.zero(field.q)


# ---------------------------------------------------------------------------
# projective space
# ---------------------------------------------------------------------------


def enum_proj_points(
    n: int, H: int, field: GlobalField, options: EnumOptions | None = None
) -> PointSetResult:
    """All points of P^n(K) with height <= H, each exactly once in primitive
    normal form, ordered by (height, coordinates)."""
    if n < 1 or H < 1:
        raise ValueError("need n >= 1 and H >= 1")
    options = options or EnumOptions()
    start = time.perf_counter()
    values = _box_values(field, H)
    positives = [v for v in values if (v > 0 if field.is_rational else bool(v) and v.is_monic)]
    visited = 0
    count = 0
    points: list[ProjPoint] = []

    def extend_filtered(prefix: list, g, remaining: int):
        # only unit-gcd completions are points; count mode builds none
        nonlocal visited, count
        if remaining == 0:
            if _is_unit_gcd(field, g):
                count += 1
                if options.collect:
                    coords = tuple(prefix)
                    points.append(ProjPoint(field, coords, height_of_primitive(field, coords)))
            return
        for v in values:
            visited += 1
            if visited > options.budget:
                raise BudgetExceededError(options.budget, visited)
            prefix.append(v)
            extend_filtered(prefix, _gcd_step(field, g, v), remaining - 1)
            prefix.pop()

    zero = 0 if field.is_rational else FqPoly.zero(field.q)
    for lead_pos in range(n + 1):
        rest = n - lead_pos
        for lead in positives:
            visited += 1
            if visited > options.budget:
                raise BudgetExceededError(options.budget, visited)
            prefix = [zero] * lead_pos + [lead]
            extend_filtered(prefix, _gcd_step(field, _zero_gcd(field), lead), rest)

    points.sort(key=ProjPoint.sort_key)
    elapsed = time.perf_counter() - start
    return PointSetResult(
        count=count,
        points=tuple(points) if options.collect else None,
        elapsed=elapsed,
    )


def brute_force_proj_points(n: int, H: int, field: GlobalField) -> set[ProjPoint]:
    """Oracle: all raw tuples in the box, normalized into a set."""
    from .globalfield import primitive_normalize

    values = _box_values(field, H)
    out: set[ProjPoint] = set()

    def rec(prefix: list, remaining: int):
        if remaining == 0:
            if any((v != 0) if field.is_rational else bool(v) for v in prefix):
                out.add(primitive_normalize(field, tuple(prefix)))
            return
        for v in values:
            prefix.append(v)
            rec(prefix, remaining - 1)
            prefix.pop()

    rec([], n + 1)
    return out


# ---------------------------------------------------------------------------
# plane curves in P^2
# ---------------------------------------------------------------------------


def _power_table(field: GlobalField, values: list, exponents) -> dict[int, list]:
    """exponent -> [value^e for value in values]."""
    table: dict[int, list] = {}
    one = 1 if field.is_rational else FqPoly.one(field.q)
    for e in sorted(set(exponents)):
        if e == 0:
            table[0] = [one] * len(values)
        else:
            table[e] = [v**e for v in values]
    return table


def _normalize_tuple_int(coords: tuple[int, ...]) -> tuple[int, ...] | None:
    from math import gcd

    g = 0
    for c in coords:
        g = gcd(g, abs(c))
    if g == 0:
        return None
    out = tuple(c // g for c in coords)
    first = next(c for c in out if c)
    return out if first > 0 else tuple(-c for c in out)


def _normalize_tuple_poly(coords: tuple) -> tuple | None:
    q = coords[0].q
    g = FqPoly.zero(q)
    for c in coords:
        if c:
            g = c.monic() if not g else fq_gcd(g, c)
    if not g:
        return None
    out = tuple(c // g for c in coords)
    first = next(c for c in out if c)
    if first.leading_coeff != 1:
        inv = pow(first.leading_coeff, q - 2, q)
        out = tuple(c.scale(inv) for c in out)
    return out


def enum_curve_points_proj(
    f: MultiPoly, H: int, options: EnumOptions | None = None
) -> PointSetResult:
    """Exactly the height-<=H rational points of the plane curve f = 0.

    Strategy: pick a solve variable, iterate the other two coordinates
    over the box, collapse f to a univariate and scan its zeros; then
    normalize and deduplicate.
    """
    if f.is_zero:
        raise ValueError("curve polynomial must be nonzero")
    if f.nvars != 3 or not f.is_homogeneous:
        raise ValueError("expected a nonzero homogeneous polynomial in 3 variables")
    options = options or EnumOptions()
    field = field_for_poly(f)
    start = time.perf_counter()

    # solve variable: one that actually appears, with the fewest distinct exponents
    appearing = [i for i in range(3) if f.degree_in(i) > 0]
    if not appearing:
        raise ValueError("constant polynomial defines no curve")
    solve = min(appearing, key=lambda i: len({e[i] for e in f.terms}))
    others = [i for i in range(3) if i != solve]

    values = _box_values(field, H)
    tables = {
        i: _power_table(field, values, [e[i] for e in f.terms]) for i in others
    }
    solve_exps = sorted({e[solve] for e in f.terms})
    solve_table = _power_table(field, values, solve_exps)

    # terms grouped by the solve-variable exponent
    grouped: dict[int, list] = {}
    for exps, c in f.terms.items():
        grouped.setdefault(exps[solve], []).append((exps[others[0]], exps[others[1]], c))

    dom = f.domain
    zero_elem = 0 if field.is_rational else FqPoly.zero(field.q)
    visited = 0
    found: set[tuple] = set()
    normalize = _normalize_tuple_int if field.is_rational else _normalize_tuple_poly

    nvals = len(values)
    for ia in range(nvals):
        for ib in range(nvals):
            visited += nvals
            if visited > options.budget:
                raise BudgetExceededError(options.budget, visited)
            coeffs = {}
            for k, terms in grouped.items():
                acc = zero_elem
                for ea, eb, c in terms:
                    acc = acc + c * tables[others[0]][ea][ia] * tables[others[1]][eb][ib]
                if acc:
                    coeffs[k] = acc
            if not coeffs:
                solutions = range(nvals)
            else:
                solutions = [
                    iv
                    for iv in range(nvals)
                    if not _eval_grouped(coeffs, solve_table, iv, zero_elem)
                ]
            for iv in solutions:
                raw = [None, None, None]
                raw[others[0]] = values[ia]
                raw[others[1]] = values[ib]
                raw[solve] = values[iv]
                norm = normalize(tuple(raw))
                if norm is not None:
                    found.add(norm)

    points = [
        ProjPoint(field, coords, height_of_primitive(field, coords)) for coords in found
    ]
    points.sort(key=ProjPoint.sort_key)
    elapsed = time.perf_counter() - start
    return PointSetResult(
        count=len(points),
        points=tuple(points) if options.collect else None,
        elapsed=elapsed,
    )


def _eval_grouped(coeffs: dict, table: dict, iv: int, zero):
    acc = zero
    for k, c in coeffs.items():
        acc = acc + c * table[k][iv]
    return acc


def brute_force_curve_points(f: MultiPoly, H: int) -> set[ProjPoint]:
    """Oracle: evaluate f on every raw box triple, normalize the zeros."""
    from .globalfield import primitive_normalize

    field = field_for_poly(f)
    values = _box_values(field, H)
    out: set[ProjPoint] = set()
    for a in values:
        for b in values:
            for c in values:
                if field.is_rational:
                    if a == 0 and b == 0 and c == 0:
                        continue
                else:
                    if not a and not b and not c:
                        continue
                if not f.evaluate((a, b, c)):
                    out.add(primitive_normalize(field, (a, b, c)))
    return out


# ---------------------------------------------------------------------------
# affine hypersurfaces
# ---------------------------------------------------------------------------


def _sieve_root_sets(f: MultiPoly, field: GlobalField, primes) -> list[tuple[PrimeIdealDesc, set]]:
    """For each sieve prime, the exact set of residue tuples where the
    reduction of f vanishes."""
    from .reduction import reduce_curve_mod_p

    out = []
    for prime in primes:
        reduced = reduce_curve_mod_p(f, prime)
        dom = reduced.f_p.domain
        roots = set()
        elems = list(dom.elements())

        def rec(prefix, remaining):
            if remaining == 0:
                if dom.is_zero(reduced.f_p.evaluate(tuple(prefix))):
                    roots.add(tuple(prefix))
                return
            for v in elems:
                prefix.append(v)
                rec(prefix, remaining - 1)
                prefix.pop()

        rec([], f.nvars)
        out.append((prime, roots))
    return out


def enum_affine_hypersurface(
    f: MultiPoly, B: int, options: EnumOptions | None = None
) -> PointSetResult:
    """All x in the O_K box of size B with f(x) = 0.

    The optional sieve pre-filters candidates by their residues modulo
    small primes before any exact test; it can only skip non-solutions,
    so the result set is independent of the sieve choice.
    """
    if f.is_zero:
        raise ValueError("hypersurface polynomial must be nonzero")
    if f.nvars < 2:
        raise ValueError("need at least 2 variables")
    options = options or EnumOptions()
    field = field_for_poly(f)
    start = time.perf_counter()
    n = f.nvars
    values = _box_values(field, B)
    nvals = len(values)

    solve = min(range(n), key=lambda i: len({e[i] for e in f.terms}))
    others = [i for i in range(n) if i != solve]

    # per sieve prime: the residue of each box value, and for each residue
    # tuple of the other coordinates the box indices of the solve
    # coordinate that complete it to a root
    sieve_maps = []
    for prime, roots in _sieve_root_sets(f, field, options.sieve or ()):
        value_residues = [field.residue_of(v, prime) for v in values]
        indices_of: dict = {}
        for iv, r in enumerate(value_residues):
            indices_of.setdefault(r, []).append(iv)
        solve_indices: dict[tuple, set] = {}
        for root in roots:
            key = tuple(root[i] for i in others)
            solve_indices.setdefault(key, set()).update(indices_of.get(root[solve], ()))
        sieve_maps.append((value_residues, solve_indices))
    tables = {i: _power_table(field, values, [e[i] for e in f.terms]) for i in range(n)}

    grouped: dict[int, list] = {}
    for exps, c in f.terms.items():
        grouped.setdefault(exps[solve], []).append((tuple(exps[i] for i in others), c))

    zero_elem = 0 if field.is_rational else FqPoly.zero(field.q)
    visited = 0
    rejections = 0
    found: list[tuple] = []

    def _assemble(prefix_idx: list[int], iv: int) -> tuple[int, ...]:
        out = [0] * n
        for pos, i in zip(others, prefix_idx):
            out[pos] = i
        out[solve] = iv
        return tuple(out)

    def rec(prefix_idx: list[int]):
        nonlocal visited, rejections
        if len(prefix_idx) == len(others):
            coeffs = {}
            for k, terms in grouped.items():
                acc = zero_elem
                for exps, c in terms:
                    term = c
                    for j, e in enumerate(exps):
                        if e:
                            term = term * tables[others[j]][e][prefix_idx[j]]
                    acc = acc + term
                if acc:
                    coeffs[k] = acc
            passing = None  # the solve indices no sieve prime rejects
            for value_residues, solve_indices in sieve_maps:
                ok = solve_indices.get(tuple(value_residues[i] for i in prefix_idx), set())
                passing = ok if passing is None else passing & ok
            for iv in range(nvals):
                visited += 1
                if visited > options.budget:
                    raise BudgetExceededError(options.budget, visited)
                if passing is not None and iv not in passing:
                    rejections += 1
                    continue
                if coeffs and _eval_grouped(coeffs, tables[solve], iv, zero_elem):
                    continue
                point_idx = _assemble(prefix_idx, iv)
                found.append(tuple(values[i] for i in point_idx))
            return
        for i in range(nvals):
            prefix_idx.append(i)
            rec(prefix_idx)
            prefix_idx.pop()

    rec([])
    keyed = sorted(found, key=lambda pt: tuple(_elem_key(field, c) for c in pt))
    elapsed = time.perf_counter() - start
    return PointSetResult(
        count=len(keyed),
        points=tuple(keyed) if options.collect else None,
        elapsed=elapsed,
        sieve_rejections=rejections,
    )


def brute_force_affine_points(f: MultiPoly, B: int) -> set[tuple]:
    field = field_for_poly(f)
    values = _box_values(field, B)
    out: set[tuple] = set()

    def rec(prefix: list, remaining: int):
        if remaining == 0:
            if not f.evaluate(tuple(prefix)):
                out.add(tuple(prefix))
            return
        for v in values:
            prefix.append(v)
            rec(prefix, remaining - 1)
            prefix.pop()

    rec([], f.nvars)
    return out


def sz_bound(d: int, n: int, H: float, c: float = 1.0) -> float:
    """The degree-times-codimension slice bound c * d(d-1) * H^(n-2)."""
    if d < 1 or n < 2:
        raise ValueError("need d >= 1 and n >= 2")
    return c * d * (d - 1) * H ** (n - 2)


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
