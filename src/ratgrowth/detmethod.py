"""The p-adic interpolation determinant engine.

Evaluation matrices of monomials at bounded-height points, exact
determinants with valuation certificates, auxiliary polynomials that
vanish on residue classes, and the full covering pipeline that writes
the rational points of a curve (or affine hypersurface) into the joint
zero locus of few low-degree forms.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable
from fractions import Fraction

from .algebra.linalg import det_exact
from .algebra.multipoly import (
    MultiPoly,
    evaluation_matrix,
    interpolant,
    monomials_of_degree,
    monomials_up_to_degree,
    vanishing,
)
from .algebra.primes import PrimeIdealDesc, primes_in_range
from .baselines import EMU_A_BASELINE
from .enumeration import EnumOptions, enum_affine_hypersurface, enum_curve_points_proj
from .globalfield import (
    GlobalField,
    ProjPoint,
    ResiduePoint,
    field_for_poly,
    ord_at,
    reduce_point_mod_p,
)
from .records import record
from .reduction import good_primes, mult_at_point, primitive_lift, reduce_curve_mod_p


class PipelineError(RuntimeError):
    pass


class RegimeViolation(PipelineError):
    """The requested interpolation degree is not below the curve degree."""


class NotApplicable(PipelineError):
    """Degenerate request (e.g. degree-1 input leaves no monomials)."""


class PointsNotCongruent(ValueError):
    """Certificate points must share a single residue point."""


@record(frozen=True)
class MonomialBasis:
    """All monomials of one total degree in nvars variables, in the global
    grevlex order."""

    nvars: int
    degree: int
    monomials: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.monomials)


def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    monos = monomials_of_degree(nvars, degree)
    assert len(monos) == math.comb(degree + nvars - 1, nvars - 1)
    return MonomialBasis(nvars, degree, monos)


def _valuation_of(field: GlobalField, value, prime: PrimeIdealDesc) -> int | float:
    return ord_at(field, value, prime) if value else math.inf


@record(frozen=True)
class ValuationCertificate:
    """One interpolation determinant together with its divisibility audit."""

    prime: PrimeIdealDesc
    residue_point: ResiduePoint
    mu: int
    degree: int
    s: int
    points: tuple[ProjPoint, ...]
    det_norm: int
    valuation: int | float
    a: float
    bound_rhs: float
    verdict: str  # "VanishesIdentically" | "MeetsBound" | "ViolatesBound"
    norm_cap_ok: bool
    log_norm: float
    log_norm_cap: float

    def to_json_dict(self) -> dict:
        return {
            "prime": str(self.prime.generator),
            "prime_norm": self.prime.norm,
            "residue_point": str(self.residue_point),
            "mu": self.mu,
            "degree": self.degree,
            "s": self.s,
            "points": [p.coord_strings() for p in self.points],
            "det_norm": str(self.det_norm),
            "valuation": "inf" if self.valuation == math.inf else self.valuation,
            "a": self.a,
            "bound_rhs": self.bound_rhs,
            "verdict": self.verdict,
            "norm_cap_ok": self.norm_cap_ok,
        }


def interp_det_certificate(
    points,
    degree: int,
    prime: PrimeIdealDesc,
    mu: int,
    a: float = EMU_A_BASELINE,
    curve: MultiPoly | None = None,
) -> ValuationCertificate:
    """Build the square evaluation matrix of all degree-`degree` monomials
    at the given points (all congruent to one residue point mod the prime),
    take its exact determinant and certify the valuation against
    s^2/(2 mu) - a s.

    With `curve` supplied, mu is recomputed on the reduced curve and must
    match.  A ViolatesBound verdict is a red flag for the caller.
    """
    if mu < 1:
        raise ValueError(f"interp_det_certificate needs multiplicity mu >= 1, got {mu}")
    points = tuple(points)
    if not points:
        raise ValueError("certificate needs points")
    field = points[0].field
    basis = monomial_basis(len(points[0].coords), degree)
    if len(points) != basis.s:
        raise ValueError(
            f"need exactly s = {basis.s} points for degree {degree}, got {len(points)}"
        )
    residues = {reduce_point_mod_p(p, prime) for p in points}
    if len(residues) != 1:
        raise PointsNotCongruent(
            f"points fall into {len(residues)} residue classes mod {prime}"
        )
    residue_point = next(iter(residues))
    if curve is not None:
        reduced = reduce_curve_mod_p(curve, prime)
        mu_check = mult_at_point(reduced.f_p, residue_point.coords).mu
        if mu_check != mu:
            raise ValueError(f"stated mu={mu} but reduced curve gives {mu_check}")

    dom = field.integer_domain()
    delta = det_exact(evaluation_matrix(dom, basis.monomials, [p.coords for p in points]))
    det_norm = field.size(delta)
    valuation = _valuation_of(field, delta, prime)
    s = basis.s
    bound_rhs = s * s / (2.0 * mu) - a * s
    if det_norm == 0:
        verdict = "VanishesIdentically"
    elif valuation >= bound_rhs:
        verdict = "MeetsBound"
    else:
        verdict = "ViolatesBound"
    height = max(p.height for p in points)
    log_norm = math.log(det_norm) if det_norm > 0 else float("-inf")
    log_cap = s * math.log(s) + s * degree * field.d_K * math.log(max(height, 2))
    assert log_norm <= log_cap + 1e-9, (
        f"determinant norm {det_norm} breaks the coarse cap (log {log_norm:.3f} "
        f"> {log_cap:.3f}); entries larger than height^degree slipped in"
    )
    if verdict == "ViolatesBound":
        warnings.warn(
            f"valuation {valuation} violates the divisibility bound "
            f"{bound_rhs:.2f} at prime {prime.generator} (a={a}); this "
            "contradicts the expected congruence forcing and must be examined",
            stacklevel=2,
        )
    return ValuationCertificate(
        prime=prime,
        residue_point=residue_point,
        mu=mu,
        degree=degree,
        s=s,
        points=points,
        det_norm=det_norm,
        valuation=valuation,
        a=a,
        bound_rhs=bound_rhs,
        verdict=verdict,
        norm_cap_ok=log_norm <= log_cap + 1e-9,
        log_norm=log_norm,
        log_norm_cap=log_cap,
    )


# ---------------------------------------------------------------------------
# auxiliary polynomials for residue classes
# ---------------------------------------------------------------------------


def _kernel_poly(field: GlobalField, monomials, points_coords) -> MultiPoly | None:
    """The interpolant over O_K of the coordinate tuples (multipoly.interpolant),
    or None at full rank: the covers' one source of aux polys."""
    return interpolant(field.integer_domain(), monomials, points_coords)


# ---------------------------------------------------------------------------
# regime bookkeeping
# ---------------------------------------------------------------------------


@record(frozen=True)
class RegimeReport:
    variant: str
    ok: bool
    lhs: float
    d: int
    rhs: float


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def float_power(base: float, exponent: float) -> float:
    """base ** exponent as a float, or inf beyond the float range.

    Only a base or a power too large for a float goes through logarithms,
    so every value that fits is the plain power.
    """
    try:
        return float(base**exponent)
    except OverflowError:
        log_value = exponent * math.log(base)
        return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def json_float(value: float) -> float | None:
    """value as a JSON document writes it: a power beyond the float range
    (inf, see float_power) or a bound that is not reported (nan) becomes
    null, since strict JSON has neither Infinity nor NaN."""
    return value if math.isfinite(value) else None


def regime_check(d: int, H: float, variant: str = "Curve") -> RegimeReport:
    """The inequality window in which the covering pipeline is guaranteed:
    (log H)^2 < d < H^(3/2) for plane curves, (log H)^2 < d < H for the
    affine hypersurface variant.  The upper end is decided exactly, as
    d^2 < H^3 and d < H."""
    if d < 1 or H <= 2:
        raise ValueError("need d >= 1 and H > 2")
    log_h = math.log(H)
    if variant == "Curve":
        lhs, rhs = log_h**2, float_power(H, 1.5)
        below = d * d < Fraction(H) ** 3
    elif variant == "AffinePila":
        lhs, rhs = log_h**2, float_power(H, 1)
        below = d < H
    else:
        raise ValueError(f"unknown regime variant {variant!r}")
    return RegimeReport(variant=variant, ok=lhs < d and below, lhs=lhs, d=d, rhs=rhs)


# ---------------------------------------------------------------------------
# the covering core, shared by the plane-curve and affine pipelines
# ---------------------------------------------------------------------------


@record(frozen=True)
class ClassRecord:
    prime: PrimeIdealDesc
    residue_point: ResiduePoint | tuple
    mu: int
    class_size: int
    aux_status: str
    aux_poly: str | None = None


@record
class CoverResult:
    curve: MultiPoly
    H: int
    regime: RegimeReport
    aux_polys: list  # (poly, provenance) pairs
    classes: list[ClassRecord]
    high_mult: dict
    uncovered: list
    counts: dict

    def to_json_dict(self) -> dict:
        return {
            "curve": str(self.curve),
            "H": self.H,
            "regime": {
                "ok": self.regime.ok,
                "lhs": self.regime.lhs,
                "d": self.regime.d,
                "rhs": json_float(self.regime.rhs),
            },
            "classes": [
                {
                    "prime": str(c.prime.generator),
                    "prime_norm": c.prime.norm,
                    "point": str(c.residue_point),
                    "mu": c.mu,
                    "aux_poly": c.aux_poly,
                    "class_size": c.class_size,
                    "aux_status": c.aux_status,
                }
                for c in self.classes
            ],
            "aux_polys": [
                {"poly": str(poly), "provenance": prov} for poly, prov in self.aux_polys
            ],
            "high_mult": self.high_mult,
            "uncovered": [str(p) for p in self.uncovered],
            "counts": self.counts,
        }


@record(frozen=True)
class _Chart:
    """What the covering core needs to know about the ambient space.

    The functions look the reduction helpers up at call time, so wrappers
    installed on the module attributes see every call; so does _partition,
    which takes multiplicities through mult_at_point.
    """

    projective: bool
    residue: Callable  # (point, prime) -> residue point
    monomials: Callable  # (nvars, degree) -> monomial exponent tuples
    coords: Callable  # point -> coordinate tuple
    sort_key: Callable  # residue point -> class sort key


# points are ProjPoints, residues ResiduePoints; forms are homogeneous
_PROJECTIVE = _Chart(
    projective=True,
    residue=lambda p, prime: reduce_point_mod_p(p, prime),
    monomials=lambda nvars, degree: monomial_basis(nvars, degree).monomials,
    coords=lambda p: p.coords,
    sort_key=lambda rp: rp.sort_key(),
)

# points and residues are plain coordinate tuples; forms have degree <= d'
_AFFINE = _Chart(
    projective=False,
    residue=lambda p, prime: tuple(map(prime.residue, p)),
    monomials=monomials_up_to_degree,
    coords=lambda p: p,
    sort_key=lambda rp: tuple(map(str, rp)),
)


@record(frozen=True)
class _CoverPlan:
    """What a cover decides before it reads a point: `good`, the primes of
    good reduction of f's primitive O_K `lift`, in order; the low
    multiplicity `threshold`; the `degree` of the form through the points
    high at every good prime; and the leading fields of the high_mult block.
    """

    f: MultiPoly
    H: int
    field: GlobalField
    chart: _Chart
    regime: RegimeReport | None
    points: list
    lift: MultiPoly
    good: list
    threshold: float
    degree: int
    high_mult: dict


def _plan(f, H, chart, regime, points, M, primes, d_prime) -> _CoverPlan:
    """The plan of a cover of `points` on f at height H.  The primes are
    those supplied, or with `primes` None the window (log H, M (log H)^4):
    no prime has norm 1 or less, so its floor is 1 when H < e, and its
    ceiling is at least log H + 2.  Low multiplicity means below d / log H,
    and the high form's degree is the wrapper's rule `d_prime`, clamped to
    [1, d-1].  A plan reports the clamped degree; a projective one also
    reports the prime product against the coarse determinant norm cap.
    """
    field = field_for_poly(f)
    log_h = math.log(H)
    if primes is None:
        hi = M * log_h**4
        primes = primes_in_range(max(log_h, 1), hi if hi > log_h + 1 else log_h + 2, field.q)
    lift = primitive_lift(f)
    good = good_primes(lift, primes)
    degree = max(min(d_prime, f.degree - 1), 1)
    high_mult = {"d_prime": degree}
    if chart.projective:
        high_mult |= {
            "num_primes": len(good),
            "log_prime_product": sum(math.log(p.norm) for p in good),
            "log_norm_cap": 2.0 * field.d_K * degree**3 * log_h,
        }
    return _CoverPlan(
        f, H, field, chart, regime, points, lift, good, f.degree / log_h, degree, high_mult
    )


def _partition(plan: _CoverPlan) -> tuple[dict, list]:
    """({(prime, residue point): (mu, points)}, xi_s): each point joins the
    class of the first good prime where its reduction has multiplicity below
    the threshold, and is reduced no further; the points high at every
    prime form xi_s.  Each multiplicity is read only up to ceil(threshold):
    the capped value is below the threshold exactly when mu is, and equals
    mu there, so every class keeps its exact mu.  The multiplicities are
    read at each prime on one set of Taylor plans of f's primitive O_K
    lift, built for this partition only."""
    chart, threshold = plan.chart, plan.threshold
    stop = math.ceil(threshold)
    taylor: dict = {}  # chart -> Taylor plan of the lift, shared by the primes
    caches = [{} for _ in plan.good]  # per prime: residue point -> capped mu
    classes: dict[tuple, tuple[int, list]] = {}
    xi_s = []
    for p in plan.points:
        for prime, cache in zip(plan.good, caches):
            rp = chart.residue(p, prime)
            if rp not in cache:
                cache[rp] = mult_at_point(
                    plan.lift, chart.coords(rp), chart.projective, stop, taylor, prime
                ).mu
            mu = cache[rp]
            if mu < threshold:
                classes.setdefault((prime, rp), (mu, []))[1].append(p)
                break
        else:
            xi_s.append(p)
    return classes, xi_s


def _interpolate(plan: _CoverPlan, monomials, low_monomials, coords_list, what):
    """(forms, status): one form on `monomials` through all the points, or,
    at full rank, forms on the degree d-1 `low_monomials` through chunks of
    s-1 points, each rank-deficient by pigeonhole.

    The fallback is only taken out of regime; in regime a full-rank set
    contradicts the determinant bound and is an error.
    """
    poly = _kernel_poly(plan.field, monomials, coords_list)
    if poly is not None:
        return [poly], "ok"
    if plan.regime.ok:
        raise PipelineError(f"irrecoverable {what}: no interpolant exists at full rank")
    step = max(len(low_monomials) - 1, 1)
    chunks = (coords_list[i : i + step] for i in range(0, len(coords_list), step))
    polys = [_kernel_poly(plan.field, low_monomials, chunk) for chunk in chunks]
    assert all(poly is not None for poly in polys), "rank-deficient chunk must have a kernel"
    return polys, "chunked"


def _cover(plan: _CoverPlan) -> CoverResult:
    """The covering argument on one chart.

    Points of low multiplicity at some prime are grouped into residue
    classes (first qualifying prime in canonical order) and each class is
    interpolated at degree d-1; the points that stay high-multiplicity
    everywhere get one extra form of the plan's degree.  The cover is
    verified pointwise.
    """
    f, chart = plan.f, plan.chart
    n, d = f.nvars, f.degree
    classes, xi_s = _partition(plan)

    low = chart.monomials(n, d - 1)
    aux_polys = []
    class_records = []
    for prime, rp in sorted(classes, key=lambda key: (key[0].sort_key(), chart.sort_key(key[1]))):
        mu, klass = classes[(prime, rp)]
        polys, status = _interpolate(
            plan, low, low, [chart.coords(p) for p in klass],
            f"class at prime {prime.generator}, point {rp}",
        )
        if status == "ok":
            aux_polys.append((polys[0], f"low_mult:{prime.generator}:{rp}"))
        else:
            aux_polys.extend(
                (poly, f"low_mult_chunk:{prime.generator}:{rp}:{i}") for i, poly in enumerate(polys)
            )
        class_records.append(
            ClassRecord(
                prime=prime,
                residue_point=rp,
                mu=mu,
                class_size=len(klass),
                aux_status=status,
                aux_poly="; ".join(map(str, polys)),
            )
        )

    high_poly = None
    if not xi_s:
        high_status = "empty_class"
    else:
        polys, high_status = _interpolate(
            plan, chart.monomials(n, plan.degree), low, [chart.coords(p) for p in xi_s],
            "high-multiplicity set",
        )
        if high_status == "ok":
            high_poly = polys[0]
            aux_polys.append((high_poly, "high_mult_global"))
        else:
            aux_polys.extend((poly, f"high_mult_chunk:{i}") for i, poly in enumerate(polys))

    # pointwise cover verification, exact: each point's powers are shared by the forms
    forms = [poly for poly, _ in aux_polys]
    covered = vanishing(plan.field.integer_domain(), forms, map(chart.coords, plan.points))
    uncovered = [p for p, hit in zip(plan.points, covered) if not hit]

    counts = {
        "points": len(plan.points),
        "aux": len(aux_polys),
        "bound_rhs": math.log(plan.H) ** 12,  # the regime's cap on the number of forms
        "xi_s": len(xi_s),
        "num_primes": len(plan.good),
        "max_aux_degree": max((poly.degree for poly, _ in aux_polys), default=0),
    }
    return CoverResult(
        curve=f,
        H=plan.H,
        regime=plan.regime,
        aux_polys=aux_polys,
        classes=class_records,
        high_mult={
            "poly": str(high_poly) if high_poly is not None else None,
            "degree": high_poly.degree if high_poly is not None else None,
            **plan.high_mult,
            "xi_s_size": len(xi_s),
            "status": high_status,
        },
        uncovered=uncovered,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# the covering pipeline (plane curves)
# ---------------------------------------------------------------------------


def _require_finite(params, *names) -> None:
    """Refuse an infinite or NaN float field of params, by name."""
    for name in names:
        value = getattr(params, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@record(frozen=True)
class CoverParams:
    M: float = 4.0
    N: float = 4.0
    budget: int = 50_000_000

    def __post_init__(self):
        _require_finite(self, "M", "N")


def cover_high_mult(
    f: MultiPoly, H: int, primes, N_const: float = CoverParams.N
) -> tuple[MultiPoly | None, dict]:
    """Interpolate the points of height <= H that stay high-multiplicity at
    every prime by a single form of degree floor(N log H), as the
    pipeline's partition finds them.

    With no primes given, the good primes of the pipeline's window are
    used.  Returns (poly_or_None, audit); the audit is the pipeline's
    high_mult block without its form.  Refuses when the degree would reach
    the curve degree.
    """
    if H < 2:
        raise ValueError(f"cover_high_mult needs height H >= 2, got {H}")
    d = f.degree
    d_prime = int(N_const * math.log(H))
    if d_prime >= d:
        raise RegimeViolation(f"interpolation degree {d_prime} reaches the curve degree {d}")
    points = enum_curve_points_proj(f, H).points
    plan = _plan(f, H, _PROJECTIVE, None, points, CoverParams.M, primes or None, d_prime)
    # a point with no good prime to read it at is not high anywhere
    xi_s = _partition(plan)[1] if plan.good else []
    audit = {**plan.high_mult, "xi_s_size": len(xi_s)}
    if not xi_s:
        audit["status"] = "empty_class"
        return None, audit
    monomials = _PROJECTIVE.monomials(f.nvars, plan.degree)
    poly = _kernel_poly(plan.field, monomials, [p.coords for p in xi_s])
    audit["status"] = "ok" if poly is not None else "full_rank"
    return poly, audit


def cover_pipeline(f: MultiPoly, H: int, params: CoverParams | None = None) -> CoverResult:
    """Cover every height-<=H rational point of the plane curve by
    low-degree auxiliary forms.

    Low multiplicity means below d / log H at a prime of norm in
    (log H, M (log H)^4); the everywhere-high-multiplicity points get one
    form of degree floor(N log H), clamped to [1, d-1].  The result records
    class data, verifies the cover pointwise, and reports the count
    against (log H)^12.
    """
    params = params or CoverParams()
    if f.is_zero or f.nvars != 3 or not f.is_homogeneous:
        raise ValueError("pipeline expects a nonzero homogeneous 3-variable polynomial")
    if f.degree < 2:
        raise NotApplicable("degree must be >= 2 so that degree d-1 forms exist")
    regime = regime_check(f.degree, H)
    points = enum_curve_points_proj(f, H, EnumOptions(collect=True, budget=params.budget)).points
    d_prime = int(params.N * math.log(H))
    return _cover(_plan(f, H, _PROJECTIVE, regime, points, params.M, None, d_prime))


# ---------------------------------------------------------------------------
# the affine hypersurface variant
# ---------------------------------------------------------------------------


@record(frozen=True)
class AffineCoverParams:
    M: float = 4.0
    a: float = EMU_A_BASELINE
    budget: int = 50_000_000
    primes: tuple[PrimeIdealDesc, ...] | None = None

    def __post_init__(self):
        _require_finite(self, "M", "a")


def cover_pipeline_affine(
    f: MultiPoly, B: int, params: AffineCoverParams | None = None
) -> CoverResult:
    """Covering pipeline for an affine hypersurface over O_K.

    Multiplicities are taken at the reduced affine points; low
    multiplicity means below d/log B at a prime of norm in
    (log B, M (log B)^4), or at the supplied primes, which must all have
    good reduction.  Interpolation uses all monomials of degree < d
    (equivalently, homogeneous degree d-1 forms after prepending a
    homogenizing coordinate), and the residual
    everywhere-high-multiplicity set gets a single form of degree
    floor((log B)^2), clamped to [1, d-1].  The valuation monitor exponent
    for the homogenized certificates is recorded per class, never asserted.
    """
    params = params or AffineCoverParams()
    if f.is_zero or f.nvars < 2:
        raise ValueError("pipeline expects a nonzero polynomial in >= 2 variables")
    n, d = f.nvars, f.degree
    if d < 2:
        raise NotApplicable(
            "degree must be >= 2: degree d-1 = 0 leaves only constant forms"
        )
    regime = regime_check(d, B, "AffinePila")
    points = enum_affine_hypersurface(f, B, EnumOptions(collect=True, budget=params.budget)).points
    plan = _plan(f, B, _AFFINE, regime, points, params.M, params.primes, int(math.log(B) ** 2))
    for prime in params.primes or ():
        if prime not in plan.good:
            raise PipelineError(f"supplied prime {prime.generator} has bad reduction")
    if not plan.good:
        raise PipelineError("no usable primes in the requested window")

    result = _cover(plan)
    s = len(monomials_up_to_degree(n, d - 1))
    result.counts["monitors"] = [
        {
            "prime": str(c.prime.generator),
            "mu": c.mu,
            "class_size": c.class_size,
            "valuation_monitor_rhs": (math.factorial(n - 1) / c.mu) ** (1.0 / (n - 1))
            * (n - 1)
            / n
            * s ** (1.0 + 1.0 / (n - 1))
            - params.a * s,
        }
        for c in result.classes
    ]
    return result
