"""Bound evaluation and exponent-fitting experiments.

Evaluates the counting bounds for each theorem family, fits log-log
slopes of measured counts against height, and emits deterministic
CSV reports.  Counts come either from direct enumeration or, for
the shipped parametrizable family, from pulling the count back to P^1.
"""

from __future__ import annotations

import csv
import io
import math
import time

from .algebra.multipoly import MultiPoly, poly_parse
from .detmethod import float_power, regime_check
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumOptions,
    enum_curve_points_proj,
    enum_proj_points,
)
from .globalfield import GlobalField
from .records import record

THEOREMS = (
    "Curve",
    "AffineCurve",
    "AffineHypersurface",
    "DimGrowthProj",
    "DimGrowthAff",
    "PilaK",
)


@record(frozen=True)
class BoundSpec:
    """Which counting bound to evaluate, with its constants."""

    theorem: str
    c: float = 1.0
    kappa: int = 12
    d_K: int = 1

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem family {self.theorem!r}")


class UnsupportedBound(ValueError):
    pass


def bound_value(spec: BoundSpec, d: int, H: float, n: int = 2) -> float:
    """The literal bound formula value; pure arithmetic.

    n is the ambient dimension (P^n or A^n); hypersurfaces there have
    dim X = n - 1.  Degree-3 dimension-growth uses the 2/sqrt(3) branch;
    d <= 2 is unsupported for the dimension-growth families.
    """
    if H <= 2 or d < 1:
        raise ValueError("need H > 2 and d >= 1")
    log_pow = math.log(H) ** spec.kappa
    dim_x = n - 1
    t = spec.theorem
    if t == "Curve":
        return spec.c * d * d * float_power(H, 2.0 * spec.d_K / d) * log_pow
    if t == "AffineCurve":
        return spec.c * d * d * float_power(H, 1.0 / d) * log_pow
    if t == "AffineHypersurface":
        return spec.c * d * d * float_power(H, n - 2 + 1.0 / d) * log_pow
    if t == "DimGrowthProj":
        if d >= 4:
            return spec.c * d * d * float_power(H, spec.d_K * dim_x) * log_pow
        if d == 3:
            return spec.c * float_power(H, spec.d_K * (dim_x - 1 + 2.0 / math.sqrt(3.0))) * log_pow
        raise UnsupportedBound(f"DimGrowthProj needs d >= 3, got {d}")
    if t == "DimGrowthAff":
        if d >= 4:
            return spec.c * d * d * float_power(H, dim_x - 1) * log_pow
        if d == 3:
            return spec.c * float_power(H, dim_x - 2 + 2.0 / math.sqrt(3.0)) * log_pow
        raise UnsupportedBound(f"DimGrowthAff needs d >= 3, got {d}")
    if t == "PilaK":
        return spec.c * d * d * float_power(H, dim_x - 1 + 1.0 / d) * log_pow
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@record(frozen=True)
class FamilySpec:
    """A family of plane curves indexed by the degree d.

    The template is polynomial text with "{d}" and "{d1}" placeholders
    (d1 = d - 1).
    """

    name: str
    template: str

    def polynomial(self, d: int, field: GlobalField) -> MultiPoly:
        text = self.template.replace("{d1}", str(d - 1)).replace("{d}", str(d))
        return poly_parse(text, 3, field.integer_domain())


CUSPIDAL_FAMILY = FamilySpec("cuspidal_monomial", "x1*x0^{d1} - x2^{d}")
LINE_FAMILY = FamilySpec("projective_line", "x2")

_BUILTIN_FAMILIES = {f.name: f for f in (CUSPIDAL_FAMILY, LINE_FAMILY)}


def _integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) exactly, by integer Newton steps from above."""
    if x < 0 or n < 1:
        raise ValueError
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) > x^(1/n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def count_p1_points(field: GlobalField, H: int, budget: int = DEFAULT_BUDGET) -> int:
    """#P^1(K, H) from the count mode of `enum_proj_points`, which counts
    without enumerating."""
    return enum_proj_points(1, H, field, EnumOptions(collect=False, budget=budget)).count


def family_count(
    family: FamilySpec, d: int, H: int, field: GlobalField, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of height-<=H points on the degree-d family member.

    The two built-in families pull the count back to P^1: the cuspidal
    monomial curve x1*x0^(d-1) - x2^d has height exactly (P^1 height)^d
    along its parametrization (s : t) -> (s^d : t^d : s^(d-1) t), and the
    line is a copy of P^1.  Every other family is enumerated.  The budget
    bounds either count.
    """
    if family == LINE_FAMILY:
        return count_p1_points(field, H, budget)
    if family == CUSPIDAL_FAMILY:
        # heights are integers, so H(s : t)^d <= H iff H(s : t) <= floor(H^(1/d))
        return count_p1_points(field, max(_integer_nth_root(H, d), 1), budget)
    poly = family.polynomial(d, field)
    return enum_curve_points_proj(poly, H, EnumOptions(collect=False, budget=budget)).count


@record(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    degenerate: bool


def ols_loglog(hs, counts) -> FitResult:
    """Ordinary least squares of log(count) against log(H)."""
    if len(hs) != len(counts) or len(hs) < 2:
        raise ValueError("need matching lists with at least 2 entries")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive for a log-log fit")
    xs = [math.log(h) for h in hs]
    ys = [math.log(c) for c in counts]
    if len(set(ys)) == 1:
        return FitResult(0.0, ys[0], tuple(0.0 for _ in ys), True)
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple(y - (intercept + slope * x) for x, y in zip(xs, ys))
    return FitResult(slope, intercept, residuals, False)


def exponent_fit(
    family: FamilySpec, d: int, H_list, field: GlobalField | None = None
) -> FitResult:
    """Fit the log-log growth exponent of the family's counts; the target
    slope for the shipped family is 2 d_K / d."""
    field = field or GlobalField.rationals()
    if len(H_list) < 4:
        raise ValueError("need at least 4 height values")
    counts = [family_count(family, d, H, field) for H in H_list]
    if any(c <= 0 for c in counts):
        raise ValueError("family produced an empty count; cannot fit")
    return ols_loglog(list(H_list), counts)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "family",
    "field",
    "d",
    "H",
    "count",
    "bound",
    "ratio",
    "regime_ok",
    "elapsed_ms",
    "status",
)


@record
class ExperimentRow:
    family: str
    field: str
    d: int
    H: int
    count: int | None
    bound: float
    ratio: float | None
    regime_ok: bool
    elapsed_ms: float
    status: str = "ok"


@record
class ExperimentReport:
    family: str
    field: str
    d: int
    rows: list[ExperimentRow]
    fitted_exponent: float | None


def _resolve_family(entry) -> FamilySpec:
    if isinstance(entry, FamilySpec):
        return entry
    if isinstance(entry, str):
        entry = {"name": entry}
    name = entry.get("name")
    if "template" in entry:
        return FamilySpec(name=name, template=entry["template"])
    if name in _BUILTIN_FAMILIES:
        return _BUILTIN_FAMILIES[name]
    raise ValueError(f"unknown family {name!r}")


def run_experiment(config: dict) -> tuple[list[ExperimentReport], str]:
    """Run the configured sweeps; returns (reports, csv_text).

    Config keys: families (built-in names or {name, template} entries),
    fields (descriptor strings), heights, degrees (optional, default [3]),
    bounds {theorem?, c, kappa}, budget (every family's count).  Other keys
    are ignored.  Deterministic for a fixed config.
    """
    families = [_resolve_family(e) for e in config.get("families", [])]
    fields = [GlobalField.parse(s) for s in config.get("fields", ["Q"])]
    heights = list(config.get("heights", []))
    degrees = list(config.get("degrees", [3]))
    bounds_cfg = dict(config.get("bounds", {}))
    budget = int(config.get("budget", DEFAULT_BUDGET))
    spec = BoundSpec(
        theorem=bounds_cfg.get("theorem", "Curve"),
        c=float(bounds_cfg.get("c", 1.0)),
        kappa=int(bounds_cfg.get("kappa", 12)),
    )

    def run_one(family, field, d, H) -> ExperimentRow:
        t0 = time.perf_counter()
        status = "ok"
        count: int | None = None
        try:
            count = family_count(family, d, H, field, budget=budget)
        except BudgetExceededError:
            status = "budget_exceeded"
        bound = bound_value(spec, d, H) if H > 2 else float("nan")
        regime = regime_check(d, H).ok if H > 2 else False
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        ratio = (count / bound) if (count is not None and bound > 0) else None
        return ExperimentRow(
            family=family.name,
            field=field.descriptor(),
            d=d,
            H=H,
            count=count,
            bound=bound,
            ratio=ratio,
            regime_ok=regime,
            elapsed_ms=elapsed_ms,
            status=status,
        )

    rows = [
        run_one(family, field, d, H)
        for family in families
        for field in fields
        for d in degrees
        for H in heights
    ]

    reports = []
    for family in families:
        for field in fields:
            for d in degrees:
                group = [
                    r
                    for r in rows
                    if r.family == family.name
                    and r.field == field.descriptor()
                    and r.d == d
                ]
                fitted_exponent = None
                usable = [r for r in group if r.count and r.count > 0]
                if len(usable) >= 2:
                    fit = ols_loglog([r.H for r in usable], [r.count for r in usable])
                    fitted_exponent = fit.slope
                reports.append(
                    ExperimentReport(
                        family=family.name,
                        field=field.descriptor(),
                        d=d,
                        rows=group,
                        fitted_exponent=fitted_exponent,
                    )
                )
    return reports, emit_csv(rows)


def emit_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.family,
                r.field,
                r.d,
                r.H,
                "" if r.count is None else r.count,
                repr(r.bound),
                "" if r.ratio is None else repr(r.ratio),
                int(r.regime_ok),
                repr(r.elapsed_ms),
                r.status,
            ]
        )
    return buf.getvalue()


def parse_csv(text: str) -> list[ExperimentRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    rows = []
    for rec in reader:
        rows.append(
            ExperimentRow(
                family=rec[0],
                field=rec[1],
                d=int(rec[2]),
                H=int(rec[3]),
                count=None if rec[4] == "" else int(rec[4]),
                bound=float(rec[5]),
                ratio=None if rec[6] == "" else float(rec[6]),
                regime_ok=bool(int(rec[7])),
                elapsed_ms=float(rec[8]),
                status=rec[9],
            )
        )
    return rows

