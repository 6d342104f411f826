"""Command line interface.

Subcommands: count, mult, highmult, cover, detcert, experiment.
All output is JSON on stdout (CSV to --out for experiments), so results
can be piped into other tools.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra.multipoly import poly_parse
from .algebra.primes import PrimeIdealDesc
from .baselines import EMU_A_BASELINE
from .detmethod import (
    AffineCoverParams,
    CoverParams,
    cover_pipeline,
    cover_pipeline_affine,
    interp_det_certificate,
    monomial_basis,
)
from .enumeration import PointQuery, enum_curve_points_proj, run_query
from .globalfield import GlobalField, primitive_normalize, reduce_point_mod_p
from .harness import run_experiment
from .reduction import high_mult_locus, is_projective_point, mult_at_point, reduce_curve_mod_p


class UsageError(Exception):
    """A refused combination of flags: exits 2 like argparse's own refusals."""


def _parse_field(value: str) -> GlobalField:
    return GlobalField.parse(value)


def _ring_element(field: GlobalField, text: str):
    """An element of O_K from its text, read as a constant polynomial in one
    variable over O_K: an integer over Q, a polynomial in t over F_q(t)."""
    dom = field.integer_domain()
    f = poly_parse(text, 1, dom)
    if not f.is_constant:
        raise ValueError(f"{text!r} is not an element of {dom.describe()}")
    return f.coefficient((0,))


def _prime_for(field: GlobalField, text: str) -> PrimeIdealDesc:
    gen = _ring_element(field, text)
    return PrimeIdealDesc(gen, field.size(gen))


def _parse_point(field: GlobalField, text: str) -> tuple:
    return tuple(_ring_element(field, s.strip()) for s in text.split(","))


def cmd_count(args) -> dict:
    field = _parse_field(args.field)
    t0 = time.perf_counter()
    if args.projective:
        if args.box is not None:
            raise UsageError("--box bounds an affine count; a projective count takes --height")
        if args.sieve:
            raise UsageError("--sieve applies to affine counts only")
        bound = 10 if args.height is None else args.height
    else:
        if args.height is not None:
            raise UsageError("--height bounds a projective count; an affine count takes --box")
        if not args.poly:
            raise UsageError("affine counting requires --poly")
        bound = 10 if args.box is None else args.box
    sieve = tuple(_prime_for(field, s) for s in args.sieve.split(",")) if args.sieve else None
    f = None
    if args.poly:
        # a projective polynomial is a plane curve
        f = poly_parse(args.poly, 3 if args.projective else args.nvars, field.integer_domain())
    ambient = "projective" if args.projective else "affine"
    mode = "collect" if args.collect else "count"
    nvars = args.nvars if f is None else f.nvars
    result = run_query(PointQuery(field, ambient, nvars, f, bound, mode, sieve, args.budget))
    payload = {
        "count": result.count,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
        "sieve_rejections": result.sieve_rejections,
    }
    if args.collect and result.points is not None:
        if args.projective:
            payload["points"] = [p.coord_strings() for p in result.points]
        else:
            payload["points"] = [[str(c) for c in p] for p in result.points]
    return payload


def cmd_mult(args) -> dict:
    field = _parse_field(args.field)
    f = poly_parse(args.poly, args.nvars, field.integer_domain())
    point = _parse_point(field, args.point)
    if args.prime:
        prime = _prime_for(field, args.prime)
        reduced = reduce_curve_mod_p(f, prime)
        # an affine point reduces coordinatewise, as the affine cover's chart does
        if projective := is_projective_point(f, point):
            rp = reduce_point_mod_p(primitive_normalize(field, point), prime)
            coords, shown = rp.coords, str(rp)
        else:
            coords = tuple(map(prime.residue, point))
            shown = "(" + ", ".join(map(str, coords)) + ")"
        report = mult_at_point(reduced.f_p, coords, projective)
        return {
            "mu": report.mu,
            "point": shown,
            "prime": str(prime.generator),
            "reduced_degree": reduced.reduced_degree,
            "good": reduced.good,
        }
    report = mult_at_point(f, point)
    return {"mu": report.mu, "point": args.point, "context": report.context}


def cmd_highmult(args) -> dict:
    field = _parse_field(args.field)
    f = poly_parse(args.poly, args.nvars, field.integer_domain())
    prime = _prime_for(field, args.prime)
    reduced = reduce_curve_mod_p(f, prime)
    if not reduced.good:
        return {"error": "degenerate reduction; skip this prime"}
    locus = high_mult_locus(reduced.f_p, args.k, args.cap, strict=not args.nonstrict)
    dom = reduced.f_p.domain
    return {
        "kind": locus.kind,
        "locus_points": [
            "(" + " : ".join(dom.to_str(c) for c in pt) + ")" for pt in locus.locus
        ],
        "degree": locus.degree,
        "poly": str(locus.poly) if locus.poly is not None else None,
        "threshold": float(locus.threshold),
    }


def cmd_cover(args) -> dict:
    field = _parse_field(args.field)
    # each variant takes its own flag; an unset one keeps its params' default
    tuned = {name: value for name, value in (("N", args.N), ("a", args.a)) if value is not None}
    if args.affine:
        if "N" in tuned:
            raise UsageError("--N applies to projective covers only")
        f = poly_parse(args.poly, args.nvars, field.integer_domain())
        result = cover_pipeline_affine(f, args.height, AffineCoverParams(M=args.M, **tuned))
    else:
        if "a" in tuned:
            raise UsageError("--a applies to affine covers only")
        f = poly_parse(args.poly, 3, field.integer_domain())
        result = cover_pipeline(f, args.height, CoverParams(M=args.M, **tuned))
    payload = result.to_json_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        return {"written": args.out, "uncovered": len(result.uncovered)}
    return payload


def cmd_detcert(args) -> dict:
    field = _parse_field(args.field)
    f = poly_parse(args.poly, 3, field.integer_domain())
    prime = _prime_for(field, args.prime)
    residue_target = _parse_point(field, args.residue)
    d = f.degree
    degree = args.degree if args.degree is not None else d - 1
    basis = monomial_basis(3, degree)
    points = enum_curve_points_proj(f, args.height).points
    reduced = reduce_curve_mod_p(f, prime)
    target = reduce_point_mod_p(primitive_normalize(field, residue_target), prime)
    klass = [p for p in points if reduce_point_mod_p(p, prime) == target]
    if len(klass) < basis.s:
        return {
            "error": f"residue class has {len(klass)} points but s = {basis.s} are needed",
            "class_size": len(klass),
            "s": basis.s,
        }
    mu = mult_at_point(reduced.f_p, target.coords).mu
    cert = interp_det_certificate(klass[: basis.s], degree, prime, mu, a=args.a)
    return cert.to_json_dict()


def cmd_experiment(args) -> dict:
    with open(args.config) as fh:
        config = json.load(fh)
    reports, csv_text = run_experiment(config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    summary = {
        "rows": sum(len(r.rows) for r in reports),
        "reports": [
            {
                "family": r.family,
                "field": r.field,
                "d": r.d,
                "fitted_exponent": r.fitted_exponent,
            }
            for r in reports
        ],
    }
    if args.out:
        summary["written"] = args.out
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratgrowth",
        description="Exact counting of bounded-height rational points and the "
        "interpolation-determinant covering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count bounded-height points")
    p.add_argument("--field", default="Q")
    ambient = p.add_mutually_exclusive_group()
    ambient.add_argument("--projective", action="store_true")
    ambient.add_argument("--affine", action="store_true", help="the default")
    p.add_argument("--poly", default=None)
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--height", type=int, default=None, help="projective height bound (default 10)")
    p.add_argument("--box", type=int, default=None, help="affine box bound (default 10)")
    p.add_argument("--collect", action="store_true")
    p.add_argument("--sieve", default=None, help="comma-separated primes")
    p.add_argument("--budget", type=int, default=50_000_000)
    p.set_defaults(func=cmd_count, usage_error=p.error)

    p = sub.add_parser("mult", help="multiplicity of a point")
    p.add_argument("--field", default="Q")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--point", required=True, help='comma separated, e.g. "0,0,1"')
    p.add_argument("--prime", default=None)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("highmult", help="high-multiplicity locus capture")
    p.add_argument("--field", default="Q")
    p.add_argument("--poly", required=True)
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--prime", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--cap", type=int, default=12)
    strictness = p.add_mutually_exclusive_group()
    strictness.add_argument("--strict", action="store_true", help="the default")
    strictness.add_argument("--nonstrict", action="store_true")
    p.set_defaults(func=cmd_highmult)

    p = sub.add_parser("cover", help="run the covering pipeline")
    p.add_argument("--field", default="Q")
    p.add_argument("--poly", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--affine", action="store_true")
    p.add_argument("--nvars", type=int, default=3)
    p.add_argument("--M", type=float, default=4.0)
    p.add_argument("--N", type=float, default=None, help=f"projective covers only (default {CoverParams.N})")
    p.add_argument("--a", type=float, default=None, help=f"affine covers only (default {EMU_A_BASELINE})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cover, usage_error=p.error)

    p = sub.add_parser("detcert", help="interpolation determinant certificate")
    p.add_argument("--field", default="Q")
    p.add_argument("--poly", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--residue", required=True, help='integer point, e.g. "1,0,0"')
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--a", type=float, default=EMU_A_BASELINE)
    p.set_defaults(func=cmd_detcert)

    p = sub.add_parser("experiment", help="run a configured experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except UsageError as exc:
        args.usage_error(str(exc))
    except Exception as exc:  # structured errors for scripting
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return 1
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
