"""The benchmark's three workloads: their seeded inputs, the calls each
operation makes into ratgrowth, and the independent check of each output.

Importing this module imports ratgrowth; together with ``build`` that is
the set-up the ``setup_s`` metric times.  Operations call the package
through module attributes (``detmethod.cover_pipeline``, ...) at call
time, so a traced round sees the tracer's wrappers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref
from ratgrowth import corpus, detmethod, enumeration, globalfield, harness, reduction
from ratgrowth.algebra.multipoly import poly_parse
from ratgrowth.algebra.primes import PrimeIdealDesc
from ratgrowth.baselines import EMU_A_BASELINE

Q = globalfield.GlobalField.rationals()
F2 = globalfield.GlobalField.function_field(2)
F3 = globalfield.GlobalField.function_field(3)

CUBIC = "x0^3+x1^3-2*x2^3+x0*x1*x2"
ARRANGEMENT_Q = "x0*x1*x2*(x0-x1)*(x1-x2)*(x0-x2)"
# five of the six lines: two triple points and four double points, so
# 5 #P^1 - 8 points; the sixth line doubles the cost of each round
ARRANGEMENT_F2 = "x0*x1*x2*(x0+x1)*(x1+x2)"
CONIC = "x0*x2 - x1^2"
QUADRIC = "x0^2+x1^2-x2^2"
# the degree-9 product of tests/test_detmethod.py without its last factor
# x2 - 1, which halves the cost and keeps classes of up to 32 points
DEGREE8_FACTORS = (
    "x0^2 + x1^2 - 2",
    "x0 - x2",
    "x1*x2 - 1",
    "x0^2 + x1^2 + x2^2 - 3",
    "x0 + x1 + x2",
)
# the regime's cap on the number of forms, c (log H)^kappa, at the defaults
COVER_C, COVER_KAPPA = 1.0, 12


class Mismatch(AssertionError):
    """An output disagrees with its independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], object]
    fault: str | None = None  # the known defect this operation runs into


# ---------------------------------------------------------------------------
# seeded input variations that keep the cost of an input
# ---------------------------------------------------------------------------


def signed_permutation(text: str, rng: random.Random, signs: bool = True, permute: bool = True) -> str:
    """Substitute x_i -> +-x_sigma(i).  Heights are invariant, so point
    counts and enumeration cost stay those of the original input.  Covers
    take signs only: a permutation reorders the monomial columns of their
    kernels, and with them the pivots and the cost of the elimination."""
    perm = list(range(3))
    if permute:
        rng.shuffle(perm)
    sign = [rng.choice("+-") if signs else "+" for _ in range(3)]
    return re.sub(r"x([0-2])", lambda m: f"({sign[int(m[1])]}x{perm[int(m[1])]})", text)


def diagonal_cubic(rng: random.Random, q: int | None = None) -> tuple[int, int, int, int]:
    """Coefficients (a, b, c, e) of a x0^3 + b x1^3 + c x2^3 + e x0 x1 x2.

    Over Q, e in {1, 2} and |abc| >= 1 keep e^3 != -27abc, so the cubic is
    never the reducible member of its Hesse pencil.
    """
    if q is None:
        return (rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 2, 3)) * rng.choice((1, -1)),
                rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 2)))
    return tuple(rng.randrange(1, q) for _ in range(4))


def cubic_text(a, b, c, e) -> str:
    return f"{a:+d}*x0^3{b:+d}*x1^3{c:+d}*x2^3{e:+d}*x0*x1*x2"


# ---------------------------------------------------------------------------
# conversions to the reference representation
# ---------------------------------------------------------------------------


def int_terms(f) -> list:
    return [(e, int(c)) for e, c in f.terms.items()]


def fq_terms(f) -> list:
    return [(e, c.coeffs) for e, c in f.terms.items()]


def form_degree(terms) -> int:
    return max(sum(e) for e, _ in terms)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_proj_points(points, f, H: int, expected: int | None) -> None:
    """Each point lies on f = 0, is the primitive normalized representative,
    has height <= H and appears once; their number is `expected`."""
    if f.domain.kind == "integers":
        terms = int_terms(f)
        for p in points:
            expect(ref.normalize_q(p.coords) == p.coords, f"{p} is not primitive and normalized")
            expect(p.height == max(abs(c) for c in p.coords) <= H, f"{p} has the wrong height")
            expect(ref.eval_int(terms, p.coords) == 0, f"{p} is not on the curve")
        seen = {p.coords for p in points}
    else:
        q, terms = f.domain.q, fq_terms(f)
        seen = set()
        for p in points:
            coords = tuple(c.coeffs for c in p.coords)
            expect(ref.normalize_fq(coords, q) == coords, f"{p} is not primitive and normalized")
            expect(p.height == q ** max(len(c) - 1 for c in coords) <= H, f"{p} has the wrong height")
            expect(ref.fq_eval(terms, coords, q) == (), f"{p} is not on the curve")
            seen.add(coords)
    expect(len(seen) == len(points), "a point is listed twice")
    if expected is not None:
        expect(len(points) == expected, f"{len(points)} points, expected {expected}")


def check_cover(out, reference_points, d: int, H: int) -> None:
    """Every reference point is a zero of a returned form, every form is
    nonzero of degree <= d - 1, and in regime there are few forms."""
    result, payload = out
    expect(payload["uncovered"] == [], "the pipeline reports uncovered points")
    expect(result.counts["points"] == len(reference_points),
           f"{result.counts['points']} points covered, the box holds {len(reference_points)}")
    expect(payload["counts"]["aux"] == len(result.aux_polys), "aux count disagrees with the forms")
    function_field = result.curve.domain.kind == "poly_ring"
    q = result.curve.domain.q
    forms = []
    for poly, _ in result.aux_polys:
        terms = fq_terms(poly) if function_field else int_terms(poly)
        expect(bool(terms), "a returned form is zero")
        expect(form_degree(terms) <= d - 1, "a returned form has degree >= d")
        forms.append(terms)
    if result.regime.ok:
        expect(len(forms) <= COVER_C * math.log(H) ** COVER_KAPPA, "too many forms for the regime")
    for pt in reference_points:
        if function_field:
            hit = any(ref.fq_eval(t, pt, q) == () for t in forms)
        else:
            hit = any(ref.eval_int(t, pt) == 0 for t in forms)
        expect(hit, f"{pt} is a zero of no returned form")


def point_digest(result):
    if result.points is None:
        return result.count
    rows = []
    for p in result.points:
        coords = p.coords if hasattr(p, "coords") else p
        rows.append(tuple(c if isinstance(c, int) else c.coeffs for c in coords))
    return result.count, tuple(rows)


def cover_digest(out):
    return json.dumps(out[1], sort_keys=True, default=str)


def csv_digest(out):
    """The experiment CSV without its elapsed_ms column."""
    rows = list(csv.reader(io.StringIO(out[1])))
    drop = rows[0].index("elapsed_ms")
    return tuple(tuple(v for i, v in enumerate(r) if i != drop) for r in rows)


# ---------------------------------------------------------------------------
# operation builders
# ---------------------------------------------------------------------------


def query_op(name, field, f, H, mode="collect", ambient="projective", sieve=None, expected=None, check=None):
    nvars = 3 if f is None else f.nvars
    query = enumeration.PointQuery(field, ambient, nvars, f, H, mode, sieve)

    def default_check(res):
        if res.points is None:
            expect(res.count == expected(), f"count {res.count}, expected {expected()}")
        else:
            check_proj_points(res.points, f, H, expected())

    return Op(name, lambda: enumeration.run_query(query), check or default_check, point_digest)


def cover_op(name, f, H, reference_points, affine_params=None):
    def call():
        if affine_params is not None:
            result = detmethod.cover_pipeline_affine(f, H, affine_params)
        else:
            result = detmethod.cover_pipeline(f, H)
        return result, result.to_json_dict()

    return Op(name, call, lambda out: check_cover(out, reference_points(), f.degree, H), cover_digest)


def once(fn):
    """Compute a reference value on first use only (checks run once a run)."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def family_fault_op(name, d, H, field, expected, fault):
    return Op(
        name,
        lambda: harness.family_count(harness.CUSPIDAL_FAMILY, d, H, field),
        lambda got: expect(got == expected, f"family_count gave {got}, expected {expected}"),
        lambda got: got,
        fault=fault,
    )


def build_count_q(seed: int) -> list[Op]:
    rng = random.Random(seed)
    zz = Q.integer_domain()
    a, b, c, e = diagonal_cubic(rng)
    cubic = poly_parse(cubic_text(a, b, c, e), 3, zz)
    cubic_top = 50
    cubic_points = once(lambda: ref.diagonal_cubic_points_q(a, b, c, e, cubic_top))
    ops = []
    for H in (20, 35, cubic_top):
        ops.append(query_op(f"cubic_H{H}", Q, cubic, H,
                            expected=lambda H=H: sum(1 for p in cubic_points() if max(map(abs, p)) <= H)))
    conic = poly_parse(signed_permutation(CONIC, rng), 3, zz)
    ops.append(query_op("conic_H40", Q, conic, 40, expected=lambda: ref.p1_count_q(math.isqrt(40))))
    sextic = poly_parse(signed_permutation(ARRANGEMENT_Q, rng), 3, zz)
    ops.append(query_op("sextic_H30", Q, sextic, 30, expected=lambda: 6 * ref.p1_count_q(30) - 11))
    ops.append(query_op("p2_count_H25", Q, None, 25, mode="count", expected=lambda: ref.p2_count_q(25)))

    # signs do not change squares; the permutation picks the negated variable
    quadric = poly_parse(signed_permutation(QUADRIC, rng, signs=False), 3, zz)
    box = 25
    quadric_points = once(lambda: ref.brute_affine_q(int_terms(quadric), 3, box))

    def quadric_check(res, sieved):
        expect(set(res.points) == quadric_points() and len(res.points) == len(quadric_points()),
               "affine zero set differs from the brute-force scan")
        expect((res.sieve_rejections > 0) == sieved, "unexpected sieve rejection count")

    sieve = (PrimeIdealDesc(3, 3), PrimeIdealDesc(5, 5))
    ops.append(query_op("quadric_B25", Q, quadric, box, ambient="affine",
                        check=lambda r: quadric_check(r, False)))
    ops.append(query_op("quadric_B25_sieve35", Q, quadric, box, ambient="affine", sieve=sieve,
                        check=lambda r: quadric_check(r, True)))

    heights = [10**k + rng.randrange(10 ** (k - 1)) for k in range(2, 7)]
    config = {
        "families": [{"name": "cuspidal_monomial"}],
        "fields": ["Q"],
        "degrees": [3, 4, 5],
        "heights": heights,
    }

    def sweep_check(out):
        rows = list(csv.DictReader(io.StringIO(out[1])))
        expect(len(rows) == 3 * len(heights), "wrong number of experiment rows")
        for row in rows:
            d, H = int(row["d"]), int(row["H"])
            want = ref.p1_count_q(ref.iroot(H, d))
            expect(row["status"] == "ok" and int(row["count"]) == want,
                   f"d={d} H={H}: count {row['count']}, expected {want}")

    ops.append(Op("cuspidal_sweep_Q", lambda: harness.run_experiment(config), sweep_check, csv_digest))
    ops.append(family_fault_op("fault_b_family_count_Q_d200", 200, 10**400, Q,
                               ref.p1_count_q(ref.iroot(10**400, 200)),
                               "OverflowError in harness._integer_nth_root for H >~ 10^308"))
    return ops


def capture_slice(rng: random.Random, strata: int = 6, max_degree: int = 14):
    """One fixture from each of `strata` bands of the capture_plane_corpus
    fixtures of degree <= max_degree, banded by the scan size
    (p^2 + p + 1) * (number of degree-D monomials).  Above degree 14 a
    single fixture costs up to 1.2 s, so a seeded pick among those would
    move the workload's time with the seed."""
    fixtures = []
    for cyc, k in corpus.capture_plane_corpus():
        p, D = cyc.domain.p, cyc.degree
        if D <= max_degree:
            fixtures.append(((p * p + p + 1) * (D + 1) * (D + 2) // 2, cyc, k))
    fixtures.sort(key=lambda item: item[0])
    band = len(fixtures) / strata
    return [fixtures[int(i * band) + rng.randrange(int(band))][1:] for i in range(strata)]


def check_locus(got, cyc, k, cap) -> None:
    """The locus equals the points where the components through them add
    up to multiplicity > D/k (lines and smooth conics have multiplicity 1
    at each of their points), and the form vanishes on it."""
    p = cyc.domain.p
    comps = [(int_terms(poly), n) for poly, n in cyc.components]
    threshold = Fraction(cyc.degree) / Fraction(k)
    want = {pt for pt in ref.proj_points_fp(p)
            if sum(n for terms, n in comps if ref.eval_mod_p(terms, pt, p) == 0) > threshold}
    expect(set(got.locus) == want and len(got.locus) == len(want), "high-multiplicity locus differs")
    if not want:
        expect(got.kind == "empty", f"kind {got.kind} for an empty locus")
        return
    expect(got.kind == "ok", f"kind {got.kind} for a nonempty locus")
    terms = int_terms(got.poly)
    expect(bool(terms) and form_degree(terms) <= cap, "locus form is zero or above the cap")
    expect(all(ref.eval_mod_p(terms, pt, p) == 0 for pt in want), "locus form does not vanish on the locus")


def build_cover_q(seed: int) -> list[Op]:
    rng = random.Random(seed)
    zz = Q.integer_domain()
    ops = []
    for name in ("curve_d26_H20_Q", "curve_d30_H20_Q", "fermat_d26_H20_Q"):
        f, H = corpus.cover_fixture_poly(name)
        ops.append(cover_op(name, f, H, once(lambda f=f, H=H: ref.brute_points_q(int_terms(f), H))))

    sextic = poly_parse(signed_permutation(ARRANGEMENT_Q, rng, permute=False), 3, zz)
    ops.append(cover_op("sextic_cover_H6", sextic, 6, once(lambda: ref.brute_points_q(int_terms(sextic), 6))))

    deg8 = poly_parse(signed_permutation("*".join(f"({t})" for t in DEGREE8_FACTORS), rng, permute=False), 3, zz)
    ops.append(cover_op("affine_deg8_cover_B3", deg8, 3,
                        once(lambda: ref.brute_affine_q(int_terms(deg8), 3, 3)),
                        affine_params=detmethod.AffineCoverParams()))

    certificates = corpus.certificate_corpus()

    def run_certificates():
        out = []
        for curve, prime, pts, d in certificates:
            reduced = reduction.reduce_curve_mod_p(curve, prime)
            rp = globalfield.reduce_point_mod_p(pts[0], prime)
            mu = reduction.mult_at_point(reduced.f_p, rp.coords).mu
            out.append(detmethod.interp_det_certificate(pts, d - 1, prime, mu))
        return out

    def check_certificates(certs):
        expect(len(certs) == len(certificates), "missing certificates")
        for cert, (_, prime, pts, d) in zip(certs, certificates):
            monos = [(i, j, d - 1 - i - j) for i in range(d) for j in range(d - i)]
            det = ref.det_bareiss([[ref.eval_int([(m, 1)], p.coords) for m in monos] for p in pts])
            expect(cert.s == len(monos) and cert.det_norm == abs(det), "determinant differs")
            if det == 0:
                expect(cert.verdict == "VanishesIdentically", "zero determinant not flagged")
                continue
            v = ref.ord_p(det, prime.generator)
            s, mu = cert.s, cert.mu
            expect(cert.valuation == v, f"valuation {cert.valuation}, expected {v}")
            expect(v >= s * s / (2 * mu) - EMU_A_BASELINE * s, f"valuation {v} below s^2/(2mu) - a s")

    ops.append(Op("certificates_36", run_certificates, check_certificates,
                  lambda certs: tuple(json.dumps(c.to_json_dict(), sort_keys=True) for c in certs)))

    for i, (cyc, k) in enumerate(capture_slice(rng)):
        f_p = cyc.expanded()
        cap = max(int(4 * k) + 4, 8)
        ops.append(Op(
            f"high_mult_locus_{i}",
            lambda f_p=f_p, k=k, cap=cap: reduction.high_mult_locus(f_p, k, cap),
            lambda got, cyc=cyc, k=k, cap=cap: check_locus(got, cyc, k, cap),
            lambda got: (got.kind, got.degree, str(got.poly), got.locus),
        ))
    return ops


def build_funcfield(seed: int) -> list[Op]:
    rng = random.Random(seed)
    f2, f3 = F2.integer_domain(), F3.integer_domain()
    ops = []
    # the cuspidal curve of the F_2(t) acceptance fixture at degree 22 and
    # H = 8, still in regime: FqPoly and FqRational operands of degree up to ~66
    cuspidal = poly_parse("x1*x0^21 - x2^22", 3, f2)
    ops.append(cover_op("cuspidal_d22_H8_F2t", cuspidal, 8,
                        once(lambda: ref.brute_points_fq(fq_terms(cuspidal), 2, 8))))
    arrangement = poly_parse(ARRANGEMENT_F2, 3, f2)

    def arrangement_points():
        pts = ref.brute_points_fq(fq_terms(arrangement), 2, 4)
        expect(len(pts) == 5 * ref.pn_count_fq(2, 1, 2) - 8, "box scan disagrees with 5 #P^1 - 8")
        return pts

    ops.append(cover_op("arrangement_cover_F2_H4", arrangement, 4, once(arrangement_points)))

    cubic2 = poly_parse(CUBIC, 3, f2)
    ops.append(query_op("cubic_F2_H16", F2, cubic2, 16,
                        expected=once(lambda: len(ref.brute_points_fq(fq_terms(cubic2), 2, 16)))))
    cubic3 = poly_parse(cubic_text(*diagonal_cubic(rng, 3)), 3, f3)
    ops.append(query_op("cubic_F3_H9", F3, cubic3, 9,
                        expected=once(lambda: len(ref.brute_points_fq(fq_terms(cubic3), 3, 9)))))
    ops.append(query_op("p2_count_F2_H8", F2, None, 8, mode="count",
                        expected=lambda: ref.pn_count_fq(2, 2, ref.ilog(2, 8))))
    ops.append(family_fault_op("fault_a_family_count_F3_d5", 5, 3**5, F3,
                               ref.pn_count_fq(3, 1, ref.ilog(3, 3**5) // 5),
                               "float floor(log(H, q) / d) in harness.family_count"))
    return ops


WORKLOADS = {
    "count-Q": build_count_q,
    "cover-Q": build_cover_q,
    "funcfield": build_funcfield,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
