"""Self-tests of the benchmark's reference code and tracer.

    python3 perfbench/test_reference.py        (or: python3 -m pytest perfbench)

The closed forms and fast reference searches that the benchmark checks
ratgrowth against are compared here with plain brute force at tiny sizes.
"""

from __future__ import annotations

import itertools
import random
import sys
import unittest
from math import gcd, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402


def primitive_classes_q(n: int, H: int) -> set:
    """P^(n-1)(Q) of height <= H straight from the definition."""
    out = set()
    for v in itertools.product(range(-H, H + 1), repeat=n):
        if any(v):
            g = 0
            for c in v:
                g = gcd(g, c)
            if g == 1:
                out.add(ref.normalize_q(v))
    return out


def expand_linear_product(forms) -> list:
    """Terms of a product of linear forms given as coefficient triples."""
    poly = {(0, 0, 0): 1}
    for form in forms:
        nxt: dict = {}
        for exps, c in poly.items():
            for i, a in enumerate(form):
                if a:
                    e = list(exps)
                    e[i] += 1
                    nxt[tuple(e)] = nxt.get(tuple(e), 0) + a * c
        poly = {e: c for e, c in nxt.items() if c}
    return list(poly.items())


ARRANGEMENT = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)]


class ClosedForms(unittest.TestCase):
    def test_p1_count_q(self):
        for X in range(1, 13):
            self.assertEqual(ref.p1_count_q(X), len(primitive_classes_q(2, X)), X)

    def test_p2_count_q(self):
        for H in range(1, 7):
            self.assertEqual(ref.p2_count_q(H), len(primitive_classes_q(3, H)), H)

    def test_pn_count_fq(self):
        for q, n, m in [(2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 1)]:
            polys = ref.fq_polys(q, m)
            classes = {ref.normalize_fq(v, q) for v in itertools.product(polys, repeat=n + 1) if any(v)}
            self.assertEqual(ref.pn_count_fq(q, n, m), len(classes), (q, n, m))

    def test_arrangement_count_over_q(self):
        terms = expand_linear_product(ARRANGEMENT)
        for H in range(1, 7):
            self.assertEqual(len(ref.brute_points_q(terms, H)), 6 * ref.p1_count_q(H) - 11, H)

    def test_arrangement_counts_over_f2t(self):
        lines = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        for k, surplus in ((6, 11), (5, 8)):
            terms = [(e, ref.fq_trim((c,), 2)) for e, c in expand_linear_product(lines[:k])]
            terms = [(e, c) for e, c in terms if c]
            for m in range(3):
                self.assertEqual(len(ref.brute_points_fq(terms, 2, 2**m)), k * ref.pn_count_fq(2, 1, m) - surplus, (k, m))

    def test_conic_count(self):
        terms = [((1, 0, 1), 1), ((0, 2, 0), -1)]
        for H in (1, 4, 9, 10, 30):
            self.assertEqual(len(ref.brute_points_q(terms, H)), ref.p1_count_q(isqrt(H)), H)

    def test_integer_roots_and_logs(self):
        self.assertEqual(ref.iroot(10**400, 200), 100)
        for n in (2, 3, 5):
            for r in (1, 2, 7, 31):
                self.assertEqual(ref.iroot(r**n, n), r)
                self.assertEqual(ref.iroot(r**n - 1, n), r - 1)
        self.assertEqual(ref.ilog(3, 3**5), 5)
        self.assertEqual(ref.ilog(2, 15), 3)
        self.assertEqual(ref.ilog(2, 16), 4)


class Searches(unittest.TestCase):
    def test_diagonal_cubic_matches_box_scan(self):
        rng = random.Random(7)
        for _ in range(12):
            a, b, c = (rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in range(3))
            e = rng.choice((-2, -1, 0, 1, 2))
            terms = [((3, 0, 0), a), ((0, 3, 0), b), ((0, 0, 3), c), ((1, 1, 1), e)]
            for H in (3, 8):
                self.assertEqual(ref.diagonal_cubic_points_q(a, b, c, e, H), ref.brute_points_q(terms, H), (a, b, c, e, H))

    def test_box_scans_match_plain_loops(self):
        for q, H, terms in [
            (2, 4, [((3, 0, 0), (1,)), ((0, 3, 0), (1,)), ((1, 1, 1), (0, 1))]),
            (3, 3, [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1, 1)), ((1, 1, 1), (1,))]),
        ]:
            box = ref.fq_polys(q, ref.ilog(q, H))
            plain = {ref.normalize_fq(v, q) for v in itertools.product(box, repeat=3)
                     if any(v) and ref.fq_eval(terms, v, q) == ()}
            self.assertEqual(ref.brute_points_fq(terms, q, H), plain, q)
        terms = [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), -1)]
        plain = {v for v in itertools.product(range(-4, 5), repeat=3) if v[0] ** 2 + v[1] ** 2 == v[2] ** 2}
        self.assertEqual(ref.brute_affine_q(terms, 3, 4), plain)


class Arithmetic(unittest.TestCase):
    def test_fq_division_and_gcd(self):
        rng = random.Random(3)
        for q in (2, 3, 5):
            for _ in range(50):
                a = ref.fq_trim([rng.randrange(q) for _ in range(rng.randrange(8))], q)
                b = ref.fq_trim([rng.randrange(q) for _ in range(1 + rng.randrange(5))] + [1], q)
                quo, rem = ref.fq_divmod(a, b, q)
                self.assertEqual(ref.fq_add(ref.fq_mul(quo, b, q), rem, q), a)
                self.assertLess(len(rem), len(b))
                g = ref.fq_gcd(a, b, q)
                self.assertEqual(ref.fq_divmod(a, g, q)[1], ())
                self.assertEqual(ref.fq_divmod(b, g, q)[1], ())

    def test_bit_packed_f2_multiplication(self):
        rng = random.Random(5)
        for _ in range(100):
            a = ref.fq_trim([rng.randrange(2) for _ in range(rng.randrange(40))], 2)
            b = ref.fq_trim([rng.randrange(2) for _ in range(rng.randrange(40))], 2)
            packed = ref.f2_mul(ref.f2_from_tuple(a), ref.f2_from_tuple(b))
            self.assertEqual(ref.f2_to_tuple(packed), ref.fq_mul(a, b, 2))

    def test_bareiss_matches_leibniz(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for _ in range(10):
                m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.3:
                    m[-1] = list(m[0])
                leibniz = 0
                for perm in itertools.permutations(range(n)):
                    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
                    term = -1 if inversions % 2 else 1
                    for i, j in enumerate(perm):
                        term *= m[i][j]
                    leibniz += term
                self.assertEqual(ref.det_bareiss(m), leibniz)

    def test_projective_points_over_fp(self):
        for p in (2, 3, 5):
            pts = ref.proj_points_fp(p)
            self.assertEqual(len(pts), p * p + p + 1)
            self.assertEqual(len(set(pts)), len(pts))


class Tracing(unittest.TestCase):
    def test_tracer_counts_and_restores(self):
        import tracer
        from ratgrowth import detmethod, enumeration
        from ratgrowth.algebra import linalg
        from ratgrowth.algebra.domains import CoeffDomain
        from ratgrowth.algebra.multipoly import poly_parse

        f = poly_parse("x0*x2 - x1^2", 3, CoeffDomain.integers())
        plain = detmethod.cover_pipeline(f, 5).to_json_dict()
        originals = (detmethod.kernel_basis, enumeration.enum_curve_points_proj, CoeffDomain.mul)
        t = tracer.Tracer()
        t.install()
        try:
            traced = t.root("cover", lambda: detmethod.cover_pipeline(f, 5).to_json_dict())
        finally:
            t.uninstall()
        self.assertEqual(traced, plain)
        self.assertEqual((detmethod.kernel_basis, enumeration.enum_curve_points_proj, CoeffDomain.mul), originals)
        self.assertIs(linalg.kernel_basis, originals[0])
        metrics = t.metrics()
        self.assertEqual(metrics["enumeration.calls"], 1)
        self.assertEqual(metrics["enumeration.points"], plain["counts"]["points"])
        self.assertEqual(metrics["enumeration.box_cells"], 11**3)
        self.assertGreater(metrics["linalg.kernel_basis.calls"], 0)
        self.assertGreater(metrics["domains.ops.calls"], 0)
        spans = {s["id"]: s for s in t.spans}
        root = t.spans[0]
        self.assertEqual((root["name"], root["parent"]), ("op:cover", None))
        for span in t.spans[1:]:
            self.assertEqual(span["op"], root["id"])
            self.assertIn(span["parent"], spans)
            self.assertLessEqual(spans[span["parent"]]["start"], span["start"])
        kernels = [s for s in t.spans if s["name"] == "linalg.kernel_basis"]
        self.assertTrue(all(spans[s["parent"]]["name"] == "detmethod.aux_poly" for s in kernels))


if __name__ == "__main__":
    unittest.main()
