"""Independent reference arithmetic for checking the benchmark's outputs.

Nothing here imports ratgrowth.  Integers are plain Python ints; elements
of F_q[t] are coefficient tuples (low degree first, no trailing zeros,
``()`` is zero), and for q = 2 the brute-force searches switch to
bit-packed ints with carry-less multiplication.  Polynomials in several
variables are lists of ``(exponents, coefficient)`` pairs.

The closed forms used by the checks:

* ``#P^1(Q, X) = 4 * sum_{n <= X} phi(n)`` for X >= 1;
* ``#P^2(Q, H) = 1/2 * sum_d mu(d) ((2 floor(H/d) + 1)^3 - 1)``;
* over F_q(t), with ``T_n(m)`` the number of coprime (n+1)-tuples of
  polynomials of degree <= m, not all zero: every tuple of degree <= m
  factors uniquely as (monic gcd of degree k) * (coprime tuple of degree
  <= m - k), so ``q^((n+1)(m+1)) - 1 = sum_k q^k T_n(m - k)`` and
  ``#P^n(F_q(t), q^m) = T_n(m) / (q - 1)``.
"""

from __future__ import annotations

from math import gcd, isqrt


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------


def totient_table(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def mobius_table(n: int) -> list[int]:
    mu = [1] * (n + 1)
    is_comp = [False] * (n + 1)
    for p in range(2, n + 1):
        if not is_comp[p]:
            for k in range(p, n + 1, p):
                if k > p:
                    is_comp[k] = True
                mu[k] = -mu[k]
            for k in range(p * p, n + 1, p * p):
                mu[k] = 0
    return mu


def p1_count_q(X: int) -> int:
    """#P^1(Q, X)."""
    if X < 1:
        return 0
    return 4 * sum(totient_table(X)[1:])


def p2_count_q(H: int) -> int:
    """#P^2(Q, H) by Moebius inversion over the common divisor."""
    mu = mobius_table(H)
    total = sum(mu[d] * ((2 * (H // d) + 1) ** 3 - 1) for d in range(1, H + 1))
    return total // 2


def iroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, by integer bisection."""
    lo, hi = 0, 1
    while hi**n <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def ilog(q: int, H: int) -> int:
    """The largest j with q^j <= H (H >= 1)."""
    j = 0
    while q ** (j + 1) <= H:
        j += 1
    return j


def ord_p(n: int, p: int) -> int:
    n = abs(n)
    if n == 0:
        raise ValueError("ord of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def eval_int(terms, point) -> int:
    total = 0
    for exps, c in terms:
        term = c
        for x, e in zip(point, exps):
            if e:
                term *= x**e
        total += term
    return total


def normalize_q(coords) -> tuple[int, ...]:
    """Primitive representative with first nonzero coordinate positive."""
    g = 0
    for c in coords:
        g = gcd(g, c)
    out = tuple(c // g for c in coords)
    return out if next(c for c in out if c) > 0 else tuple(-c for c in out)


def brute_points_q(terms, H: int) -> set[tuple[int, int, int]]:
    """Normalized zeros in P^2(Q) of height <= H of a ternary form, by a
    scan of the whole box with the form collapsed to a univariate in x2."""
    box = range(-H, H + 1)
    by_e2: dict[int, list] = {}
    for (e0, e1, e2), c in terms:
        by_e2.setdefault(e2, []).append((e0, e1, c))
    pow_x2 = {e: [z**e for z in box] for e in by_e2}
    out = set()
    for x in box:
        for y in box:
            coeffs = []
            for e2, group in by_e2.items():
                c = sum(k * x**e0 * y**e1 for e0, e1, k in group)
                if c:
                    coeffs.append((pow_x2[e2], c))
            for i, z in enumerate(box):
                if (x or y or z) and not sum(c * row[i] for row, c in coeffs):
                    out.add(normalize_q((x, y, z)))
    return out


def brute_affine_q(terms, nvars: int, B: int) -> set[tuple[int, ...]]:
    """All integer zeros with every coordinate in [-B, B]."""
    box = range(-B, B + 1)
    out = set()

    def rec(prefix):
        if len(prefix) == nvars:
            if not eval_int(terms, prefix):
                out.add(tuple(prefix))
            return
        for v in box:
            rec(prefix + [v])

    rec([])
    return out


def diagonal_cubic_points_q(a: int, b: int, c: int, e: int, H: int) -> set:
    """Height <= H points of a x^3 + b y^3 + c z^3 + e x y z = 0 (c != 0).

    For each (x, y) the cubic g(z) = c z^3 + e x y z + (a x^3 + b y^3) is
    monotone on each integer interval between its turning points, so its
    integer roots are found by exact bisection on at most three pieces.
    """
    if c == 0:
        raise ValueError("need c != 0")
    out = set()
    for x in range(-H, H + 1):
        for y in range(-H, H + 1):
            m, k = e * x * y, a * x**3 + b * y**3

            def g(z):
                return c * z**3 + m * z + k

            pieces = [(-H, H)]
            if m * c < 0:
                r = isqrt(-m // (3 * c) if c > 0 else m // (-3 * c))
                pieces = [(-H, min(-r - 1, H)), (max(-r, -H), min(r, H)), (max(r + 1, -H), H)]
            for lo, hi in pieces:
                if lo > hi:
                    continue
                sign = 1 if g(hi) >= g(lo) else -1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if sign * g(mid) < 0:
                        lo = mid + 1
                    else:
                        hi = mid
                if g(lo) == 0 and (x or y or lo):
                    out.add(normalize_q((x, y, lo)))
    return out


# ---------------------------------------------------------------------------
# F_q[t] as coefficient tuples
# ---------------------------------------------------------------------------


def fq_trim(cs, q: int) -> tuple[int, ...]:
    cs = [c % q for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fq_add(a, b, q: int):
    if len(a) < len(b):
        a, b = b, a
    return fq_trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)], q)


def fq_mul(a, b, q: int):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return fq_trim(out, q)


def fq_pow(a, n: int, q: int):
    out = (1,)
    for _ in range(n):
        out = fq_mul(out, a, q)
    return out


def fq_divmod(a, b, q: int):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], q - 2, q)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = rem[shift + len(b) - 1] * inv % q
        quo[shift] = f
        if f:
            for i, c in enumerate(b):
                rem[shift + i] = (rem[shift + i] - f * c) % q
    return fq_trim(quo, q), fq_trim(rem, q)


def fq_monic(a, q: int):
    if not a:
        return a
    inv = pow(a[-1], q - 2, q)
    return fq_trim([c * inv for c in a], q)


def fq_gcd(a, b, q: int):
    while b:
        a, b = b, fq_divmod(a, b, q)[1]
    return fq_monic(a, q)


def fq_polys(q: int, max_deg: int) -> list[tuple[int, ...]]:
    """Every polynomial of degree <= max_deg, zero included."""
    out = []
    for n in range(q ** (max_deg + 1)):
        cs = []
        while n:
            n, r = divmod(n, q)
            cs.append(r)
        out.append(tuple(cs))
    return out


def fq_eval(terms, point, q: int):
    total = ()
    for exps, c in terms:
        term = c
        for x, e in zip(point, exps):
            if e:
                term = fq_mul(term, fq_pow(x, e, q), q)
        total = fq_add(total, term, q)
    return total


def normalize_fq(coords, q: int):
    """Primitive representative with first nonzero coordinate monic."""
    g = ()
    for c in coords:
        if c:
            g = fq_gcd(g, c, q) if g else fq_monic(c, q)
    out = [fq_divmod(c, g, q)[0] for c in coords]
    inv = pow(next(c for c in out if c)[-1], q - 2, q)
    return tuple(fq_trim([x * inv for x in c], q) for c in out)


def pn_count_fq(q: int, n: int, m: int) -> int:
    """#P^n(F_q(t), q^m), from the gcd recursion in the module docstring."""
    T = []
    for k in range(m + 1):
        T.append(q ** ((n + 1) * (k + 1)) - 1 - sum(q**i * T[k - i] for i in range(1, k + 1)))
    return T[m] // (q - 1)


# ---------------------------------------------------------------------------
# F_2[t] as bit-packed ints (bit i = coefficient of t^i)
# ---------------------------------------------------------------------------


def f2_from_tuple(a) -> int:
    return sum(1 << i for i, c in enumerate(a) if c % 2)


def f2_to_tuple(a: int) -> tuple[int, ...]:
    return tuple((a >> i) & 1 for i in range(a.bit_length()))


def f2_mul(a: int, b: int) -> int:
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    i = 0
    while a:
        if a & 1:
            out ^= b << i
        a >>= 1
        i += 1
    return out


def brute_points_fq(terms, q: int, H: int) -> set:
    """Normalized zeros in P^2(F_q(t)) of height <= H of a ternary form
    with F_q[t] coefficients, by a scan of the whole box with the form
    collapsed to a univariate in x2.  q = 2 runs on bit-packed ints."""
    box = fq_polys(q, ilog(q, H))
    if q == 2:
        enc, one, add, mul = f2_from_tuple, 1, int.__xor__, f2_mul
    else:
        enc, one = (lambda a: a), (1,)

        def add(a, b):
            return fq_add(a, b, q)

        def mul(a, b):
            return fq_mul(a, b, q)

    vals = [enc(v) for v in box]
    pw: dict[int, list] = {}
    by_e2: dict[int, list] = {}
    for (e0, e1, e2), c in terms:
        by_e2.setdefault(e2, []).append((e0, e1, enc(c)))
        for e in (e0, e1, e2):
            if e not in pw:
                row = []
                for v in vals:
                    acc = one
                    for _ in range(e):
                        acc = mul(acc, v)
                    row.append(acc)
                pw[e] = row
    n = len(vals)
    found = []
    for i in range(n):
        for j in range(n):
            coeffs = []
            for e2, group in by_e2.items():
                c = enc(())
                for e0, e1, k in group:
                    c = add(c, mul(mul(k, pw[e0][i]), pw[e1][j]))
                if c:
                    coeffs.append((pw[e2], c))
            for k in range(n):
                if i or j or k:
                    acc = enc(())
                    for row, c in coeffs:
                        acc = add(acc, mul(c, row[k]))
                    if not acc:
                        found.append((box[i], box[j], box[k]))
    return {normalize_fq(p, q) for p in found}


# ---------------------------------------------------------------------------
# finite prime fields
# ---------------------------------------------------------------------------


def eval_mod_p(terms, point, p: int) -> int:
    total = 0
    for exps, c in terms:
        term = c
        for x, e in zip(point, exps):
            if e:
                term = term * pow(x, e, p) % p
        total += term
    return total % p


def proj_points_fp(p: int, nvars: int = 3):
    """Canonical representatives of P^(nvars-1)(F_p), first nonzero = 1."""
    out = []
    for lead in range(nvars):
        tails = [()]
        for _ in range(nvars - 1 - lead):
            tails = [t + (v,) for t in tails for v in range(p)]
        out.extend((0,) * lead + (1,) + t for t in tails)
    return out
