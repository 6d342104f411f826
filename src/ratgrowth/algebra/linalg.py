"""Exact dense linear algebra over the coefficient domains.

det_exact runs fraction-free Bareiss elimination (exact division keeps
every intermediate value in the domain); integer matrices also have a
modular/CRT route that must agree bit-exactly.  kernel_vector is the
interpolation solver: the same fraction-free elimination over Z, F_q[t]
or a finite field, one column at a time, stopping at the first column
that depends on the ones before it.  kernel_basis does plain Gauss-Jordan
over a field with a fixed pivot rule, so results are deterministic; it
is the oracle kernel_vector is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .domains import INTEGERS, CoeffDomain, _is_prime_int


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix with entries in a single CoeffDomain."""

    domain: CoeffDomain
    entries: tuple[tuple[object, ...], ...]

    @classmethod
    def from_rows(cls, domain: CoeffDomain, rows) -> "ExactMatrix":
        coerced = tuple(tuple(domain.coerce(x) for x in row) for row in rows)
        if coerced and any(len(r) != len(coerced[0]) for r in coerced):
            raise ValueError("ragged rows")
        return cls(domain, coerced)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int):
        return self.entries[i]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.domain != other.domain or self.cols != other.rows:
            raise ValueError("shape/domain mismatch")
        dom = self.domain
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = dom.zero
                for k in range(self.cols):
                    acc = dom.add(acc, dom.mul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return ExactMatrix(dom, tuple(out))


class NonSquareMatrixError(ValueError):
    pass


def det_exact(matrix: ExactMatrix, method: str = "bareiss"):
    """Exact determinant.

    method: "bareiss" (default, any integral domain), "crt" (integer
    matrices only), or "checked" (run both on integer input and assert
    bit-exact agreement).
    """
    if not matrix.is_square:
        raise NonSquareMatrixError(f"{matrix.rows}x{matrix.cols} matrix has no determinant")
    if method == "bareiss":
        return _det_bareiss(matrix)
    if method == "crt":
        if matrix.domain.kind != INTEGERS:
            raise ValueError("CRT determinant requires integer entries")
        return _det_crt(matrix)
    if method == "checked":
        d = _det_bareiss(matrix)
        if matrix.domain.kind == INTEGERS:
            dc = _det_crt(matrix)
            if dc != d:
                raise AssertionError(f"determinant routes disagree: {d} vs {dc}")
        return d
    raise ValueError(f"unknown method {method!r}")


def _det_bareiss(matrix: ExactMatrix):
    dom = matrix.domain
    n = matrix.rows
    if n == 0:
        return dom.one
    m = [list(row) for row in matrix.entries]
    sign = 1
    prev = dom.one
    for k in range(n - 1):
        if dom.is_zero(m[k][k]):
            pivot_row = next(
                (i for i in range(k + 1, n) if not dom.is_zero(m[i][k])), None
            )
            if pivot_row is None:
                return dom.zero
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = dom.sub(dom.mul(m[i][j], m[k][k]), dom.mul(m[i][k], m[k][j]))
                m[i][j] = dom.exact_div(num, prev)
            m[i][k] = dom.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return dom.neg(det) if sign < 0 else det


def _hadamard_bound(entries) -> int:
    bound = 1
    for row in entries:
        s = sum(x * x for x in row)
        r = _isqrt_ceil(s)
        bound *= max(r, 1)
    return bound


def _isqrt_ceil(n: int) -> int:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else r + 1


def _det_crt(matrix: ExactMatrix) -> int:
    n = matrix.rows
    if n == 0:
        return 1
    bound = 2 * _hadamard_bound(matrix.entries) + 1
    primes: list[int] = []
    prod = 1
    candidate = (1 << 24) + 1
    while prod < bound:
        if _is_prime_int(candidate):
            primes.append(candidate)
            prod *= candidate
        candidate += 2
    residues = [_det_mod_p(matrix.entries, p) for p in primes]
    x = _crt(residues, primes)
    half = prod // 2
    return x - prod if x > half else x


def _det_mod_p(entries, p: int) -> int:
    n = len(entries)
    m = [[x % p for x in row] for row in entries]
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] % p), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        inv = pow(m[k][k], p - 2, p)
        det = det * m[k][k] % p
        for i in range(k + 1, n):
            factor = m[i][k] * inv % p
            if factor:
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[k])]
    return det % p


def _crt(residues, moduli) -> int:
    total_mod = reduce(lambda a, b: a * b, moduli, 1)
    x = 0
    for r, m in zip(residues, moduli):
        other = total_mod // m
        x += r * other * pow(other, -1, m)
    return x % total_mod


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form over a field; returns (R, pivot_columns).

    Pivot rule: scan columns left to right, pick the first row (top to
    bottom) with a nonzero entry.  Deterministic by construction.
    """
    dom = matrix.domain
    if not dom.is_field:
        raise TypeError(f"rref needs a field, got {dom.describe()}")
    m = [list(row) for row in matrix.entries]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if not dom.is_zero(m[i][c])), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = dom.inv(m[r][c])
        m[r] = [dom.mul(x, inv) for x in m[r]]
        for i in range(nrows):
            if i != r and not dom.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [dom.sub(a, dom.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(dom, tuple(tuple(row) for row in m)), pivots


def kernel_basis(matrix: ExactMatrix) -> list[tuple]:
    """Basis of the right null space {v : M v = 0} over a field.

    One basis vector per free column, in column order; each has a 1 in
    its free coordinate.  dim = cols - rank holds by construction.
    """
    dom = matrix.domain
    reduced, pivots = rref(matrix)
    ncols = matrix.cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [dom.zero] * ncols
        v[fc] = dom.one
        for r_idx, pc in enumerate(pivots):
            v[pc] = dom.neg(reduced.entries[r_idx][fc])
        basis.append(tuple(v))
    return basis


def kernel_vector(matrix: ExactMatrix) -> tuple | None:
    """A nonzero v with M v = 0 supported on columns 0..fc, where fc is the
    first column that depends on the columns before it; None at full
    column rank.

    Fraction-free over any integral domain (Z, F_q[t] or a field): columns
    are taken one at a time and brought up to date through the Bareiss
    steps already taken, each division exact, and elimination stops at
    column fc.  Back-substitution then gives v[fc] = the last pivot (1 when
    fc = 0) and v[j] = its Cramer numerator for j < fc, so v lies in the
    domain and is kernel_basis(M)[0] scaled by v[fc].  The work is about
    rows * fc^2 ring operations.
    """
    dom = matrix.domain
    mul, sub, exact_div = dom.mul, dom.sub, dom.exact_div
    nrows = matrix.rows
    order = list(range(nrows))  # row position -> row of the matrix
    done: list[list] = []  # column i as it stood at step i, by row position
    pivots = [dom.one]  # pivots[i + 1] is the pivot of step i
    for c in range(matrix.cols):
        col = [matrix.entries[r][c] for r in order]
        for i, steps in enumerate(done):
            piv, prev, top = pivots[i + 1], pivots[i], col[i]
            col[i + 1 :] = [
                exact_div(sub(mul(piv, x), mul(m, top)), prev)
                for x, m in zip(col[i + 1 :], steps[i + 1 :])
            ]
        k = len(done)
        pivot_row = next((j for j in range(k, nrows) if not dom.is_zero(col[j])), None)
        if pivot_row is None:
            return _back_substitute(dom, done, pivots, col, matrix.cols)
        if pivot_row != k:
            for seq in (order, col, *done):
                seq[k], seq[pivot_row] = seq[pivot_row], seq[k]
        done.append(col)
        pivots.append(col[k])
    return None


def _back_substitute(dom, done, pivots, col, ncols: int) -> tuple:
    """Solve the triangular system of the pivot rows fraction-free for the
    kernel vector whose coordinate at the dependent column `col` is the
    last pivot."""
    k = len(done)
    v = [dom.zero] * ncols
    v[k] = pivots[k]
    for i in range(k - 1, -1, -1):
        acc = dom.mul(pivots[k], col[i])
        for j in range(i + 1, k):
            acc = dom.add(acc, dom.mul(done[j][i], v[j]))
        v[i] = dom.exact_div(dom.neg(acc), pivots[i + 1])
    return tuple(v)


def rank(matrix: ExactMatrix) -> int:
    return len(rref(matrix)[1])


def mat_vec(matrix: ExactMatrix, vec) -> tuple:
    dom = matrix.domain
    out = []
    for row in matrix.entries:
        acc = dom.zero
        for a, x in zip(row, vec):
            acc = dom.add(acc, dom.mul(a, x))
        out.append(acc)
    return tuple(out)
