"""Exact dense linear algebra over the coefficient domains.

One fraction-free Bareiss elimination, _eliminate, serves Z, F_q[t] and
the finite fields: it reads one column at a time through the matrix's
column(c), keeps every intermediate value in the domain by exact
division, and stops at the first column that depends on the ones before
it, so the columns past that one are never read.  det_exact reads the
determinant off its last pivot and row-swap count; kernel_vector, the
interpolation solver, back-substitutes its pivot rows.  Both run in the
domain's raw ring (CoeffDomain.ring): over F_q[t] on FqPoly's packed
ints, with the carry-less resp. Kronecker products and the packed exact
division of fqpoly, and they wrap the determinant resp. the kernel
vector back into FqPoly as it leaves.  rref, kernel_basis and rank do
plain Gauss-Jordan over a field with a fixed pivot rule, so results are
deterministic; they are the independent oracle the elimination is
tested against.
"""

from __future__ import annotations

from ..records import record
from .domains import CoeffDomain


@record(frozen=True)
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

    def column(self, c: int) -> list:
        """Column c, top to bottom: the one read _eliminate makes."""
        return [row[c] for row in self.entries]

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


def det_exact(matrix: ExactMatrix):
    """Exact determinant over any integral domain: 0 when _eliminate stops
    at a dependent column, otherwise its last pivot (the determinant of
    the row-swapped matrix), negated after an odd number of row swaps."""
    if not matrix.is_square:
        raise NonSquareMatrixError(f"{matrix.rows}x{matrix.cols} matrix has no determinant")
    raw = _raw(matrix)
    ring = raw.domain
    _, pivots, dependent, swaps = _eliminate(raw)
    if dependent is not None:
        return matrix.domain.zero
    return ring.cook([ring.neg(pivots[-1]) if swaps % 2 else pivots[-1]])[0]


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

    Back-substitution through the pivot rows of _eliminate gives v[fc] =
    the last pivot (1 when fc = 0) and v[j] = its Cramer numerator for
    j < fc, so v lies in the domain and is kernel_basis(M)[0] scaled by
    v[fc].  The work is about rows * fc^2 ring operations.
    """
    raw = _raw(matrix)
    ring = raw.domain
    done, pivots, dependent, _ = _eliminate(raw)
    if dependent is None:
        return None
    return ring.cook(_back_substitute(ring, done, pivots, dependent, matrix.cols))


class _RawColumns:
    """A matrix read in its domain's raw ring, a column at a time."""

    __slots__ = ("domain", "rows", "cols", "matrix")

    def __init__(self, ring, matrix) -> None:
        self.domain, self.rows, self.cols, self.matrix = ring, matrix.rows, matrix.cols, matrix

    def column(self, c: int) -> list:
        return self.domain.raw(self.matrix.column(c))


def _raw(matrix):
    """The matrix in the raw ring of its domain: itself when its domain is
    that ring already (every kind but F_q[t], and the evaluation columns of
    multipoly, which are computed raw)."""
    ring = matrix.domain.ring
    return matrix if ring is matrix.domain else _RawColumns(ring, matrix)


def _eliminate(matrix):
    """Fraction-free Bareiss elimination over any integral domain (Z,
    F_q[t] or a field), one column at a time, stopping at the first column
    that depends on the columns before it.

    The matrix is anything with domain, rows, cols and column(c), and
    column c is read only when the elimination reaches it.  Each column is
    brought up to date through the steps already taken: step i forms
    piv * x - m * top and divides it exactly by the step's previous pivot,
    through one divider the domain builds per step.  The products are the
    plain operators of the raw elements, as over Z, Q and the finite
    fields, unless the domain has a step of its own: F_q[t]'s raw ring,
    whose packed ints have no polynomial operators.  Over the plain
    domains the step stays inline: on small matrices, such as the
    certificate determinants over Z, a call per step is a measurable
    share of the step.  Returns (done, pivots, dependent, swaps): done[i]
    is column i as it stood at step i, by row position; pivots[i + 1] is
    the pivot of step i (pivots[0] = 1), so pivots[k] is the k x k leading
    minor of the row-swapped matrix; dependent is the first dependent
    column after elimination, or None at full column rank; swaps counts
    the row swaps.
    """
    dom = matrix.domain
    nrows = matrix.rows
    order = list(range(nrows))  # row position -> row of the matrix
    done: list[list] = []
    pivots = [dom.one]
    dividers = [dom.divider(dom.one)]  # dividers[i] divides by pivots[i]
    step = getattr(dom, "step", None)
    swaps = 0
    for c in range(matrix.cols):
        column = matrix.column(c)
        col = [column[r] for r in order]
        for i, steps in enumerate(done):
            piv, top, divide = pivots[i + 1], col[i], dividers[i]
            if step is None:
                col[i + 1 :] = [
                    divide(piv * x - m * top) for x, m in zip(col[i + 1 :], steps[i + 1 :])
                ]
            else:
                col[i + 1 :] = step(piv, top, divide, col[i + 1 :], steps[i + 1 :])
        k = len(done)
        pivot_row = next((j for j in range(k, nrows) if not dom.is_zero(col[j])), None)
        if pivot_row is None:
            return done, pivots, col, swaps
        if pivot_row != k:
            for seq in (order, col, *done):
                seq[k], seq[pivot_row] = seq[pivot_row], seq[k]
            swaps += 1
        done.append(col)
        pivots.append(col[k])
        dividers.append(dom.divider(col[k]))
    return done, pivots, None, swaps


def _back_substitute(dom, done, pivots, col, ncols: int) -> list:
    """Solve the triangular system of the pivot rows fraction-free for the
    kernel vector whose coordinate at the dependent column `col` is the
    last pivot, as a list of raw values."""
    k = len(done)
    v = [dom.zero] * ncols
    v[k] = pivots[k]
    for i in range(k - 1, -1, -1):
        acc = dom.neg(dom.mul(pivots[k], col[i]))
        for j in range(i + 1, k):
            acc = dom.sub(acc, dom.mul(done[j][i], v[j]))
        v[i] = dom.exact_div(acc, pivots[i + 1])
    return v


def rank(matrix: ExactMatrix) -> int:
    return len(rref(matrix)[1])

