"""Exact determinants and kernels against independent oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratgrowth.algebra.domains import CoeffDomain
from ratgrowth.algebra.fqpoly import FqPoly
from ratgrowth.algebra.linalg import (
    ExactMatrix,
    NonSquareMatrixError,
    _eliminate,
    _raw,
    det_exact,
    kernel_basis,
    kernel_vector,
    rank,
)
from ratgrowth.algebra.multipoly import _MonomialColumns, evaluation_matrix, monomials_of_degree

ZZ = CoeffDomain.integers()
QQ = CoeffDomain.rationals()
GF5 = CoeffDomain.prime_field(5)


def mat_vec(matrix: ExactMatrix, vec) -> tuple:
    """The product of the matrix and a column vector, entry by entry."""
    dom = matrix.domain
    out = []
    for row in matrix.entries:
        acc = dom.zero
        for a, x in zip(row, vec):
            acc = dom.add(acc, dom.mul(a, x))
        out.append(acc)
    return tuple(out)


DET_DOMAINS = [ZZ, QQ, GF5, CoeffDomain.poly_ring(2), CoeffDomain.poly_ring(3)]


def cofactor_det(dom, rows):
    """Independent oracle: Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = dom.zero
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = dom.mul(entry, cofactor_det(dom, minor))
        total = dom.sub(total, term) if j % 2 else dom.add(total, term)
    return total


class TestDeterminant:
    def test_unit_triangular(self):
        m = ExactMatrix.from_rows(ZZ, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        assert det_exact(m) == 1

    def test_3x3_cofactor_oracle(self):
        rows = [[1, 0, 0], [1, 5, 0], [1, 0, 5]]
        expected = cofactor_det(ZZ, rows)
        assert expected == 25
        assert det_exact(ExactMatrix.from_rows(ZZ, rows)) == expected

    def test_equal_rows_vanish(self):
        rng = random.Random(3)
        for _ in range(10):
            row = [rng.randint(-9, 9) for _ in range(4)]
            other = [rng.randint(-9, 9) for _ in range(4)]
            third = [rng.randint(-9, 9) for _ in range(4)]
            m = ExactMatrix.from_rows(ZZ, [row, other, row, third])
            assert det_exact(m) == 0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            det_exact(ExactMatrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_cofactor_agreement_random(self, seed):
        # entries up to 10^6 over Z; a repeated row sends every domain
        # through the zero returned at the first dependent column
        rng = random.Random(seed)
        dom = rng.choice(DET_DOMAINS)
        sample = (lambda r: r.randint(-(10**6), 10**6)) if dom is ZZ else dom.sample
        n = rng.randint(1, 5)
        rows = [[sample(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[rng.randrange(1, n)] = rows[0]
        m = ExactMatrix.from_rows(dom, rows)
        assert det_exact(m) == cofactor_det(dom, m.entries)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_multiplicative_4x4(self, seed):
        rng = random.Random(seed)
        a = ExactMatrix.from_rows(ZZ, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        b = ExactMatrix.from_rows(ZZ, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        assert det_exact(a @ b) == det_exact(a) * det_exact(b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_multilinearity_in_a_row(self, seed):
        rng = random.Random(seed)
        base = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        u = [rng.randint(-6, 6) for _ in range(3)]
        lam = rng.randint(-4, 4)
        with_u = [r[:] for r in base]
        with_u[1] = [b + lam * x for b, x in zip(base[1], u)]
        only_u = [r[:] for r in base]
        only_u[1] = u
        lhs = det_exact(ExactMatrix.from_rows(ZZ, with_u))
        rhs = det_exact(ExactMatrix.from_rows(ZZ, base)) + lam * det_exact(
            ExactMatrix.from_rows(ZZ, only_u)
        )
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_alternating(self, seed):
        rng = random.Random(seed)
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert det_exact(ExactMatrix.from_rows(ZZ, swapped)) == -det_exact(
            ExactMatrix.from_rows(ZZ, rows)
        )

    def test_field_domains(self):
        mq = ExactMatrix.from_rows(QQ, [[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
        assert det_exact(mq) == Fraction(1, 6) - 1
        m5 = ExactMatrix.from_rows(GF5, [[2, 1], [1, 3]])
        assert det_exact(m5) == 0  # 6 - 1 = 5 = 0 mod 5


class TestKernel:
    def test_identity_empty(self):
        m = ExactMatrix.from_rows(GF5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert kernel_basis(m) == []

    def test_rank_one_row_f5(self):
        m = ExactMatrix.from_rows(GF5, [[1, 1, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert sum(v) % 5 == 0

    def test_evaluation_matrix_line(self):
        # monomials {x0, x1, x2} at (1:0:0), (0:1:0): hand-solved kernel
        m = ExactMatrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]])
        basis = kernel_basis(m)
        assert basis == [(Fraction(0), Fraction(0), Fraction(1))]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_exact_annihilation_and_rank_nullity(self, seed):
        rng = random.Random(seed)
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 5)
        dom = rng.choice([QQ, GF5, CoeffDomain.rational_functions(2)])
        rows = [[dom.sample(rng) for _ in range(cols_n)] for _ in range(rows_n)]
        m = ExactMatrix.from_rows(dom, rows)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == cols_n
        for v in basis:
            assert all(dom.is_zero(x) for x in mat_vec(m, v))

    def test_nonfield_rejected(self):
        with pytest.raises(TypeError):
            kernel_basis(ExactMatrix.from_rows(ZZ, [[1, 2]]))

    def test_deterministic(self):
        m = ExactMatrix.from_rows(GF5, [[1, 2, 3], [2, 4, 1]])
        assert kernel_basis(m) == kernel_basis(m)


def _oracle_vector(dom, rows):
    """kernel_basis(M)[0] over the fraction field (or the field itself),
    or None at full column rank."""
    field = dom.fraction_field()
    basis = kernel_basis(ExactMatrix.from_rows(field, rows))
    return basis[0] if basis else None


def _as_oracle(dom, v):
    """v scaled to 1 at its last nonzero coordinate, in the fraction field."""
    field = dom.fraction_field()
    lead = field.coerce(next(x for x in reversed(v) if not dom.is_zero(x)))
    return tuple(field.div(field.coerce(x), lead) for x in v)


KERNEL_DOMAINS = [ZZ, CoeffDomain.poly_ring(2), CoeffDomain.poly_ring(3), GF5, CoeffDomain.prime_field(7)]


class TestKernelVector:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_matches_first_oracle_vector(self, seed):
        # a product of r x k and k x c factors has rank <= k, so many
        # draws are rank-deficient with dependent columns in any position
        rng = random.Random(seed)
        dom = rng.choice(KERNEL_DOMAINS)
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        k = rng.randint(0, min(r, c))
        left = [[dom.sample(rng) for _ in range(k)] for _ in range(r)]
        right = [[dom.sample(rng) for _ in range(c)] for _ in range(k)]
        rows = [
            [sum((dom.mul(left[i][t], right[t][j]) for t in range(k)), dom.zero) for j in range(c)]
            for i in range(r)
        ]
        m = ExactMatrix.from_rows(dom, rows)
        v = kernel_vector(m)
        expected = _oracle_vector(dom, rows)
        if expected is None:
            assert v is None
            return
        assert all(dom.is_zero(x) for x in mat_vec(m, v))
        assert _as_oracle(dom, v) == expected

    def test_zero_first_column(self):
        for dom in KERNEL_DOMAINS:
            m = ExactMatrix.from_rows(dom, [[0, 1, 2], [0, 3, 1]])
            assert kernel_vector(m) == (dom.one, dom.zero, dom.zero)

    def test_full_column_rank_is_none(self):
        for dom in KERNEL_DOMAINS:
            m = ExactMatrix.from_rows(dom, [[1, 0], [1, 1], [0, 1]])
            assert kernel_vector(m) is None

    def test_more_rows_than_columns(self):
        # columns 0, 1 independent, column 2 = 2 * column 0 - 3 * column 1
        rows = [[1, 2, -4], [3, 1, 3], [0, 5, -15], [2, 2, -2], [7, 0, 14]]
        v = kernel_vector(ExactMatrix.from_rows(ZZ, rows))
        assert _as_oracle(ZZ, v) == (Fraction(-2), Fraction(3), Fraction(1))
        assert v[2] == det_exact(ExactMatrix.from_rows(ZZ, [r[:2] for r in rows[:2]]))

    def test_row_pivoting(self):
        # the first pivot sits below a zero; the dependent column is the last
        rows = [[0, 1, 1], [2, 0, 2]]
        for dom in (ZZ, CoeffDomain.poly_ring(3)):
            v = kernel_vector(ExactMatrix.from_rows(dom, rows))
            assert _as_oracle(dom, v) == _oracle_vector(dom, rows)


def per_entry_eliminate(dom, rows):
    """The elimination before its per-step dividers: every entry of a step
    is dom.exact_div(dom.sub(dom.mul(piv, x), dom.mul(m, top)), prev), so a
    field inverts prev once per entry."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    order = list(range(nrows))
    done, pivots, swaps = [], [dom.one], 0
    for c in range(ncols):
        col = [rows[r][c] for r in order]
        for i, steps in enumerate(done):
            piv, prev, top = pivots[i + 1], pivots[i], col[i]
            col[i + 1 :] = [
                dom.exact_div(dom.sub(dom.mul(piv, x), dom.mul(m, top)), prev)
                for x, m in zip(col[i + 1 :], steps[i + 1 :])
            ]
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
    return done, pivots, None, swaps


ELIMINATION_DOMAINS = KERNEL_DOMAINS + [
    QQ,
    CoeffDomain.rational_functions(3),
    CoeffDomain.residue_field(FqPoly(2, (1, 1, 1))),
    CoeffDomain.residue_field(FqPoly(3, (1, 0, 1))),
]


class TestStepDividers:
    """_eliminate divides each step by one divider that the domain builds
    from the step's previous pivot."""

    @pytest.mark.parametrize("dom", ELIMINATION_DOMAINS, ids=lambda d: d.describe())
    def test_matches_per_entry_division(self, dom):
        # low-rank products, so dependent columns fall anywhere; over a field
        # nothing raises, and every value equals the per-entry elimination's
        rng = random.Random(7)
        for _ in range(40):
            r, c = rng.randint(1, 6), rng.randint(1, 7)
            k = rng.randint(0, min(r, c))
            left = [[dom.sample(rng) for _ in range(k)] for _ in range(r)]
            right = [[dom.sample(rng) for _ in range(c)] for _ in range(k)]
            rows = [
                [sum((dom.mul(left[i][t], right[t][j]) for t in range(k)), dom.zero) for j in range(c)]
                for i in range(r)
            ]
            m = ExactMatrix.from_rows(dom, rows)
            assert _eliminate(m) == per_entry_eliminate(dom, m.entries)

    @pytest.mark.parametrize("dom", ELIMINATION_DOMAINS, ids=lambda d: d.describe())
    def test_divider_is_exact_div(self, dom):
        # raw, unreduced values too: a divider reduces what it returns
        rng = random.Random(11)
        for _ in range(50):
            b = dom.zero
            while dom.is_zero(b):
                b = dom.sample(rng)
            a, x, y = (dom.sample(rng) for _ in range(3))
            raw = a * b if not dom.is_field else x * y - a
            want = dom.exact_div(dom.coerce(raw) if dom.modulus is not None else raw, b)
            assert dom.divider(b)(raw) == want

    def test_inexact_division_raises_over_rings(self):
        with pytest.raises(ArithmeticError):
            ZZ.divider(4)(10)
        f3t = CoeffDomain.poly_ring(3)
        with pytest.raises(ArithmeticError):
            f3t.divider(FqPoly.t(3))(FqPoly.one(3))

    def test_doctored_divisor_raises_in_elimination(self):
        # a domain whose dividers divide by twice the pivot makes the first
        # step inexact: 1 * 5 - 3 * 2 = -1 is not divisible by 2
        class DoubledDivisors:
            one = ZZ.one
            is_zero = staticmethod(ZZ.is_zero)

            @staticmethod
            def divider(b):
                return ZZ.divider(2 * b)

        class Doctored:
            domain, rows, cols = DoubledDivisors(), 2, 2

            @staticmethod
            def column(c):
                return [[1, 3], [2, 5]][c]

        with pytest.raises(ArithmeticError, match="does not divide"):
            _eliminate(Doctored())

    def test_columns_past_the_dependent_one_are_not_read(self):
        m = ExactMatrix.from_rows(ZZ, [[1, 2, 0, 5], [2, 4, 1, 6]])
        reads = []

        class Spy:
            domain, rows, cols = m.domain, m.rows, m.cols

            @staticmethod
            def column(c):
                reads.append(c)
                return m.column(c)

        assert kernel_vector(Spy()) == kernel_vector(m) == (-2, 1, 0, 0)
        assert reads == [0, 1]


def operator_eliminate(one, rows):
    """The elimination on the entries' own operators: every entry of step i
    is divmod(piv * x - m * top, pivots[i]) with a zero remainder.  Over
    F_q[t] these are FqPoly's operators, one wrapped value per product,
    difference and quotient, as the elimination ran before F_q[t] had a
    packed raw ring."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    order = list(range(nrows))
    done, pivots, swaps = [], [one], 0
    for c in range(ncols):
        col = [rows[r][c] for r in order]
        for i, steps in enumerate(done):
            piv, prev, top = pivots[i + 1], pivots[i], col[i]
            for j in range(i + 1, nrows):
                quo, rem = divmod(piv * col[j] - steps[j] * top, prev)
                assert not rem
                col[j] = quo
        k = len(done)
        pivot_row = next((j for j in range(k, nrows) if col[j]), None)
        if pivot_row is None:
            return done, pivots, col, swaps
        if pivot_row != k:
            for seq in (order, col, *done):
                seq[k], seq[pivot_row] = seq[pivot_row], seq[k]
            swaps += 1
        done.append(col)
        pivots.append(col[k])
    return done, pivots, None, swaps


def operator_kernel_vector(zero, ncols, done, pivots, col):
    """Back-substitution on the entries' own operators (see kernel_vector)."""
    k = len(done)
    v = [zero] * ncols
    v[k] = pivots[k]
    for i in range(k - 1, -1, -1):
        acc = pivots[k] * col[i]
        for j in range(i + 1, k):
            acc = acc + done[j][i] * v[j]
        quo, rem = divmod(-acc, pivots[i + 1])
        assert not rem
        v[i] = quo
    return tuple(v)


def long_poly(q, rng, degree):
    """A random element of F_q[t] of exactly the given degree."""
    return FqPoly(q, [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)])


# q = 131 has two-byte slots; the long entries of each q reach the
# widened Kronecker slots, which hold min(len a, len b) * (q - 1)^2
PACKED_QS = [2, 3, 5, 7, 131]
LONG_DEGREE = {2: 90, 3: 70, 5: 20, 7: 10, 131: 6}


class TestPackedElimination:
    """Over F_q[t] the elimination runs on FqPoly's packed ints; every value
    it hands back equals the elimination on FqPoly's operators."""

    @staticmethod
    def matrices(q, seed):
        dom = CoeffDomain.poly_ring(q)
        rng = random.Random(seed)
        for n in range(40):
            r, c = rng.randint(1, 6), rng.randint(1, 7)
            k = rng.randint(0, min(r, c))
            if n % 4 == 3:  # long entries: widened slots in products and divisions
                def draw():
                    return long_poly(q, rng, rng.randint(LONG_DEGREE[q] // 2, LONG_DEGREE[q]))
            else:
                def draw():
                    return dom.sample(rng)
            if n % 2:  # rank <= k, so dependent columns fall anywhere
                left = [[draw() for _ in range(k)] for _ in range(r)]
                right = [[draw() for _ in range(c)] for _ in range(k)]
                rows = [
                    [sum((left[i][t] * right[t][j] for t in range(k)), dom.zero) for j in range(c)]
                    for i in range(r)
                ]
            else:
                rows = [[draw() for _ in range(c)] for _ in range(r)]
            yield dom, ExactMatrix.from_rows(dom, rows)

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_eliminate_matches_the_operator_elimination(self, q):
        for dom, m in self.matrices(q, q):
            raw = _raw(m)
            assert raw.domain is dom.ring and raw.domain is not dom
            done, pivots, dependent, swaps = _eliminate(raw)
            want = operator_eliminate(dom.one, [list(row) for row in m.entries])
            cook = dom.ring.cook
            assert [list(cook(col)) for col in done] == want[0]
            assert list(cook(pivots)) == want[1]
            assert (None if dependent is None else list(cook(dependent))) == want[2]
            assert swaps == want[3]

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_kernel_vector_and_det_match(self, q):
        for dom, m in self.matrices(q, 100 + q):
            done, pivots, dependent, swaps = operator_eliminate(dom.one, [list(row) for row in m.entries])
            v = kernel_vector(m)
            if dependent is None:
                assert v is None
            else:
                assert v == operator_kernel_vector(dom.zero, m.cols, done, pivots, dependent)
                assert all(type(x) is FqPoly for x in v)
                assert all(not x for x in mat_vec(m, v))
            if m.is_square:
                det = det_exact(m)
                want = dom.zero if dependent is not None else pivots[-1] if swaps % 2 == 0 else -pivots[-1]
                assert type(det) is FqPoly and det == want
                if m.rows <= 4:
                    assert det == cofactor_det(dom, [list(row) for row in m.entries])

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_evaluation_columns_are_raw(self, q):
        # the interpolation source computes packed columns; its kernel vector
        # is the one of the wrapped evaluation matrix
        dom, rng = CoeffDomain.poly_ring(q), random.Random(q)
        for degree in (1, 2, 3):
            monomials = monomials_of_degree(3, degree)
            for npoints in (len(monomials) - 1, len(monomials) + 1):
                points = [tuple(dom.sample(rng) for _ in range(3)) for _ in range(npoints)]
                source = _MonomialColumns(dom, monomials, points)
                m = evaluation_matrix(dom, monomials, points)
                assert source.domain is dom.ring
                assert [dom.ring.cook(source.column(c)) for c in range(m.cols)] == [
                    tuple(m.column(c)) for c in range(m.cols)
                ]
                assert kernel_vector(source) == kernel_vector(m)

    @pytest.mark.parametrize("q", PACKED_QS)
    def test_packed_divider_is_exact(self, q):
        ring, rng = CoeffDomain.poly_ring(q).ring, random.Random(q)
        t = FqPoly.t(q)
        with pytest.raises(ArithmeticError, match="does not divide"):
            ring.divider(t.packed)(FqPoly.one(q).packed)
        with pytest.raises(ZeroDivisionError):
            ring.divider(0)
        for _ in range(30):
            a, b = long_poly(q, rng, rng.randint(0, 12)), long_poly(q, rng, rng.randint(0, 12))
            assert ring.cook([ring.divider(b.packed)((a * b).packed)]) == (a,)
            if b.degree > 0:
                with pytest.raises(ArithmeticError):
                    ring.divider(b.packed)((a * b + 1).packed)
