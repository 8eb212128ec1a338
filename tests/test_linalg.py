from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstarkit import linalg
from hstarkit.errors import SingularMatrixError

# Homogenized vertex matrix of conv(0, e1..e4, (1,4,7,8,9)): columns are the
# vertices with a final 1.
EXPLICIT_5DIM = linalg.IntMatrix.from_rows(
    [
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 4],
        [0, 0, 0, 1, 0, 7],
        [0, 0, 0, 0, 1, 8],
        [0, 0, 0, 0, 0, 9],
        [1, 1, 1, 1, 1, 1],
    ]
)


def cofactor_det(m: linalg.IntMatrix) -> int:
    # Independent determinant oracle: textbook cofactor expansion.
    n = m.nrows
    if n == 0:
        return 1
    if n == 1:
        return m.rows[0][0]
    total = 0
    for j in range(n):
        if m.rows[0][j] == 0:
            continue
        minor = linalg.IntMatrix.from_rows(
            [
                [m.rows[i][jj] for jj in range(n) if jj != j]
                for i in range(1, n)
            ]
        )
        total += (-1) ** j * m.rows[0][j] * cofactor_det(minor)
    return total


def minor(m: linalg.IntMatrix, rows, cols) -> linalg.IntMatrix:
    return linalg.IntMatrix.from_rows(
        [[m.rows[i][j] for j in cols] for i in rows], ncols=len(cols)
    )


def largest_nonzero_minor(m: linalg.IntMatrix) -> int:
    # Independent rank oracle: the size of the largest square submatrix with
    # a nonzero cofactor determinant.
    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), size):
            for cols in combinations(range(m.ncols), size):
                if cofactor_det(minor(m, rows, cols)):
                    return size
    return 0


def cofactor_adjugate(m: linalg.IntMatrix) -> linalg.IntMatrix:
    # adj(M)[i][j] = (-1)^(i+j) * det of M without row j and column i.
    n = m.nrows
    return linalg.IntMatrix.from_rows(
        [
            [
                (-1) ** (i + j)
                * cofactor_det(
                    minor(m, [r for r in range(n) if r != j], [c for c in range(n) if c != i])
                )
                for j in range(n)
            ]
            for i in range(n)
        ],
        ncols=n,
    )


def square_matrices(n_max=4, lo=-9, hi=9):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(linalg.IntMatrix.from_rows)
    )


def rank_deficient_matrices(m_max=4, n_max=5):
    # Rectangular matrices whose last row is an integer combination of the
    # others when there are at least two rows, so short rank is common.
    return rect_matrices(m_max, n_max).flatmap(
        lambda m: st.lists(
            st.integers(-3, 3), min_size=m.nrows - 1, max_size=m.nrows - 1
        ).map(
            lambda coeffs: linalg.IntMatrix.from_rows(
                list(m.rows[:-1])
                + [
                    [
                        sum(c * m.rows[i][j] for i, c in enumerate(coeffs))
                        for j in range(m.ncols)
                    ]
                ],
                ncols=m.ncols,
            )
            if m.nrows > 1
            else m
        )
    )


def big_matrices(n=3, digits=100):
    bound = 10**digits
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(linalg.IntMatrix.from_rows)


def rect_matrices(m_max=4, n_max=4):
    return st.tuples(st.integers(1, m_max), st.integers(1, n_max)).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(-6, 6), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        ).map(linalg.IntMatrix.from_rows)
    )


class TestHermite:
    def test_identity_fixed(self):
        h, u = linalg.hermite_normal_form(linalg.IntMatrix.identity(3))
        assert h == linalg.IntMatrix.identity(3)
        assert u == linalg.IntMatrix.identity(3)

    def test_diagonal_already_reduced(self):
        m = linalg.IntMatrix.from_rows([[2, 0], [0, 3]])
        h, u = linalg.hermite_normal_form(m)
        assert h == m
        assert u == linalg.IntMatrix.identity(2)

    def test_explicit_simplex_det_preserved(self):
        h, u = linalg.hermite_normal_form(EXPLICIT_5DIM)
        assert abs(cofactor_det(h)) == 9
        assert abs(cofactor_det(u)) == 1
        assert u @ EXPLICIT_5DIM == h

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transform_and_idempotence(self, m):
        h, u = linalg.hermite_normal_form(m)
        assert u @ m == h
        assert abs(cofactor_det(u)) == 1
        h2, u2 = linalg.hermite_normal_form(h)
        assert h2 == h
        assert u2 == linalg.IntMatrix.identity(m.nrows)

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_square_nonsingular_shape(self, m):
        if linalg.det(m) == 0:
            return
        h, _ = linalg.hermite_normal_form(m)
        n = m.nrows
        for i in range(n):
            assert h.rows[i][i] > 0
            for j in range(i + 1, n):
                assert h.rows[i][j] == 0
            for j in range(i):
                assert 0 <= h.rows[i][j] < h.rows[j][j]

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_left_kernel_annihilates(self, m):
        k = linalg.left_kernel(m)
        assert k.nrows == m.nrows - linalg.rank(m)
        if k.nrows:
            prod = k @ m
            assert all(v == 0 for row in prod.rows for v in row)
            assert linalg.rank(k) == k.nrows


class TestSmith:
    def test_identity(self):
        dec = linalg.smith_normal_form(linalg.IntMatrix.identity(4))
        assert dec.invariant_factors == (1, 1, 1, 1)

    def test_already_diagonal(self):
        dec = linalg.smith_normal_form(linalg.IntMatrix.from_rows([[2, 0], [0, 4]]))
        assert dec.invariant_factors == (2, 4)

    def test_homogenized_triangle(self):
        # conv(0, e1, (1,2)) homogenized: volume 2, divisibility forces (1,1,2)
        m = linalg.IntMatrix.from_rows([[0, 1, 1], [0, 0, 2], [1, 1, 1]])
        dec = linalg.smith_normal_form(m)
        assert dec.invariant_factors == (1, 1, 2)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linalg.smith_normal_form(linalg.IntMatrix.from_rows([[1, 1], [2, 2]]))

    @given(square_matrices())
    @settings(max_examples=80, deadline=None)
    def test_decomposition_properties(self, m):
        d = linalg.det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                linalg.smith_normal_form(m)
            return
        dec = linalg.smith_normal_form(m)
        assert dec.U @ m @ dec.W == dec.D
        assert abs(cofactor_det(dec.U)) == 1
        assert abs(cofactor_det(dec.W)) == 1
        factors = dec.invariant_factors
        prod = 1
        for i, f in enumerate(factors):
            assert f > 0
            prod *= f
            if i:
                assert f % factors[i - 1] == 0
        assert prod == abs(d)


class TestDet:
    def test_fixed_values(self):
        assert linalg.det(linalg.IntMatrix.identity(3)) == 1
        assert linalg.det(linalg.IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert abs(linalg.det(EXPLICIT_5DIM)) == 9

    @given(square_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_cofactor_oracle(self, m):
        assert linalg.det(m) == cofactor_det(m)


class TestSolve:
    def test_identity(self):
        assert linalg.solve_rational(linalg.IntMatrix.identity(3), [5, -2, 7]) == (
            Fraction(5),
            Fraction(-2),
            Fraction(7),
        )

    def test_scalar(self):
        assert linalg.solve_rational(linalg.IntMatrix.from_rows([[2]]), [1]) == (
            Fraction(1, 2),
        )

    def test_triangle_barycentric(self):
        # conv((0,0),(1,0),(1,2)) homogenized; interior-ish point (1,1)
        m = linalg.IntMatrix.from_rows([[0, 1, 1], [0, 0, 2], [1, 1, 1]])
        assert linalg.solve_rational(m, [1, 1, 1]) == (
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve_rational(linalg.IntMatrix.from_rows([[1, 1], [2, 2]]), [1, 1])

    @given(square_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_substitution(self, m, data):
        if linalg.det(m) == 0:
            return
        b = data.draw(
            st.lists(st.integers(-9, 9), min_size=m.nrows, max_size=m.nrows)
        )
        x = linalg.solve_rational(m, b)
        for i in range(m.nrows):
            assert sum(m.rows[i][j] * x[j] for j in range(m.nrows)) == b[i]

    @given(square_matrices(n_max=4))
    @settings(max_examples=40, deadline=None)
    def test_adjugate_identity(self, m):
        if linalg.det(m) == 0:
            return
        adj, d = linalg.adjugate(m)
        prod = adj @ m
        expect = [[d if i == j else 0 for j in range(m.nrows)] for i in range(m.nrows)]
        assert prod == linalg.IntMatrix.from_rows(expect)


class TestAgainstCofactors:
    """Independent references: minors and cofactor expansion, no elimination."""

    @given(st.one_of(rect_matrices(4, 5), rank_deficient_matrices(4, 5)))
    @settings(max_examples=150, deadline=None)
    def test_rank_is_largest_nonzero_minor(self, m):
        assert linalg.rank(m) == largest_nonzero_minor(m)

    def test_rank_of_zero_and_empty_matrices(self):
        assert linalg.rank(linalg.IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])) == 0
        assert linalg.rank(linalg.IntMatrix.from_rows([], ncols=3)) == 0

    @given(square_matrices(n_max=4))
    @settings(max_examples=100, deadline=None)
    def test_adjugate_is_signed_cofactors(self, m):
        d = cofactor_det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                linalg.adjugate(m)
            return
        assert linalg.adjugate(m) == (cofactor_adjugate(m), d)

    @given(big_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hundred_digit_entries(self, m, data):
        d = cofactor_det(m)
        assert linalg.det(m) == d
        if d == 0:  # pragma: no cover - random 100-digit matrices are nonsingular
            return
        assert linalg.adjugate(m) == (cofactor_adjugate(m), d)
        b = data.draw(st.lists(st.integers(-(10**100), 10**100), min_size=3, max_size=3))
        # Cramer's rule: x_i = det(M with column i replaced by b) / det(M).
        expect = tuple(
            Fraction(
                cofactor_det(
                    linalg.IntMatrix.from_rows(
                        [[b[r] if c == i else m.rows[r][c] for c in range(3)] for r in range(3)]
                    )
                ),
                d,
            )
            for i in range(3)
        )
        assert linalg.solve_rational(m, b) == expect

    def test_singular_adjugate_raises(self):
        for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
            with pytest.raises(SingularMatrixError):
                linalg.adjugate(linalg.IntMatrix.from_rows(rows))
