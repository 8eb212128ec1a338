from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstarkit import linalg
from hstarkit.errors import DimensionMismatchError, SingularMatrixError
from hstarkit.families import multiplicativity_pairs, zero_window_family
from hstarkit.io import load_simplex_document
from hstarkit.simplex import homogenize, restrict_to_affine_lattice

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Homogenized vertex matrix of conv(0, e1..e4, (1,4,7,8,9)): columns are the
# vertices with a final 1.
EXPLICIT_5DIM = [
    [0, 1, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 4],
    [0, 0, 0, 1, 0, 7],
    [0, 0, 0, 0, 1, 8],
    [0, 0, 0, 0, 0, 9],
    [1, 1, 1, 1, 1, 1],
]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    """Exact product of two row lists, with b of at least one row."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def cofactor_det(m) -> int:
    # Independent determinant oracle: textbook cofactor expansion.
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def minor(m, rows, cols) -> list[list[int]]:
    return [[m[i][j] for j in cols] for i in rows]


def largest_nonzero_minor(m) -> int:
    # Independent rank oracle: the size of the largest square submatrix with
    # a nonzero cofactor determinant.
    nrows, ncols = len(m), len(m[0]) if m else 0
    for size in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                if cofactor_det(minor(m, rows, cols)):
                    return size
    return 0


def cofactor_adjugate(m) -> list[list[int]]:
    # adj(M)[i][j] = (-1)^(i+j) * det of M without row j and column i.
    n = len(m)
    return [
        [
            (-1) ** (i + j)
            * cofactor_det(
                minor(m, [r for r in range(n) if r != j], [c for c in range(n) if c != i])
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Reference kernels: the earlier full-transform Smith form (it also tracks U)
# and Hermite form, kept verbatim apart from names. The package's kernels
# must return exactly the same matrices.


@dataclass(frozen=True)
class ReferenceSmith:
    U: list[list[int]]
    W: list[list[int]]
    D: list[list[int]]


def reference_row_sub(a, u, i, k, q):
    # row_i -= q * row_k, mirrored on the transform
    if q == 0:
        return
    ai, ak = a[i], a[k]
    for j in range(len(ai)):
        ai[j] -= q * ak[j]
    ui, uk = u[i], u[k]
    for j in range(len(ui)):
        ui[j] -= q * uk[j]


def reference_hermite_normal_form(matrix):
    m, n = len(matrix), len(matrix[0])
    a = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    pivot_row = m - 1
    for col in range(n - 1, -1, -1):
        if pivot_row < 0:
            break
        if not any(a[i][col] for i in range(pivot_row + 1)):
            continue
        while True:
            nonzero = [i for i in range(pivot_row + 1) if a[i][col]]
            best = min(nonzero, key=lambda i: abs(a[i][col]))
            if best != pivot_row:
                a[best], a[pivot_row] = a[pivot_row], a[best]
                u[best], u[pivot_row] = u[pivot_row], u[best]
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            pivot = a[pivot_row][col]
            cleared = True
            for i in range(pivot_row):
                if a[i][col]:
                    reference_row_sub(a, u, i, pivot_row, a[i][col] // pivot)
                    if a[i][col]:
                        cleared = False
            if cleared:
                break
        pivot = a[pivot_row][col]
        for i in range(pivot_row + 1, m):
            reference_row_sub(a, u, i, pivot_row, a[i][col] // pivot)
        pivot_row -= 1
    return a, u


def reference_min_abs_entry(a, t, n):
    best = None
    best_abs = 0
    for i in range(t, n):
        for j in range(t, n):
            v = a[i][j]
            if v and (best is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
                if best_abs == 1:
                    return best
    return best


def reference_smith_normal_form(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatchError("Smith normal form requires a square matrix")
    a = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    wt = [[int(i == j) for j in range(n)] for i in range(n)]  # rows are columns of W

    def col_sub(j, k, q):
        if q == 0:
            return
        for i in range(n):
            a[i][j] -= q * a[i][k]
        wj, wk = wt[j], wt[k]
        for i in range(n):
            wj[i] -= q * wk[i]

    def col_swap(j, k):
        for i in range(n):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        wt[j], wt[k] = wt[k], wt[j]

    for t in range(n):
        loc = reference_min_abs_entry(a, t, n)
        if loc is None:
            raise SingularMatrixError("matrix is singular")
        i0, j0 = loc
        if i0 != t:
            a[i0], a[t] = a[t], a[i0]
            u[i0], u[t] = u[t], u[i0]
        if j0 != t:
            col_swap(j0, t)
        while True:
            # Euclid steps until column t below and row t right are zero.
            col_nonzero = [i for i in range(t + 1, n) if a[i][t]]
            if col_nonzero:
                for i in col_nonzero:
                    reference_row_sub(a, u, i, t, a[i][t] // a[t][t])
                rem = [i for i in range(t + 1, n) if a[i][t]]
                if rem:
                    i = min(rem, key=lambda r: abs(a[r][t]))
                    a[i], a[t] = a[t], a[i]
                    u[i], u[t] = u[t], u[i]
                continue
            row_nonzero = [j for j in range(t + 1, n) if a[t][j]]
            if row_nonzero:
                for j in row_nonzero:
                    col_sub(j, t, a[t][j] // a[t][t])
                rem = [j for j in range(t + 1, n) if a[t][j]]
                if rem:
                    j = min(rem, key=lambda c: abs(a[t][c]))
                    col_swap(j, t)
                continue
            pivot = a[t][t]
            if pivot == 0:
                raise SingularMatrixError("matrix is singular")
            viol = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % pivot:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            # Fold the offending row into row t so the pivot can shrink to
            # the gcd on the next sweep.
            for j in range(n):
                a[t][j] += a[viol][j]
            for j in range(n):
                u[t][j] += u[viol][j]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return ReferenceSmith(U=u, W=[list(col) for col in zip(*wt)], D=a)


def diagonal_matrix(factors) -> list[list[int]]:
    n = len(factors)
    return [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]


def assert_smith_matches_reference(m):
    try:
        ref = reference_smith_normal_form(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            linalg.smith_normal_form(m)
        return
    factors, w = linalg.smith_normal_form(m)
    assert (w, diagonal_matrix(factors)) == (ref.W, ref.D)
    assert matmul(matmul(ref.U, m), ref.W) == ref.D


def assert_smith_certificate(m, factors, w):
    """U @ M @ W == D for some unimodular U, without U: D = diag(factors),
    W is unimodular, and C = M @ W @ D^-1 is an integer matrix with
    |det C| == 1 (then U = C^-1 is integral and U @ M @ W == C^-1 @ C @ D
    == D)."""
    n = len(m)
    assert len(factors) == n and len(w) == n and all(len(row) == n for row in w)
    assert abs(cofactor_det(w)) == 1
    mw = matmul(m, w)
    assert all(row[j] % factors[j] == 0 for row in mw for j in range(n))
    c = [[row[j] // factors[j] for j in range(n)] for row in mw]
    assert abs(cofactor_det(c)) == 1


def square_matrices(n_max=4, lo=-9, hi=9):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def rank_deficient_matrices(m_max=4, n_max=5):
    # Rectangular matrices whose last row is an integer combination of the
    # others when there are at least two rows, so short rank is common.
    return rect_matrices(m_max, n_max).flatmap(
        lambda m: st.lists(
            st.integers(-3, 3), min_size=len(m) - 1, max_size=len(m) - 1
        ).map(
            lambda coeffs: m[:-1]
            + [[sum(c * m[i][j] for i, c in enumerate(coeffs)) for j in range(len(m[0]))]]
            if len(m) > 1
            else m
        )
    )


def big_matrices(n=3, digits=100):
    bound = 10**digits
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


def rect_matrices(m_max=4, n_max=4):
    return st.tuples(st.integers(1, m_max), st.integers(1, n_max)).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(-6, 6), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        )
    )


class TestHermite:
    def test_identity_fixed(self):
        h, u = linalg.hermite_normal_form(identity(3))
        assert h == identity(3)
        assert u == identity(3)

    def test_diagonal_already_reduced(self):
        m = [[2, 0], [0, 3]]
        h, u = linalg.hermite_normal_form(m)
        assert h == m
        assert u == identity(2)

    def test_explicit_simplex_det_preserved(self):
        h, u = linalg.hermite_normal_form(EXPLICIT_5DIM)
        assert abs(cofactor_det(h)) == 9
        assert abs(cofactor_det(u)) == 1
        assert matmul(u, EXPLICIT_5DIM) == h

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transform_and_idempotence(self, m):
        h, u = linalg.hermite_normal_form(m)
        assert matmul(u, m) == h
        assert abs(cofactor_det(u)) == 1
        h2, u2 = linalg.hermite_normal_form(h)
        assert h2 == h
        assert u2 == identity(len(m))

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_square_nonsingular_shape(self, m):
        if linalg.det(m) == 0:
            return
        h, _ = linalg.hermite_normal_form(m)
        n = len(m)
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i + 1, n):
                assert h[i][j] == 0
            for j in range(i):
                assert 0 <= h[i][j] < h[j][j]

    @given(rect_matrices())
    @settings(max_examples=60, deadline=None)
    def test_left_kernel_annihilates(self, m):
        # The rows of U next to zero rows of H are a basis of the left kernel.
        h, u = linalg.hermite_normal_form(m)
        k = [u[i] for i in range(len(m)) if not any(h[i])]
        assert len(k) == len(m) - linalg.rank(m)
        if k:
            prod = matmul(k, m)
            assert all(v == 0 for row in prod for v in row)
            assert linalg.rank(k) == len(k)


class TestSmith:
    def test_identity(self):
        factors, w = linalg.smith_normal_form(identity(4))
        assert factors == (1, 1, 1, 1)
        assert w == identity(4)

    def test_already_diagonal(self):
        factors, _ = linalg.smith_normal_form([[2, 0], [0, 4]])
        assert factors == (2, 4)

    def test_homogenized_triangle(self):
        # conv(0, e1, (1,2)) homogenized: volume 2, divisibility forces (1,1,2)
        factors, _ = linalg.smith_normal_form([[0, 1, 1], [0, 0, 2], [1, 1, 1]])
        assert factors == (1, 1, 2)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linalg.smith_normal_form([[1, 1], [2, 2]])

    @given(square_matrices())
    @settings(max_examples=80, deadline=None)
    def test_decomposition_properties(self, m):
        d = linalg.det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                linalg.smith_normal_form(m)
            return
        factors, w = linalg.smith_normal_form(m)
        assert_smith_certificate(m, factors, w)
        prod = 1
        for i, f in enumerate(factors):
            assert f > 0
            prod *= f
            if i:
                assert f % factors[i - 1] == 0
        assert prod == abs(d)


def simplex_matrices():
    """Homogenized matrices of the corpus documents (each in its Hermite
    model when lower-dimensional), the zero-window cohort and the
    multiplicativity joins."""
    simplices = []
    for path in sorted(CORPUS.glob("*.json")):
        simplex = load_simplex_document(path).to_simplex()
        simplices.append(
            simplex if simplex.is_full_dimensional else restrict_to_affine_lattice(simplex)
        )
    simplices += [simplex for _, simplex, _ in zero_window_family()]
    simplices += [s for pair in multiplicativity_pairs() for s in pair]
    return [homogenize(simplex) for simplex in simplices]


class TestKernelsMatchReferences:
    """The lean Smith form and the Hermite form return exactly the matrices
    of the full-transform references."""

    @given(st.one_of(square_matrices(), square_matrices(n_max=7, lo=-30, hi=30), big_matrices()))
    @settings(max_examples=200, deadline=None)
    def test_smith_random(self, m):
        assert_smith_matches_reference(m)

    @given(square_matrices(n_max=6, lo=-1, hi=1))
    @settings(max_examples=100, deadline=None)
    def test_smith_unit_entries(self, m):
        # Small entries give unit pivots, the case that skips the scan.
        assert_smith_matches_reference(m)

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 0], [0, 3]],
            [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
            [[4, 0, 0], [0, 4, 2], [0, 0, 6]],
            [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]],
            [[-5]],
        ],
    )
    def test_smith_divisibility_folds(self, rows):
        assert_smith_matches_reference(rows)
        assert_smith_certificate(rows, *linalg.smith_normal_form(rows))

    def test_smith_on_simplices(self):
        matrices = simplex_matrices()
        assert len(matrices) > 140
        for m in matrices:
            assert_smith_matches_reference(m)

    @given(st.one_of(rect_matrices(), rank_deficient_matrices(), square_matrices(n_max=5)))
    @settings(max_examples=200, deadline=None)
    def test_hermite_random(self, m):
        assert linalg.hermite_normal_form(m) == reference_hermite_normal_form(m)

    def test_hermite_on_simplices(self):
        for m in simplex_matrices():
            assert linalg.hermite_normal_form(m) == reference_hermite_normal_form(m)


class TestDet:
    def test_fixed_values(self):
        assert linalg.det(identity(3)) == 1
        assert linalg.det([[2, 0], [0, 3]]) == 6
        assert abs(linalg.det(EXPLICIT_5DIM)) == 9

    @given(square_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_cofactor_oracle(self, m):
        assert linalg.det(m) == cofactor_det(m)


class TestSolve:
    def test_identity(self):
        assert linalg.solve_rational(identity(3), [5, -2, 7]) == (
            Fraction(5),
            Fraction(-2),
            Fraction(7),
        )

    def test_scalar(self):
        assert linalg.solve_rational([[2]], [1]) == (
            Fraction(1, 2),
        )

    def test_triangle_barycentric(self):
        # conv((0,0),(1,0),(1,2)) homogenized; interior-ish point (1,1)
        m = [[0, 1, 1], [0, 0, 2], [1, 1, 1]]
        assert linalg.solve_rational(m, [1, 1, 1]) == (
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve_rational([[1, 1], [2, 2]], [1, 1])

    @given(square_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_substitution(self, m, data):
        if linalg.det(m) == 0:
            return
        n = len(m)
        b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        x = linalg.solve_rational(m, b)
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == b[i]

    @given(square_matrices(n_max=4))
    @settings(max_examples=40, deadline=None)
    def test_adjugate_identity(self, m):
        if linalg.det(m) == 0:
            return
        adj, d = linalg.adjugate(m)
        assert matmul(adj, m) == diagonal_matrix([d] * len(m))


class TestAgainstCofactors:
    """Independent references: minors and cofactor expansion, no elimination."""

    @given(st.one_of(rect_matrices(4, 5), rank_deficient_matrices(4, 5)))
    @settings(max_examples=150, deadline=None)
    def test_rank_is_largest_nonzero_minor(self, m):
        assert linalg.rank(m) == largest_nonzero_minor(m)

    def test_rank_of_zero_and_empty_matrices(self):
        assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert linalg.rank([]) == 0
        assert linalg.det([]) == 1
        assert linalg.adjugate([]) == ([], 1)

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
                    [[b[r] if c == i else m[r][c] for c in range(3)] for r in range(3)]
                ),
                d,
            )
            for i in range(3)
        )
        assert linalg.solve_rational(m, b) == expect

    def test_singular_adjugate_raises(self):
        for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
            with pytest.raises(SingularMatrixError):
                linalg.adjugate(rows)


class TestShapeChecks:
    """Every entry takes a row list: ragged rows are rejected everywhere, and
    non-square rows wherever a square matrix is required."""

    RAGGED = [[1, 2], [3]]
    WIDE = [[1, 2, 3], [4, 5, 6]]

    @pytest.mark.parametrize(
        "call",
        [
            linalg.smith_normal_form,
            linalg.hermite_normal_form,
            linalg.det,
            linalg.rank,
            lambda rows: linalg.solve_rational(rows, [1, 1]),
            linalg.adjugate,
        ],
        ids=["smith", "hermite", "det", "rank", "solve", "adjugate"],
    )
    def test_ragged_rows_rejected(self, call):
        with pytest.raises(DimensionMismatchError):
            call(self.RAGGED)

    @pytest.mark.parametrize(
        "call",
        [
            linalg.smith_normal_form,
            linalg.det,
            lambda rows: linalg.solve_rational(rows, [1, 1]),
            linalg.adjugate,
        ],
        ids=["smith", "det", "solve", "adjugate"],
    )
    def test_non_square_rejected(self, call):
        with pytest.raises(DimensionMismatchError):
            call(self.WIDE)

    @pytest.mark.parametrize(
        "call",
        [linalg.smith_normal_form, linalg.hermite_normal_form, linalg.det, linalg.rank,
         linalg.adjugate],
        ids=["smith", "hermite", "det", "rank", "adjugate"],
    )
    def test_non_integer_entries_rejected(self, call):
        # Entries are read through operator.index, so a float never truncates.
        with pytest.raises(TypeError):
            call([[1.5, 0], [0, 1]])

    def test_rectangular_accepted_where_defined(self):
        assert linalg.rank(self.WIDE) == 2
        h, u = linalg.hermite_normal_form(self.WIDE)
        assert matmul(u, self.WIDE) == h
