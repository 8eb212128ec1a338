"""Exact dense integer linear algebra on small matrices.

A matrix is a sequence of integer rows; every function takes one and
returns plain lists of lists. The public entries reject ragged rows, and
the square-only ones non-square rows, with DimensionMismatchError. A
matrix of no rows has no columns: its rank is 0, its determinant 1 and its
adjugate empty.

Everything runs over Python's arbitrary-precision integers, and no
floating point is used anywhere; ``fractions.Fraction`` is used only for
solve results. The normal-form routines pick minimal-absolute-value pivots
to limit entry growth. The Smith form tracks only W and the diagonal,
which is all the weight group reads: a column swap runs on the active
block of rows not yet finished, a column subtraction on the pivot row
alone, and a pivot of +-1 skips the divisibility scan. The Hermite form
is one elimination over rows that may carry extra entries:
``hermite_normal_form`` appends identity rows to get its transform U, and
the triangular simplex model and the cyclic realization pass bare rows
and build no transform. ``hermite_column`` is its one column step, which
the face sweep of ``simplex.all_faces`` also takes, one per face.
Determinants, ranks, solves and adjugates all come from one fraction-free
(Bareiss) elimination.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, SingularMatrixError

# The package's numpy code runs on int64 only while every intermediate value
# stays below this bound; beyond it the same code runs on Python integers.
INT64_LIMIT = 2**62


def _checked(rows: Sequence[Sequence[int]], square: bool = False) -> int:
    """The column count of ``rows``, 0 for no rows; raises
    DimensionMismatchError on ragged rows, or on non-square rows when
    ``square``."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionMismatchError("ragged rows")
    n = widths.pop() if widths else 0
    if square and n != len(rows):
        raise DimensionMismatchError("matrix is not square")
    return n


def hermite_rows(a: list[list[int]], n: int) -> None:
    """Row-style Hermite elimination, in place, pivoting on the leading n
    columns of the rows in ``a``.

    Entries past column n ride along: every swap, negation and subtraction
    applies to the whole row, so rows that start as [M_i | e_i] end as
    [H_i | U_i]. Pivots are assigned bottom-up while sweeping columns right
    to left, one ``hermite_column`` step per column.
    """
    pivot_row = len(a) - 1
    for col in range(n - 1, -1, -1):
        if pivot_row < 0:
            break
        if hermite_column(a, col, pivot_row):
            pivot_row -= 1


def hermite_column(a: list[list[int]], col: int, pivot_row: int) -> bool:
    """One column step of ``hermite_rows``: make a[pivot_row][col] the
    pivot of column ``col`` and return True, or return False, changing
    nothing, when rows 0..pivot_row are zero in that column.

    The pivot is the entry of least absolute value, made positive; the
    entries above it are cleared and those below it reduced to [0, pivot).
    Every operation is chosen from column ``col`` alone, and a changed row
    is replaced by a new list, never edited in place. So a shallow copy of
    ``a`` taken before the step is left as it was, and entries in other
    columns never change which operations run.
    """
    if not any(a[i][col] for i in range(pivot_row + 1)):
        return False
    while True:
        best = min(
            (i for i in range(pivot_row + 1) if a[i][col]), key=lambda i: abs(a[i][col])
        )
        a[best], a[pivot_row] = a[pivot_row], a[best]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        prow = a[pivot_row]
        pivot = prow[col]
        cleared = True
        for i in range(pivot_row):
            q = a[i][col] // pivot
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], prow)]
            if a[i][col]:
                cleared = False
        if cleared:
            break
    for i in range(pivot_row + 1, len(a)):
        q = a[i][col] // pivot
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], prow)]
    return True


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-operation Hermite normal form H = U @ M, U unimodular, as row
    lists (H, U).

    Each row of M carries the matching row of the identity through
    ``hermite_rows``, and H and U are split off at column n. A square
    nonsingular input comes out lower triangular with positive diagonal
    and below-diagonal entries reduced to [0, pivot). Rows that end up zero
    (rank-deficient input) collect at the top; the matching rows of U form
    a basis of the left kernel.
    """
    n = _checked(rows)
    m = len(rows)
    a = [
        [*map(operator.index, row), *(int(i == j) for j in range(m))]
        for i, row in enumerate(rows)
    ]
    hermite_rows(a, n)
    return [row[:n] for row in a], [row[n:] for row in a]


def _min_abs_entry(a: list[list[int]], t: int, n: int) -> tuple[int, int] | None:
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


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], list[list[int]]]:
    """Smith normal form of a square nonsingular integer matrix, given by
    its rows.

    Raises SingularMatrixError when det M == 0; otherwise returns the
    invariant factors d_1 | d_2 | ... (all positive) and the rows of a
    unimodular W such that U @ M @ W == diag(d) for some unimodular U,
    which is not tracked. D is never built as a matrix: the weight group
    reads only its diagonal.

    Step t takes the entry of least absolute value in the trailing block
    as pivot and runs Euclid steps on its row and column. Once step t is
    done, row t and column t are zero off the diagonal, so a column swap
    touches rows t..n-1 only. The column subtractions that clear row t run
    only once column t is zero below the pivot, so they change row t
    alone. The divisibility scan then reads the trailing block, and a
    pivot of +-1 skips it: every integer is divisible by +-1.
    """
    n = _checked(rows, square=True)
    a = [list(map(operator.index, row)) for row in rows]
    wt = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]  # rows are columns of W

    def col_swap(j: int, k: int) -> None:
        for row in a[t:]:
            row[j], row[k] = row[k], row[j]
        wt[j], wt[k] = wt[k], wt[j]

    for t in range(n):
        loc = _min_abs_entry(a, t, n)
        if loc is None:
            raise SingularMatrixError("matrix is singular")
        i0, j0 = loc
        a[i0], a[t] = a[t], a[i0]
        if j0 != t:
            col_swap(j0, t)
        while True:
            # Euclid steps until column t below and row t right are zero.
            col_nonzero = [i for i in range(t + 1, n) if a[i][t]]
            if col_nonzero:
                pivot_row = a[t]
                for i in col_nonzero:
                    q = a[i][t] // pivot_row[t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
                rem = [i for i in range(t + 1, n) if a[i][t]]
                if rem:
                    i = min(rem, key=lambda r: abs(a[r][t]))
                    a[i], a[t] = a[t], a[i]
                continue
            row_nonzero = [j for j in range(t + 1, n) if a[t][j]]
            if row_nonzero:
                # Column t is clear below the pivot, so subtracting it
                # changes row t alone.
                for j in row_nonzero:
                    q = a[t][j] // a[t][t]
                    if q:
                        a[t][j] -= q * a[t][t]
                        wt[j] = [x - q * y for x, y in zip(wt[j], wt[t])]
                rem = [j for j in range(t + 1, n) if a[t][j]]
                if rem:
                    col_swap(min(rem, key=lambda c: abs(a[t][c])), t)
                continue
            pivot = a[t][t]
            if pivot in (1, -1):
                break
            viol = next(
                (i for i in range(t + 1, n) if any(x % pivot for x in a[i][t + 1 :])), None
            )
            if viol is None:
                break
            # Fold the offending row into row t so the pivot can shrink to
            # the gcd on the next sweep.
            a[t] = [x + y for x, y in zip(a[t], a[viol])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return tuple(a[t][t] for t in range(n)), [list(row) for row in zip(*wt)]


def _eliminate(
    rows: Sequence[Sequence[int]], n: int, columns: Sequence[Sequence[int]] = ()
) -> tuple[list[list[int]], int, int]:
    """Fraction-free Gauss-Jordan elimination of [M | b_1 ... b_k], M with
    n columns.

    Returns the reduced rows, the rank of M and the signed pivot
    determinant. Each step replaces every non-pivot row by
    (pivot * row - factor * pivot_row) / previous_pivot, a division that is
    exact because every entry stays a minor of the input (Bareiss 1968).
    A row swap negates the row moved down, so no step changes the
    determinant: for square nonsingular M the last pivot is det M, the left
    block ends as det(M) * I and the right block as adj(M) @ [b_1 ... b_k].
    """
    m = len(rows)
    a = [
        [*map(operator.index, row), *(operator.index(b[i]) for b in columns)]
        for i, row in enumerate(rows)
    ]
    r, prev = 0, 1
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], [-x for x in a[r]]
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(m):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
        r += 1
    return a, r, prev


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant, the last pivot of the fraction-free elimination."""
    n = _checked(rows, square=True)
    _, r, d = _eliminate(rows, n)
    return d if r == n else 0


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals (exact)."""
    return _eliminate(rows, _checked(rows))[1]


def solve_rational(rows: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact x with M x = b, the right column of the elimination of [M | b];
    raises SingularMatrixError when det M == 0."""
    n = _checked(rows, square=True)
    if len(b) != n:
        raise DimensionMismatchError("right-hand side length mismatch")
    a, r, d = _eliminate(rows, n, [b])
    if r < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(Fraction(row[n], d) for row in a)


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj M, det M), adj M as a row list: the right block of the
    elimination of [M | I]."""
    n = _checked(rows, square=True)
    a, r, d = _eliminate(rows, n, [[int(i == j) for i in range(n)] for j in range(n)])
    if r < n:
        raise SingularMatrixError("adjugate of a singular matrix is not supported")
    return [row[n:] for row in a], d
