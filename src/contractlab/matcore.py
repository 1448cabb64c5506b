"""Dense matrix container with structural predicates and the row-pair
functionals mu and delta.

mu(A) is the minimum over row pairs of the summed elementwise minimum of
the two rows; for nonnegative A it is positive exactly when A is
scrambling.  delta(A) is the maximum over row pairs of the summed
positive part of the row difference; for constant row sum matrices it
contracts the spread max(x) - min(x) of any vector x under x -> Ax.

All row-pair sums come from one tiled kernel, ``_row_pairs``, which
builds the n x n table one square tile of row pairs (i, j) at a time, so
memory stays O(n^2) (no n x n x n temporary).  Every tile's terms live
in one buffer, allocated once and small enough to remain in cache: the
tile's rows i, each repeated once per row j, which the elementwise
functional then overwrites in place against the rows j.  The functional
and the sum run over long contiguous stretches even for short rows.
The scrambling test is one matrix product of the 0/1 nonzero pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ZERO_TOL = 1e-12
DEFAULT_ROW_SUM_TOL = 1e-9
# Elements in one tile x tile x n temporary of _row_pairs (512 KiB of float64).
_TILE_ELEMENTS = 1 << 16


class MatrixError(ValueError):
    """Invalid matrix data (non-square, non-finite, bad shape)."""


@dataclass(frozen=True)
class Matrix:
    """Immutable dense real n x n matrix.

    entries below ``zero_tol`` in magnitude are treated as structural
    zeros by pattern predicates (scrambling, digraph edges).
    """

    a: np.ndarray
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise MatrixError(f"expected square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise MatrixError("matrix entries must be finite")
        if self.zero_tol < 0:
            raise MatrixError("zero_tol must be nonnegative")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def nonzero_pattern(self) -> np.ndarray:
        """Boolean mask of structurally nonzero entries."""
        return np.abs(self.a) > self.zero_tol


@dataclass(frozen=True)
class RowSumProfile:
    sums: np.ndarray
    is_constant: bool
    r: float | None = None


def as_matrix(A) -> Matrix:
    """Coerce an array-like into a Matrix (no-op for Matrix inputs)."""
    if isinstance(A, Matrix):
        return A
    return Matrix(np.asarray(A, dtype=float))


def _row_pairs(a: np.ndarray, f) -> np.ndarray:
    """n x n array whose [i, j] entry is sum_k f(a[i, k], a[j, k]).

    ``f(x, y)`` overwrites x with the elementwise terms.  The table is
    built a tile of rows i by a tile of rows j at a time.  Each tile's
    terms go into the same buffer of about _TILE_ELEMENTS floats, which
    is allocated once per call.  Every entry is one reduction over the
    contiguous last axis, so the result does not depend on the tiling.
    """
    n = a.shape[0]
    tile = min(n, max(1, math.isqrt(_TILE_ELEMENTS // n)))
    out = np.empty((n, n))
    buf = np.empty(tile * tile * n)
    for i in range(0, n, tile):
        rows_i = a[i:i + tile]
        for j in range(0, n, tile):
            rows_j = a[j:j + tile]
            # a contiguous prefix of buf: against it, f runs as one long loop
            # over the whole tile however short the rows are
            shape = (len(rows_i), len(rows_j), n)
            terms = buf[:math.prod(shape)].reshape(shape)
            np.copyto(terms, rows_i[:, None, :])
            f(terms, rows_j)
            out[i:i + tile, j:j + tile] = np.add.reduce(terms, axis=2)
    return out


# The elementwise terms of mu, delta and delta_halfsum, written over x.
def _minimum(x, y):
    np.minimum(x, y, out=x)


def _positive_part_of_difference(x, y):
    np.subtract(x, y, out=x)
    np.maximum(0.0, x, out=x)


def _abs_difference(x, y):
    np.subtract(x, y, out=x)
    np.abs(x, out=x)


def mu(A) -> float:
    """min over row pairs j != k of sum_i min(A[j,i], A[k,i]).

    For n = 1 the pair set is empty and the single row sum is returned,
    so that pairwise-quantified inequalities hold vacuously.
    """
    A = as_matrix(A)
    if A.n == 1:
        return float(A.a.sum())
    pair_sums = _row_pairs(A.a, _minimum)
    np.fill_diagonal(pair_sums, np.inf)  # the table is symmetric; skip j == k
    return float(pair_sums.min())


def delta(A) -> float:
    """max over row pairs i, j of sum_k max(0, A[i,k] - A[j,k]); 0 for n = 1."""
    return _delta(as_matrix(A).a)


def _delta(a: np.ndarray) -> float:
    """delta of a finite square float64 array, taken as it is: no copy and
    no validation, for callers whose arrays are finite by construction."""
    return float(_row_pairs(a, _positive_part_of_difference).max())


def delta_halfsum(A) -> float:
    """Equivalent form (1/2) max_{i,j} sum_k |A[i,k] - A[j,k]|.

    Equals delta(A) when A has constant row sums; used as a cross-check.
    """
    A = as_matrix(A)
    return float(0.5 * _row_pairs(A.a, _abs_difference).max())


def is_scrambling(A) -> bool:
    """True iff every pair of rows shares a column where both entries are
    structurally nonzero.  True for n = 1."""
    A = as_matrix(A)
    if A.n == 1:
        return True
    p = A.nonzero_pattern().astype(float)
    # (p @ p.T)[i, j] counts the columns rows i and j share, exactly in
    # float64.  A diagonal entry is zero only for an all-zero row, which
    # shares no column with any row, so the minimum is positive iff every
    # pair shares one.
    return bool((p @ p.T).min() > 0)


def is_stochastic(A, tol: float = DEFAULT_ROW_SUM_TOL) -> bool:
    """True iff all entries >= -tol and every row sum is within tol of 1."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    A = as_matrix(A)
    sums = A.a.sum(axis=1)
    return bool(np.all(A.a >= -tol) and np.all(np.abs(sums - 1.0) <= tol))


def row_sum_profile(A, row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> RowSumProfile:
    """Row sums plus the constant-row-sum flag and common value r.

    r is the mean of the row sums (no row is privileged).
    """
    if row_sum_tol < 0:
        raise ValueError("row_sum_tol must be nonnegative")
    A = as_matrix(A)
    sums = A.a.sum(axis=1)
    r = float(sums.mean())
    constant = bool(np.abs(sums - r).max() <= row_sum_tol)
    return RowSumProfile(sums=sums, is_constant=constant, r=r if constant else None)


def spread(x) -> float:
    """max(x) - min(x), the quantity contracted by delta."""
    x = np.asarray(x, dtype=float)
    return float(x.max() - x.min())
