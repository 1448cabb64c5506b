"""Dense matrix container with structural predicates and the row-pair
functionals mu and delta.

mu(A) is the minimum over row pairs of the summed elementwise minimum of
the two rows; for nonnegative A it is positive exactly when A is
scrambling.  delta(A) is the maximum over row pairs of the summed
positive part of the row difference; for constant row sum matrices it
contracts the spread max(x) - min(x) of any vector x under x -> Ax.

All row-pair sums come from one tiled kernel, ``_row_pairs``, which
builds the n x n table one square tile of row pairs (i, j) at a time, so
memory stays O(n^2) (no n x n x n temporary) and each tile's temporary
stays small enough to remain in cache.  The scrambling test is one
matrix product of the 0/1 nonzero pattern.
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

    The table is built a tile of rows i by a tile of rows j at a time, so
    each tile x tile x n temporary holds about _TILE_ELEMENTS floats.
    Every entry is still one reduction over the contiguous last axis, so
    the result does not depend on the tiling.
    """
    n = a.shape[0]
    tile = max(1, math.isqrt(_TILE_ELEMENTS // n))
    if tile >= n:
        return f(a[:, None, :], a[None, :, :]).sum(axis=2)
    out = np.empty((n, n))
    for i in range(0, n, tile):
        rows = a[i:i + tile, None, :]
        for j in range(0, n, tile):
            out[i:i + tile, j:j + tile] = f(rows, a[None, j:j + tile, :]).sum(axis=2)
    return out


# The elementwise terms of delta and delta_halfsum, written into the
# x - y buffer so that each block holds one temporary, not two.
def _positive_part_of_difference(x, y):
    d = x - y
    return np.maximum(0.0, d, out=d)


def _abs_difference(x, y):
    d = x - y
    return np.abs(d, out=d)


def mu(A) -> float:
    """min over row pairs j != k of sum_i min(A[j,i], A[k,i]).

    For n = 1 the pair set is empty and the single row sum is returned,
    so that pairwise-quantified inequalities hold vacuously.
    """
    A = as_matrix(A)
    if A.n == 1:
        return float(A.a.sum())
    pair_sums = _row_pairs(A.a, np.minimum)
    np.fill_diagonal(pair_sums, np.inf)  # the table is symmetric; skip j == k
    return float(pair_sums.min())


def delta(A) -> float:
    """max over row pairs i, j of sum_k max(0, A[i,k] - A[j,k]); 0 for n = 1."""
    A = as_matrix(A)
    return float(_row_pairs(A.a, _positive_part_of_difference).max())


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
