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

mu's table T[i, j] = sum_k min(a_ik, a_jk) is symmetric: only its tiles
with j >= i are built, the others mirrored, bit for bit.  Since
max(0, x - y) = x - min(x, y), delta's entry is s_i - T[i, j], s_i the
row sum, for every real matrix.  ``mu_delta`` reads mu from T, turns T
into that estimate in place, and recomputes delta's entry, with delta's
terms and one reduction, only on the pairs within 2 eps of the largest
estimate.  Let M = max_i sum_k |a_ik| and u the unit roundoff.  Summed in
any order, n terms x_k err by at most gamma_{n-1} sum |x_k|,
gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2).  So s_i errs by gamma_{n-1} M; T[i, j] and
delta's computed entry together by gamma_{n-1} (1 + u) 3 M, as each
column adds at most |a_ik| + 2 |a_jk|; the differences a_ik - a_jk and
the subtraction s_i - T[i, j] by 2 u M each.  Every estimate is thus
within 4 n u M + O(u^2) <= eps = 4 (n + 2) u M of delta's computed entry,
so the maximal pair's estimate is within 2 eps of the largest, that pair
is kept, and delta keeps its bits.  When 4 M overflows (eps infinite) or
more than n pairs are kept, as for rank-one-like matrices whose pairs
all sit at rounding level, mu_delta makes the full delta sweep.  ``analyze`` calls ``mu_delta``: one n^3 sweep per matrix.
``delta`` and ``_delta`` stay the full sweep, as the oracle and the
fallback; ``weak_ergodicity_diagnostic`` calls ``_delta`` on anchored
products at the rounding floor, where the table would only add a sweep.
``_delta_bound`` bounds the computed delta from above by the summed
column spreads, in one n x n pass: where that bound is small enough, a
product of the diagnostic's anchors past 0 enters its series as the
bound, with no sweep at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ZERO_TOL = 1e-12
DEFAULT_ROW_SUM_TOL = 1e-9
DEFAULT_SYNC_TOL = 1e-10  # cml.simulate's synchronization threshold
# Elements in one tile x tile x n temporary of _row_pairs (512 KiB of float64).
_TILE_ELEMENTS = 1 << 16
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class MatrixError(ValueError):
    """Invalid matrix data (non-square, non-finite, bad shape)."""


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense real n x n matrix: finite float64 entries.
    Matrices compare and hash by identity: two are equal only if they are
    the same object."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise MatrixError(f"expected square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise MatrixError("matrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]


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


def _row_pairs(a: np.ndarray, f, symmetric: bool = False) -> np.ndarray:
    """n x n array whose [i, j] entry is sum_k f(a[i, k], a[j, k]).

    ``f(x, y)`` overwrites x with the elementwise terms.  The table is
    built a tile of rows i by a tile of rows j at a time.  Each tile's
    terms go into the same buffer of about _TILE_ELEMENTS floats, which
    is allocated once per call.  Every entry is one reduction over the
    contiguous last axis, so the result does not depend on the tiling.
    For an f symmetric in its arguments, ``symmetric`` builds only the
    tiles with j >= i and mirrors the others.
    """
    n = a.shape[0]
    tile = min(n, max(1, math.isqrt(_TILE_ELEMENTS // n)))
    out = np.empty((n, n))
    buf = np.empty(tile * tile * n)
    for i in range(0, n, tile):
        rows_i = a[i:i + tile]
        for j in range(i if symmetric else 0, n, tile):
            rows_j = a[j:j + tile]
            # a contiguous prefix of buf: against it, f runs as one long loop
            # over the whole tile however short the rows are
            shape = (len(rows_i), len(rows_j), n)
            terms = buf[:math.prod(shape)].reshape(shape)
            np.copyto(terms, rows_i[:, None, :])
            f(terms, rows_j)
            out[i:i + tile, j:j + tile] = np.add.reduce(terms, axis=2)
            if symmetric and j > i:
                out[j:j + tile, i:i + tile] = out[i:i + tile, j:j + tile].T
    return out


# The elementwise terms of mu and delta, written over x.
def _minimum(x, y):
    np.minimum(x, y, out=x)


def _positive_part_of_difference(x, y):
    np.subtract(x, y, out=x)
    np.maximum(0.0, x, out=x)


def mu(A) -> float:
    """min over row pairs j != k of sum_i min(A[j,i], A[k,i]).

    For n = 1 the pair set is empty and the single row sum is returned,
    so that pairwise-quantified inequalities hold vacuously.
    """
    A = as_matrix(A)
    if A.n == 1:
        return float(A.a.sum())
    return _off_diagonal_min(_row_pairs(A.a, _minimum, symmetric=True))


def _off_diagonal_min(table: np.ndarray) -> float:
    """The table's smallest entry off the diagonal; the diagonal becomes inf."""
    np.fill_diagonal(table, np.inf)  # the table is symmetric; skip j == k
    return float(table.min())


def delta(A) -> float:
    """max over row pairs i, j of sum_k max(0, A[i,k] - A[j,k]); 0 for n = 1."""
    return _delta(as_matrix(A).a)


def mu_delta(A) -> tuple[float, float]:
    """(mu(A), delta(A)), bit for bit, from one sweep of row pairs: delta
    is read off mu's table (see the module docstring)."""
    A = as_matrix(A)
    a, n = A.a, A.n
    if n == 1:
        return float(a.sum()), 0.0
    # infinite exactly when 4 M overflows; otherwise no sum overflows
    eps = 4.0 * float(np.abs(a).sum(axis=1).max()) * ((n + 2) * _UNIT_ROUNDOFF)
    est = _row_pairs(a, _minimum, symmetric=True)
    m = _off_diagonal_min(est)
    np.subtract(a.sum(axis=1)[:, None], est, out=est)
    np.fill_diagonal(est, 0.0)  # a row against itself: delta's entry is 0
    kept = est >= est.max() - 2.0 * eps if math.isfinite(eps) else None
    del est
    if kept is None or np.count_nonzero(kept) > n:
        return m, _delta(a)
    i, j = np.nonzero(kept)
    terms = a[i]
    _positive_part_of_difference(terms, a[j])
    return m, float(np.add.reduce(terms, axis=1).max())


def _delta(a: np.ndarray) -> float:
    """delta of a square float64 array, taken as it is: no copy and no
    validation.  An entry that is not finite makes the result not finite."""
    return float(_row_pairs(a, _positive_part_of_difference).max())


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), u the unit roundoff: the relative error
    that m rounded operations can build up (Higham, 2nd ed., 3.1)."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _delta_bound(a: np.ndarray) -> float:
    """b(a) = (1 + 4 gamma_n) sum_k fl(max_i a_ik - min_i a_ik), from one
    pass over the square float64 array a: at least _delta(a), the value
    as computed, not only the exact delta.

    Write s_k = fl(max_i a_ik - min_i a_ik) and S = sum_k s_k, exactly.
    - Each term max(0, fl(a_ik - a_jk)) of _delta is at most s_k.
      Rounding is monotone, x <= y gives fl(x) <= fl(y) (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., 2.2), and
      a_ik - a_jk <= max_i a_ik - min_i a_ik; max(0, .) keeps the order,
      as s_k >= 0.
    - A fixed order of rounded additions is monotone in each nonnegative
      term, and n terms summed in any order err by at most gamma_(n-1)
      times the sum of their magnitudes (4.2).  So each pair's sum in
      _delta, with whatever order numpy takes there, is at most
      (1 + gamma_(n-1)) S, and the sum of the s_k here, in its own order,
      is at least (1 - gamma_(n-1)) S.  Underflow does not break this:
      rounded sums and differences that underflow are exact.
    - The factor covers both orders and the rounding of the final product.
      For n >= 2, gamma_n >= 2 u, and 1 + 4 gamma_n, even as computed (to
      within u + 8 u gamma_n), exceeds (1 + gamma_(n-1)) / ((1 - u)
      (1 - gamma_(n-1))) while n u < 1/16.  If the product underflows
      instead, every sum below it was exact and b >= S >= _delta(a).
      For n = 1 both are 0.
    - An overflow, or an entry that is not finite, makes b inf or nan, and
      then b <= x is false for every x: a caller that takes the bound
      only when b <= x falls back to _delta.
    """
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.subtract(a.max(axis=0), a.min(axis=0))
        return (1.0 + 4.0 * _gamma(n)) * float(np.add.reduce(spread))


def nonzero_pattern(A, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Boolean mask of the structurally nonzero entries: |A[i, j]| > zero_tol."""
    if not zero_tol >= 0:  # NaN too
        raise ValueError(f"zero_tol must be nonnegative, got {zero_tol}")
    return np.abs(as_matrix(A).a) > zero_tol


def is_scrambling(A, zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
    """True iff every pair of rows shares a column where both entries are
    structurally nonzero, i.e. above zero_tol in magnitude.  True for n = 1."""
    p = nonzero_pattern(A, zero_tol).astype(float)
    if p.shape[0] == 1:
        return True
    # (p @ p.T)[i, j] counts the columns rows i and j share, exactly in
    # float64.  A diagonal entry is zero only for an all-zero row, which
    # shares no column with any row, so the minimum is positive iff every
    # pair shares one.
    return bool((p @ p.T).min() > 0)


def is_stochastic(A, tol: float = DEFAULT_ROW_SUM_TOL) -> bool:
    """True iff all entries >= -tol and every row sum is within tol of 1."""
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    A = as_matrix(A)
    sums = A.a.sum(axis=1)
    return bool(np.all(A.a >= -tol) and np.all(np.abs(sums - 1.0) <= tol))


def row_sum_profile(A, row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> RowSumProfile:
    """Row sums plus the constant-row-sum flag and common value r.

    r is the mean of the row sums (no row is privileged).
    """
    if not row_sum_tol >= 0:  # NaN too
        raise ValueError(f"row_sum_tol must be nonnegative, got {row_sum_tol}")
    A = as_matrix(A)
    sums = A.a.sum(axis=1)
    # halved and doubled exactly, so two finite sums near the float range
    # cannot add up to inf; the mean lies between the least and the greatest
    # sum, so the clamp removes only rounding, and equal sums give r exactly
    r = min(max(float((sums / 2).mean() * 2), float(sums.min())), float(sums.max()))
    constant = bool(np.abs(sums - r).max() <= row_sum_tol)
    return RowSumProfile(sums=sums, is_constant=constant, r=r if constant else None)

