"""Set-contractivity coefficients of constant row sum matrices.

For the diagonal span X* = {alpha * e}, the coefficient
c(A) = sup_{x not in X*} d(Ax, X*) / d(x, X*) is r - mu(A) under the
max norm, clamped at 0 so that rounding cannot make it negative.  Under
the l1 norm it is the largest l1 distance from a column of A to X*:
d(Ax, X*) is convex in x and, with constant row sums, the same at
x + alpha e, so its max over the unit ball B1 + span(e) of d(x, X*) is
at a vertex +-e_j, where d(e_j, X*) = 1 (n >= 2).  Under a weighted
Euclidean norm ||W^(1/2) A W^(-1) K||_2, K an orthonormal
basis of e-perp, bounds c(A) from above; its w = e case is the paper's
Euclidean ||A K||_2, equal to c(A) when the column sums are also
constant.  As K K^T = I - J/n, one routine computes both with no basis:
the spectral norm of W^(1/2) A W^(-1) less its row means.
``contractivity(A, norm)`` holds every norm's formula and validates A
once; spectral norms come from the LAPACK SVD through numpy, so a
non-converging SVD surfaces as np.linalg.LinAlgError.

Also provides the ratio attained at one x, the maximizer under l2 and
wl2, and the affine stochastic decomposition of set-nonexpansive maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_ROW_SUM_TOL,
    Matrix,
    as_matrix,
    mu,
    row_sum_profile,
)
from .projections import LINF, L1, L2, Norm, _weights_for, l2, linf, project, project_columns

_EXACT_TOL = 1e-12


class RowSumError(ValueError):
    """Operation requires constant row sums and the input does not have them."""


@dataclass(frozen=True)
class ContractivityReport:
    norm: Norm
    c: float
    is_set_nonexpansive: bool
    is_set_contractive: bool
    method: str  # closed_form_linf | spectral_l2 | closed_form_l1 | weighted_bound
    is_bound_only: bool = False

    def to_json(self) -> dict:
        return {
            "norm": str(self.norm),
            "c": self.c,
            "bound_only": self.is_bound_only,
            "set_nonexpansive": self.is_set_nonexpansive,
            "set_contractive": self.is_set_contractive,
            "method": self.method,
        }


@dataclass(frozen=True)
class AffineDecomposition:
    B: Matrix
    xstar: np.ndarray  # constant vector in the diagonal span


def spectral_norm_2(M) -> float:
    """Largest singular value of a rectangular matrix, from the LAPACK SVD
    behind ``np.linalg.norm(M, 2)``.

    Raises ValueError for input that is not 2-d or not finite, and
    np.linalg.LinAlgError if the SVD does not converge.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.all(np.isfinite(M)):
        raise ValueError("entries must be finite")
    return float(np.linalg.norm(M, 2))


def _report(norm: Norm, c: float, method: str, bound_only: bool = False) -> ContractivityReport:
    """The one verdict rule: nonexpansive iff c <= 1, contractive iff c < 1, up to _EXACT_TOL."""
    c = float(c)
    return ContractivityReport(
        norm=norm, c=c,
        is_set_nonexpansive=c <= 1.0 + _EXACT_TOL,
        is_set_contractive=c < 1.0 - _EXACT_TOL,
        method=method, is_bound_only=bound_only)


def _spectral_coefficient(A: Matrix, w: np.ndarray) -> float:
    """||W^(1/2) A W^(-1) K||_2 as ||M - row means of M||_2, M = W^(1/2) A W^(-1);
    with w = e every scaling is by 1.0, which is exact.  Where M less its
    row means is not finite the result is inf: it is an upper bound, so
    inf is sound, and it proves nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.sqrt(w)[:, None] * A.a * (1.0 / w)[None, :]
        M -= M.mean(axis=1, keepdims=True)
    return spectral_norm_2(M) if np.isfinite(M).all() else np.inf


def _linf_report(r: float, mu_value: float) -> ContractivityReport:
    """The max-norm report from the common row sum r and mu(A); a caller
    that already holds mu(A) builds the report without a second pass.
    mu(A) <= min_i s_i <= r exactly, so the clamp at 0 removes only
    rounding; max keeps its first argument when it is inf or nan."""
    return _report(linf(), max(r - mu_value, 0.0), "closed_form_linf")


def contractivity(A, norm: Norm, row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> ContractivityReport:
    """c(A) under norm, from that norm's formula in the module docstring;
    A is validated and its row sums checked once.  linf and l1 are exact,
    l2 is exact when the column sums are also constant within row_sum_tol,
    and wl2 is always an upper bound: below 1 it proves set-contractivity,
    at 1 or above it proves nothing.  Raises RowSumError without constant
    row sums."""
    A = as_matrix(A)
    profile = row_sum_profile(A, row_sum_tol)
    if not profile.is_constant:
        raise RowSumError("matrix does not have constant row sums")
    if norm.kind == LINF:
        return _linf_report(profile.r, mu(A))
    if norm.kind == L1:
        return _report(norm, project_columns(A.a, norm)[1].max(), "closed_form_l1")
    if norm.kind == L2:
        exact = row_sum_profile(A.a.T, row_sum_tol).is_constant  # column sums
        return _report(norm, _spectral_coefficient(A, np.ones(A.n)), "spectral_l2",
                       bound_only=not exact)
    return _report(norm, _spectral_coefficient(A, _weights_for(norm, A.n)), "weighted_bound",
                   bound_only=True)


def contractivity_linf(A) -> ContractivityReport:
    """contractivity(A, linf())."""
    return contractivity(A, linf())


def contractivity_l2(A) -> ContractivityReport:
    """contractivity(A, l2())."""
    return contractivity(A, l2())


def coefficients(matrices, norm: Norm, row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> list:
    """contractivity(A, norm, row_sum_tol).c for each Matrix of the list,
    computed once per distinct object and in list order, so the first
    matrix that fails raises; a RowSumError names its index.  A sequence
    repeats an item by reference."""
    c_of = {}
    for k, A in enumerate(matrices):
        if A not in c_of:
            try:
                c_of[A] = contractivity(A, norm, row_sum_tol).c
            except RowSumError as exc:
                raise RowSumError(f"item {k}: {exc}") from exc
    return [c_of[A] for A in matrices]


def attained_lower_bound(A, norm: Norm) -> float:
    """d(Ax, X*) / d(x, X*) at x = W^(-1/2) v, v the top eigenvector of
    M^T M: a lower bound on c(A) under norm, and the sup under l2 and wl2.
    With W = diag(w) (w = e but under wl2) and Q_w = I - e w^T / (w^T e),
    d(x, X*) = ||W^(1/2) Q_w x||_2 and Q_w A Q_w = Q_w A, so for y =
    W^(1/2) x the ratio is ||M y|| / ||P y||, M = W^(1/2) Q_w A W^(-1/2)
    = M P, P the orthogonal projector onto the complement of W^(1/2) e:
    its sup ||M||_2 is ||M v||.  0.0 where d(x, X*) = 0 (n = 1); nan
    where M is not finite."""
    A = as_matrix(A)
    w = np.ones(A.n) if norm.weights is None else _weights_for(norm, A.n)
    root = np.sqrt(w)
    with np.errstate(over="ignore", invalid="ignore"):
        M = root[:, None] * (A.a - w @ A.a / w.sum()) / root  # Q_w A = A - e w^T A / w^T e
    if not np.all(np.isfinite(M)):
        return float("nan")
    M /= np.abs(M).max() or 1.0  # keeps M^T M finite; v is the same
    x = np.linalg.eigh(M.T @ M)[1][:, -1] / root
    _, (d_in, d_out) = project_columns(np.column_stack((x, A.a @ x)), norm)
    return float(d_out / d_in) if d_in > 0 else 0.0


def decompose_affine(A, x, row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> AffineDecomposition:
    """Affine stochastic form of the action of A at x: find row-stochastic
    B and a constant vector xstar with B x = A x - xstar.

    Requires A set-nonexpansive under the max norm (c = r - mu <= 1).
    Each row of B mixes the argmin and argmax coordinates of x; when A is
    set-contractive and x is off the diagonal span, both mixing weights
    are strictly positive in every row and B is scrambling.  For constant
    x the averaging matrix (1/n) e e^T is returned.
    """
    A = as_matrix(A)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != A.n or not np.all(np.isfinite(x)):
        raise ValueError("x must be a finite vector matching the matrix dimension")
    rep = contractivity(A, linf(), row_sum_tol)
    if not rep.is_set_nonexpansive:
        raise ValueError("matrix is not set-nonexpansive under the max norm")
    n = A.n
    ax = A.a @ x
    xstar_alpha = project(ax, linf()).alpha - project(x, linf()).alpha
    xstar = np.full(n, xstar_alpha)
    lo, hi = int(np.argmin(x)), int(np.argmax(x))
    if x[hi] == x[lo]:
        B = np.full((n, n), 1.0 / n)
    else:
        # halving is exact, and the halves' spread is finite where x's is not
        with np.errstate(over="ignore"):
            s = 1.0 if np.isfinite(x[hi] - x[lo]) else 0.5
        y, z = s * x, s * (ax - xstar)
        lam = np.clip((y[hi] - z) / (y[hi] - y[lo]), 0.0, 1.0)
        B = np.zeros((n, n))
        B[:, lo] = lam
        B[:, hi] += 1.0 - lam
    return AffineDecomposition(B=Matrix(B), xstar=xstar)
