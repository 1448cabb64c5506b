"""Set-contractivity coefficients of constant row sum matrices.

For the diagonal span X* = {alpha * e}, the coefficient
c(A) = sup_{x not in X*} d(Ax, X*) / d(x, X*) is r - mu(A) under the
max norm.  Under a weighted Euclidean norm ||W^(1/2) A W^(-1) K||_2, K
an orthonormal basis of e-perp, bounds c(A) from above; its w = e case
is the paper's Euclidean ||A K||_2, equal to c(A) when the column sums
are also constant.  As K K^T = I - J/n, one routine computes both with
no basis: the spectral norm of W^(1/2) A W^(-1) less its row means.
``contractivity(A, norm)`` is the one dispatch from a norm to its
formula; spectral norms come from the LAPACK SVD through numpy, so a
non-converging SVD surfaces as np.linalg.LinAlgError.

Also provides Monte Carlo / exhaustive sampling oracles, the spectral
paracontractivity check, and the affine stochastic decomposition of
set-nonexpansive maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import Matrix, as_matrix, is_scrambling, is_stochastic, mu, row_sum_profile
from .projections import LINF, L2, WL2, Norm, linf, project, project_columns, weighted_l2

_EXACT_TOL = 1e-12
_SAMPLE_CHUNK = 20000  # columns per batch in empirical_contractivity
_UNIT_SV_TOL = 1e-8  # is_paracontractive_l2: |s - 1| below it counts as s = 1
_FIXED_TOL = 1e-6  # is_paracontractive_l2: B fixes V1 when ||B V1 - V1|| is below it


class RowSumError(ValueError):
    """Operation requires constant row sums and the input does not have them."""


@dataclass(frozen=True)
class ContractivityReport:
    norm: Norm
    c: float
    is_set_nonexpansive: bool
    is_set_contractive: bool
    method: str  # closed_form_linf | spectral_l2 | weighted_bound
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


def basis_K(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of e, as the
    columns of a read-only n x (n-1) array.

    Built from the Householder reflector mapping e/sqrt(n) to the first
    standard basis vector; columns 2..n of the reflector span e-perp.
    The coefficients need none; it is their independent reference.
    """
    if n < 2:
        raise ValueError("basis requires n >= 2")
    u = np.full(n, 1.0 / np.sqrt(n))
    v = u - np.eye(n)[0]
    H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    K = H[:, 1:].copy()
    K.setflags(write=False)
    return K


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


def _require_constant_row_sum(A: Matrix, row_sum_tol: float) -> float:
    profile = row_sum_profile(A, row_sum_tol)
    if not profile.is_constant:
        raise RowSumError("matrix does not have constant row sums")
    return profile.r


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
    with w = e every scaling is by 1.0, which is exact."""
    M = np.sqrt(w)[:, None] * A.a * (1.0 / w)[None, :]
    M -= M.mean(axis=1, keepdims=True)
    return spectral_norm_2(M)


def _linf_report(r: float, mu_value: float) -> ContractivityReport:
    """The max-norm report from the common row sum r and mu(A); a caller
    that already holds mu(A) builds the report without a second pass."""
    return _report(linf(), r - mu_value, "closed_form_linf")


def contractivity_linf(A, row_sum_tol: float = 1e-9) -> ContractivityReport:
    """Exact c(A) = r - mu(A) under the max norm (constant row sums only)."""
    A = as_matrix(A)
    r = _require_constant_row_sum(A, row_sum_tol)
    return _linf_report(r, mu(A))


def contractivity_l2(A, row_sum_tol: float = 1e-9) -> ContractivityReport:
    """||A K||_2 under the Euclidean norm: an upper bound on
    c(A) = sup d(Ax, X*) / d(x, X*), equal to it when the column sums are
    also constant within row_sum_tol; otherwise the report is bound-only."""
    A = as_matrix(A)
    _require_constant_row_sum(A, row_sum_tol)
    col_sums = A.a.sum(axis=0)
    exact = np.abs(col_sums - col_sums.mean()).max() <= row_sum_tol
    return _report(Norm(L2), _spectral_coefficient(A, np.ones(A.n)), "spectral_l2",
                   bound_only=not exact)


def contractivity_weighted_bound(A, w, row_sum_tol: float = 1e-9) -> ContractivityReport:
    """Upper bound ||W^(1/2) A W^(-1) K||_2 on c(A) under the w-weighted norm.

    Only an upper bound: the set-contractive verdict is asserted when the
    bound is < 1, but a bound >= 1 proves nothing.
    """
    A = as_matrix(A)
    _require_constant_row_sum(A, row_sum_tol)
    norm = weighted_l2(w)  # validates positivity, renormalizes max(w) = 1
    if norm.weights.size != A.n:
        raise ValueError("weight vector length must equal matrix dimension")
    return _report(norm, _spectral_coefficient(A, norm.weights), "weighted_bound",
                   bound_only=True)


def contractivity(A, norm: Norm, row_sum_tol: float = 1e-9) -> ContractivityReport:
    """Dispatch to the closed form / bound for the given norm."""
    if norm.kind == LINF:
        return contractivity_linf(A, row_sum_tol)
    if norm.kind == L2:
        return contractivity_l2(A, row_sum_tol)
    if norm.kind == WL2:
        return contractivity_weighted_bound(A, norm.weights, row_sum_tol)
    raise ValueError(f"no contractivity formula for norm {norm.kind!r}")


def empirical_contractivity(A, norm: Norm, samples: int = 10000,
                            seed: int = 0) -> float:
    """Monte Carlo lower bound on c(A): max over sampled x outside the
    diagonal span of d(Ax, X*) / d(x, X*).

    Samples are standard normal vectors with their projection removed, so
    the sup over the unit sphere of the complement is being probed.
    Deterministic for a fixed seed.
    """
    A = as_matrix(A)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining > 0:
        m = min(_SAMPLE_CHUNK, remaining)
        remaining -= m
        X = rng.standard_normal((A.n, m))
        alpha, dist = project_columns(X, norm)
        keep = dist > 1e-12
        if not np.any(keep):
            continue
        X = (X[:, keep] - alpha[keep]) / dist[keep]
        _, dout = project_columns(A.a @ X, norm)
        best = max(best, float(dout.max()))
    return best


def exhaustive_binary_contractivity(A, norm: Norm | None = None) -> float:
    """Max of d(Ax, X*) / d(x, X*) over all binary vectors x in {0,1}^n
    excluding 0 and e.

    Under the max norm this restricted maximum attains the exact
    coefficient r - mu(A) for constant row sum matrices.
    """
    A = as_matrix(A)
    if norm is None:
        norm = linf()
    n = A.n
    if n < 2:
        return 0.0
    codes = np.arange(1, 2 ** n - 1)
    X = ((codes[None, :] >> np.arange(n)[:, None]) & 1).astype(float)
    _, din = project_columns(X, norm)
    _, dout = project_columns(A.a @ X, norm)
    return float((dout / din).max())


def is_paracontractive_l2(B) -> bool:
    """Spectral test of the paracontracting property under the Euclidean
    norm: ||Bx|| < ||x|| exactly for the non-fixed points x.

    For linear B with ||B||_2 <= 1, ||Bx|| = ||x|| exactly on V1, the
    right singular subspace for singular value 1, which contains the fixed
    points; so B is paracontracting iff it also fixes V1 pointwise.  One
    SVD gives ||B||_2 and V1; the residual B V1 - V1 is measured in the
    Frobenius norm, which bounds its 2-norm and needs no second SVD.
    """
    B = as_matrix(B)
    _, s, Vt = np.linalg.svd(B.a)
    if s[0] > 1.0 + _UNIT_SV_TOL:
        return False
    V1 = Vt[np.abs(s - 1.0) < _UNIT_SV_TOL].T
    return bool(np.linalg.norm(B.a @ V1 - V1) < _FIXED_TOL)


def is_pseudocontractive_stochastic_linf(A) -> bool:
    """For stochastic A, pseudocontractivity under the max norm is
    equivalent to the scrambling property."""
    A = as_matrix(A)
    if not is_stochastic(A):
        raise ValueError("matrix must be stochastic")
    return is_scrambling(A)


def decompose_affine(A, x, row_sum_tol: float = 1e-9) -> AffineDecomposition:
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
    rep = contractivity_linf(A, row_sum_tol)
    if not rep.is_set_nonexpansive:
        raise ValueError("matrix is not set-nonexpansive under the max norm")
    n = A.n
    ax = A.a @ x
    xstar_alpha = project(ax, linf()).alpha - project(x, linf()).alpha
    xstar = np.full(n, xstar_alpha)
    y = ax - xstar
    lo, hi = int(np.argmin(x)), int(np.argmax(x))
    if x[hi] - x[lo] <= 1e-14:
        B = np.full((n, n), 1.0 / n)
        xstar = ax - B @ x
        return AffineDecomposition(B=Matrix(B, zero_tol=A.zero_tol), xstar=xstar)
    lam = (x[hi] - y) / (x[hi] - x[lo])
    lam = np.clip(lam, 0.0, 1.0)
    B = np.zeros((n, n))
    B[:, lo] = lam
    B[:, hi] += 1.0 - lam
    return AffineDecomposition(B=Matrix(B, zero_tol=A.zero_tol), xstar=xstar)
