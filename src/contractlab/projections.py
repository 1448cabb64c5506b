"""Projection onto the diagonal span {alpha * e} and the distance to it
under the max, Euclidean, l1, and weighted Euclidean norms.

Closed forms: the l2 projection coefficient is the mean, the max-norm
coefficient is the midpoint of the range, the l1 coefficient is a median,
and the weighted-l2 coefficient is sum(w * x) / sum(w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINF = "linf"
L2 = "l2"
L1 = "l1"
WL2 = "wl2"


class NormError(ValueError):
    """Invalid norm specification or incompatible vector."""


@dataclass(frozen=True)
class Norm:
    """Norm selector.  For kind 'wl2' carries a positive weight vector,
    renormalized at construction so that max(w) = 1."""

    kind: str
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (LINF, L2, L1, WL2):
            raise NormError(f"unknown norm kind {self.kind!r}")
        if self.kind == WL2:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise NormError("weighted norm requires a finite positive weight vector")
            w = w / w.max()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise NormError(f"norm {self.kind!r} takes no weights")

    def __str__(self):
        return self.kind


def linf() -> Norm:
    return Norm(LINF)


def l2() -> Norm:
    return Norm(L2)


def l1() -> Norm:
    return Norm(L1)


def weighted_l2(w) -> Norm:
    return Norm(WL2, np.asarray(w, dtype=float))


def norm_from_name(name: str, weights=None) -> Norm:
    if name == WL2:
        if weights is None:
            raise NormError("wl2 norm requires weights")
        return weighted_l2(weights)
    return Norm(name)


@dataclass(frozen=True)
class Projection:
    alpha: float
    distance: float


def vector_norm(x, norm: Norm) -> float:
    """The norm of x under the given selector."""
    x = np.asarray(x, dtype=float)
    if norm.kind == LINF:
        return float(np.abs(x).max())
    if norm.kind == L2:
        return float(np.sqrt(np.sum(x * x)))
    if norm.kind == L1:
        return float(np.abs(x).sum())
    w = _weights_for(norm, x.shape[-1])
    return float(np.sqrt(np.sum(w * x * x)))


def _weights_for(norm: Norm, n: int) -> np.ndarray:
    if norm.weights.size != n:
        raise NormError(f"weight vector length {norm.weights.size} != vector length {n}")
    return norm.weights


def _check_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise NormError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise NormError("vector entries must be finite")
    return x


def project(x, norm: Norm) -> Projection:
    """Projection coefficient alpha (so P(x) = alpha*e) and the distance
    of x to the diagonal span under the given norm.

    For l1 with even n the minimizing alpha is any value between the two
    middle order statistics; the lower median is returned (the distance
    does not depend on the choice).
    """
    alpha, dist = project_columns(_check_vector(x)[:, None], norm)
    return Projection(alpha=float(alpha[0]), distance=float(dist[0]))


def distance_to_diagonal(x, norm: Norm) -> float:
    return project(x, norm).distance


def project_columns(X: np.ndarray, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """project applied to each column of an n x m array; project itself
    is the one-column case.

    Returns (alpha, distance) arrays of length m.  Reductions run down the
    columns, so when X has contiguous columns (say, the transpose of a
    C-ordered stack of vectors) each result is project's, bit for bit.
    A finite column whose alpha or distance overflows is divided by its
    largest magnitude and that value's result scaled back, so it is inf
    only when the true value is past the float range.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, dist = _project_columns(X, norm)
        redo = np.flatnonzero(~(np.isfinite(alpha) & np.isfinite(dist)))
        redo = redo[np.isfinite(X[:, redo]).all(axis=0)]
        if redo.size:
            scale = np.abs(X[:, redo]).max(axis=0)
            a, d = _project_columns(X[:, redo] / scale, norm)
            alpha[redo] = np.where(np.isfinite(alpha[redo]), alpha[redo], a * scale)
            dist[redo] = np.where(np.isfinite(dist[redo]), dist[redo], d * scale)
    return alpha, dist


def _project_columns(X: np.ndarray, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    n = X.shape[0]
    if norm.kind == L2:
        alpha = X.mean(axis=0)
        dist = np.sqrt(((X - alpha) ** 2).sum(axis=0))
    elif norm.kind == LINF:
        hi, lo = X.max(axis=0), X.min(axis=0)
        alpha = 0.5 * (hi + lo)
        dist = 0.5 * (hi - lo)
    elif norm.kind == L1:
        Xs = np.sort(X, axis=0)
        alpha = Xs[(n + 1) // 2 - 1]
        dist = Xs[(n + 1) // 2:].sum(axis=0) - Xs[: n // 2].sum(axis=0)
    else:
        w = _weights_for(norm, n)
        alpha = (w[:, None] * X).sum(axis=0) / w.sum()
        dist = np.sqrt((w[:, None] * (X - alpha) ** 2).sum(axis=0))
    return alpha, dist
