"""Coupled map lattice simulator x(k+1) = A_k F_k(x(k)) with distance
tracking to the synchronization manifold (the diagonal span) and the
product criterion c(A_k) * rho_k for global synchronization.

F_k applies a scalar map elementwise; rho_k is its Lipschitz constant on
the declared domain.  The coupling matrices need constant row sums but
not nonnegativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contractivity import contractivity, contractivity_linf, RowSumError
from .matcore import row_sum_profile
from .products import PRODUCT_ZERO_THRESHOLD, MatrixSequence, check_convergence_condition
from .projections import L1, Norm, distance_to_diagonal, linf

DEFAULT_SYNC_TOL = 1e-10


@dataclass(frozen=True)
class MapDef:
    """Scalar map with its Lipschitz constant on a domain."""

    kind: str
    f: callable
    rho: float
    domain: tuple[float, float] | None  # None = all of R
    rho_is_estimate: bool = False
    params: dict = field(default_factory=dict)


def make_map(spec: dict) -> MapDef:
    """Build a map from a spec dict.

    kinds: {"kind": "logistic", "a": a} with f(x) = a x (1 - x) on [0,1]
    and rho = a; {"kind": "tent", "s": s} on [0,1] with rho = s;
    {"kind": "affine", "a": a, "b": b} on R with rho = |a|;
    {"kind": "custom_table", "xs": [...], "ys": [...]} piecewise linear
    with rho estimated as the largest segment slope.  A spec that is not
    a dict, or that lacks a parameter of its kind, raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("map spec must be an object")
    kind = spec.get("kind")

    def param(name):
        if name not in spec:
            raise ValueError(f"{kind} map needs parameter {name!r}")
        return spec[name]

    if kind == "logistic":
        a = float(param("a"))
        if not np.isfinite(a) or a < 0:
            raise ValueError("logistic parameter must be finite and nonnegative")
        return MapDef(kind, lambda x: a * x * (1.0 - x), rho=a,
                      domain=(0.0, 1.0), params={"a": a})
    if kind == "tent":
        s = float(param("s"))
        if not np.isfinite(s) or s < 0:
            raise ValueError("tent slope must be finite and nonnegative")
        return MapDef(kind, lambda x: s * np.minimum(x, 1.0 - x), rho=s,
                      domain=(0.0, 1.0), params={"s": s})
    if kind == "affine":
        a, b = float(param("a")), float(param("b"))
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("affine parameters must be finite")
        return MapDef(kind, lambda x: a * x + b, rho=abs(a),
                      domain=None, params={"a": a, "b": b})
    if kind == "custom_table":
        xs = np.asarray(param("xs"), dtype=float)
        ys = np.asarray(param("ys"), dtype=float)
        if xs.size < 2 or xs.size != ys.size or np.any(np.diff(xs) <= 0):
            raise ValueError("table needs >= 2 strictly increasing abscissae")
        rho = float(np.abs(np.diff(ys) / np.diff(xs)).max())
        return MapDef(kind, lambda x: np.interp(x, xs, ys), rho=rho,
                      domain=(float(xs[0]), float(xs[-1])), rho_is_estimate=True,
                      params={"points": int(xs.size)})
    raise ValueError(f"unknown map kind {kind!r}")


@dataclass
class SimTrace:
    states: list  # x(k) vectors, k = 0..steps (may be truncated)
    distances: np.ndarray  # d(x(k), X*) per step
    bound: np.ndarray | None  # envelope d0 * prod c(A_j) rho_j, when c is available
    synchronized_at: int | None
    envelope_valid_until: int | None  # None = valid throughout
    domain_exits: list  # step indices where a state left the map domain
    diverged: bool

    def to_records(self) -> list[dict]:
        out = []
        for k, d in enumerate(self.distances):
            rec = {"k": k, "d": float(d)}
            if self.bound is not None:
                rec["bound"] = float(self.bound[k])
            out.append(rec)
        return out

    def summary(self) -> dict:
        return {
            "steps": len(self.distances) - 1,
            "final_distance": float(self.distances[-1]),
            "synchronized_at": self.synchronized_at,
            "envelope_valid": self.envelope_valid_until is None,
            "envelope_valid_until": self.envelope_valid_until,
            "domain_exits": list(self.domain_exits),
            "diverged": self.diverged,
        }


def _coefficient_or_none(A, norm: Norm) -> float | None:
    if norm.kind == L1:
        return None  # no closed form; envelope unavailable under l1
    try:
        return contractivity(A, norm).c
    except RowSumError:
        return None


def simulate(A_seq: MatrixSequence, maps, x0, steps: int,
             norm: Norm | None = None, sync_tol: float = DEFAULT_SYNC_TOL,
             domain_tol: float = 1e-12) -> SimTrace:
    """Iterate the lattice for the given number of steps.

    maps may be a single MapDef or a sequence, cycled when shorter than
    the horizon.  The envelope column multiplies c(A_k) * rho_k per step
    when the coefficient is available for the chosen norm; c(A_k) is
    recomputed only when A_k is not the same object as A_(k-1).  The
    envelope is marked void from the first step where a state leaves the
    declared map domain (the Lipschitz constant only holds there).
    Non-finite states flag divergence and truncate the trace.  Raises
    ValueError when steps exceed a finite sequence.
    """
    if norm is None:
        norm = linf()
    if isinstance(maps, MapDef):
        maps = [maps]
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    if A_seq.items is not None and steps > len(A_seq.items):
        raise ValueError("steps exceed sequence length")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size != A_seq.n:
        raise ValueError("x0 dimension must match the matrix sequence")
    profile = row_sum_profile(A_seq[0])
    if not profile.is_constant:
        raise RowSumError("coupling matrices must have constant row sums")

    d0 = distance_to_diagonal(x, norm)
    states = [x.copy()]
    distances = [d0]
    bound = [d0]
    bound_available = True
    envelope_valid_until = None
    domain_exits = []
    synchronized_at = 0 if d0 < sync_tol else None
    diverged = False
    A_prev = c = None

    for k in range(steps):
        mp = maps[k % len(maps)]
        if mp.domain is not None:
            lo, hi = mp.domain
            if np.any(x < lo - domain_tol) or np.any(x > hi + domain_tol):
                domain_exits.append(k)
                if envelope_valid_until is None:
                    envelope_valid_until = k
        A = A_seq[k]
        x = A.a @ mp.f(x)
        if not np.all(np.isfinite(x)):
            diverged = True
            break
        states.append(x.copy())
        d = distance_to_diagonal(x, norm)
        distances.append(d)
        if bound_available:
            if A is not A_prev:  # a repeated coupling keeps its coefficient
                c = _coefficient_or_none(A, norm)
                A_prev = A
            if c is None:
                bound_available = False
            else:
                bound.append(bound[-1] * c * mp.rho)
        if synchronized_at is None and d < sync_tol:
            synchronized_at = k + 1

    return SimTrace(
        states=states,
        distances=np.asarray(distances),
        bound=np.asarray(bound) if bound_available else None,
        synchronized_at=synchronized_at,
        envelope_valid_until=envelope_valid_until,
        domain_exits=domain_exits,
        diverged=diverged)


def check_sync_condition(c_values, rho_values, horizon: int | None = None,
                         threshold: float = PRODUCT_ZERO_THRESHOLD) -> dict:
    """Running products of c(A_k) * rho_k and a finite-horizon verdict on
    whether they reach (numerically) zero.  Signs are checked per factor:
    c < 0 with rho = 0 gives c * rho = -0.0, which check_convergence_condition
    accepts."""
    c_values = np.asarray(c_values, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    if c_values.shape != rho_values.shape:
        raise ValueError("sequences must have equal length")
    if np.any(c_values < 0) or np.any(rho_values < 0):
        raise ValueError("inputs must be nonnegative")
    if horizon is not None and horizon > c_values.size:
        raise ValueError("horizon exceeds sequence length")
    conv = check_convergence_condition(c_values * rho_values, horizon, threshold)
    return {
        "criterion_holds_over_horizon": conv["converges_to_zero_over_horizon"],
        "running_product": conv["running_products"],
    }


def check_sync_corollary(A_seq: MatrixSequence, rho_values) -> bool:
    """Max-norm sufficient condition: sup_k r(A_k) - mu(A_k) - 1/rho_k < 0,
    evaluated over the provided finite family."""
    rho_values = np.asarray(rho_values, dtype=float)
    if np.any(rho_values <= 0):
        raise ValueError("Lipschitz constants must be positive")
    if A_seq.items is not None:
        count = len(A_seq.items)
    else:
        count = rho_values.size
    if rho_values.size != count:
        raise ValueError("need one Lipschitz constant per matrix")
    # contractivity_linf raises RowSumError for non-constant row sums
    worst = max((contractivity_linf(A_seq[k]).c - 1.0 / rho_values[k] for k in range(count)),
                default=-np.inf)
    return bool(worst < 0)
