"""Coupled map lattice simulator x(k+1) = A_k F_k(x(k)) with distance
tracking to the synchronization manifold (the diagonal span) and the
product criterion c(A_k) * rho_k for global synchronization.

F_k applies a scalar map elementwise; rho_k is its Lipschitz constant on
the declared domain.  The coupling matrices need constant row sums but
not nonnegativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractivity import contractivity, contractivity_linf, RowSumError
from .matcore import row_sum_profile
from .products import MatrixSequence, check_convergence_condition
from .projections import L1, Norm, linf, project_columns

DEFAULT_SYNC_TOL = 1e-10
DOMAIN_TOL = 1e-12  # slack before a state counts as outside its map's domain


@dataclass(frozen=True)
class MapDef:
    """Scalar map with its Lipschitz constant on a domain."""

    kind: str
    f: callable
    rho: float
    domain: tuple[float, float] | None  # None = all of R
    rho_is_estimate: bool = False


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
        return MapDef(kind, lambda x: a * x * (1.0 - x), rho=a, domain=(0.0, 1.0))
    if kind == "tent":
        s = float(param("s"))
        if not np.isfinite(s) or s < 0:
            raise ValueError("tent slope must be finite and nonnegative")
        return MapDef(kind, lambda x: s * np.minimum(x, 1.0 - x), rho=s, domain=(0.0, 1.0))
    if kind == "affine":
        a, b = float(param("a")), float(param("b"))
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("affine parameters must be finite")
        return MapDef(kind, lambda x: a * x + b, rho=abs(a), domain=None)
    if kind == "custom_table":
        xs = np.asarray(param("xs"), dtype=float)
        ys = np.asarray(param("ys"), dtype=float)
        if xs.size < 2 or xs.size != ys.size or np.any(np.diff(xs) <= 0):
            raise ValueError("table needs >= 2 strictly increasing abscissae")
        rho = float(np.abs(np.diff(ys) / np.diff(xs)).max())
        return MapDef(kind, lambda x: np.interp(x, xs, ys), rho=rho,
                      domain=(float(xs[0]), float(xs[-1])), rho_is_estimate=True)
    raise ValueError(f"unknown map kind {kind!r}")


@dataclass
class SimTrace:
    states: np.ndarray  # rows x(k), k = 0..steps (fewer after divergence)
    distances: np.ndarray  # d(x(k), X*) per row of states
    bound: np.ndarray | None  # envelope d0 * prod c(A_j) rho_j, when c is available
    synchronized_at: int | None
    envelope_valid_until: int | None  # None = valid throughout
    domain_exits: list  # step indices where a state left the map domain
    diverged: bool

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
             norm: Norm | None = None, sync_tol: float = DEFAULT_SYNC_TOL) -> SimTrace:
    """Iterate the lattice for the given number of steps (at least 1).

    maps may be a single MapDef or a sequence, cycled when shorter than
    the horizon.  The envelope column multiplies c(A_k) * rho_k per step
    when the coefficient is available for the chosen norm; c(A_k) is
    recomputed only when A_k is not the same object as A_(k-1).  The
    envelope is marked void from the first step where a state leaves the
    declared map domain (the Lipschitz constant only holds there).
    Non-finite states flag divergence and truncate the trace.  Raises
    ValueError when steps is below 1 or exceeds a finite sequence.
    The loop only iterates into one states array; distances, domain exits,
    the sync step and the envelope are computed over that array after it.
    """
    norm = linf() if norm is None else norm
    maps = [maps] if isinstance(maps, MapDef) else list(maps)
    if not maps:
        raise ValueError("need at least one map")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if A_seq.items is not None and steps > len(A_seq.items):
        raise ValueError("steps exceed sequence length")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != A_seq.n or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite vector matching the matrix sequence")
    if not row_sum_profile(A_seq[0]).is_constant:
        raise RowSumError("coupling matrices must have constant row sums")

    states = np.empty((steps + 1, x.size))
    states[0] = x
    factors = np.empty((steps, 2))  # row k: c(A_k), rho_k
    bound_available = True
    A_prev = c = None
    used = steps + 1
    # divergence is an outcome the trace reports: a state, distance or
    # envelope past the float range is inf (or nan) and raises no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            mp = maps[k % len(maps)]
            A = A_seq[k]
            x = A.a @ mp.f(x)
            if not np.isfinite(x).all():
                used = k + 1
                break
            states[k + 1] = x
            if bound_available:
                if A is not A_prev:  # a repeated coupling keeps its coefficient
                    c = _coefficient_or_none(A, norm)
                    A_prev = A
                if c is None:
                    bound_available = False
                else:
                    factors[k] = c, mp.rho
        states = states[:used]
        # states.T has contiguous columns: bit for bit the per-state distances
        distances = project_columns(states.T, norm)[1]
        # cumprod of d0, c_0, rho_0, c_1, ... is bound[k] * c_k * rho_k at even places
        bound = (np.cumprod(np.append(distances[0], factors[:used - 1]))[::2]
                 if bound_available else None)

    exits = np.zeros(min(used, steps), dtype=bool)  # the states fed to a map
    for i, mp in enumerate(maps):
        if mp.domain is not None:
            rows = states[i:steps:len(maps)]
            exits[i::len(maps)] = ((rows < mp.domain[0] - DOMAIN_TOL)
                                   | (rows > mp.domain[1] + DOMAIN_TOL)).any(axis=1)
    domain_exits = np.flatnonzero(exits).tolist()
    synced = np.flatnonzero(distances < sync_tol)

    return SimTrace(
        states=states,
        distances=distances,
        bound=bound,
        synchronized_at=int(synced[0]) if synced.size else None,
        envelope_valid_until=domain_exits[0] if domain_exits else None,
        domain_exits=domain_exits,
        diverged=used <= steps)


def check_sync_condition(c_values, rho_values, horizon: int | None = None) -> dict:
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
    conv = check_convergence_condition(c_values * rho_values, horizon)
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
    count = rho_values.size
    if A_seq.items is not None and len(A_seq.items) != count:
        raise ValueError("need one Lipschitz constant per matrix")
    # contractivity_linf raises RowSumError for non-constant row sums
    worst = max((contractivity_linf(A_seq[k]).c - 1.0 / rho_values[k] for k in range(count)),
                default=-np.inf)
    return bool(worst < 0)
