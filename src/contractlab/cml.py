"""Coupled map lattice simulator x(k+1) = A_k F_k(x(k)) with distance
tracking to the synchronization manifold (the diagonal span) and the
envelope d(x(0)) * prod c(A_k) * rho_k that bounds that distance.

F_k applies a scalar map elementwise; rho_k is its Lipschitz constant on
the declared domain.  The coupling matrices need constant row sums but
not nonnegativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractivity import RowSumError, coefficients
from .io import check_fields, is_real
from .matcore import DEFAULT_ROW_SUM_TOL, DEFAULT_SYNC_TOL, row_sum_profile
from .products import MatrixSequence
from .projections import Norm, _weights_for, linf, project_columns

DOMAIN_TOL = 1e-12  # slack before a state counts as outside its map's domain
BLOCK = 64  # steps taken between two tests for a non-finite state
_MAP_PARAMETERS = {"logistic": ("a",), "tent": ("s",), "affine": ("a", "b"),
                  "custom_table": ("xs", "ys")}


@dataclass(frozen=True)
class MapDef:
    """Scalar map with its Lipschitz constant on a domain."""

    kind: str
    f: callable
    rho: float
    domain: tuple[float, float] | None  # None = all of R


def make_map(spec: dict) -> MapDef:
    """Build a map from a spec dict.

    kinds: {"kind": "logistic", "a": a} with f(x) = a x (1 - x) on [0,1]
    and rho = a; {"kind": "tent", "s": s} on [0,1] with rho = s;
    {"kind": "affine", "a": a, "b": b} on R with rho = |a|;
    {"kind": "custom_table", "xs": [...], "ys": [...]} piecewise linear,
    flat outside xs, so rho = its largest segment slope exactly.  Parameters are real
    numbers, and table entries lists of them: a bool or a string such as
    "3.9" is not one.  A spec that is not a dict, whose parameters of its
    kind are missing or not numbers, or that holds a parameter its kind
    does not take, raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("map spec must be an object")
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in _MAP_PARAMETERS):
        raise ValueError(f"unknown map kind {kind!r}")
    check_fields(spec, ("kind", *_MAP_PARAMETERS[kind]), f"{kind} map parameter")

    def param(name):
        if name not in spec:
            raise ValueError(f"{kind} map needs parameter {name!r}")
        return spec[name]

    def number(name):
        value = param(name)
        if not is_real(value):
            raise ValueError(f"{kind} map parameter {name!r} must be a number, got {value!r}")
        return float(value)

    def table(name):
        values = param(name)
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if not (isinstance(values, (list, tuple)) and all(map(is_real, values))):
            raise ValueError(f"{kind} map parameter {name!r} must be a list of numbers")
        return np.array(values, dtype=float)

    if kind == "logistic":
        a = number("a")
        if not np.isfinite(a) or a < 0:
            raise ValueError("logistic parameter must be finite and nonnegative")
        return MapDef(kind, lambda x: a * x * (1.0 - x), rho=a, domain=(0.0, 1.0))
    if kind == "tent":
        s = number("s")
        if not np.isfinite(s) or s < 0:
            raise ValueError("tent slope must be finite and nonnegative")
        return MapDef(kind, lambda x: s * np.minimum(x, 1.0 - x), rho=s, domain=(0.0, 1.0))
    if kind == "affine":
        a, b = number("a"), number("b")
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("affine parameters must be finite")
        return MapDef(kind, lambda x: a * x + b, rho=abs(a), domain=None)
    xs, ys = table("xs"), table("ys")  # custom_table
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("table entries must be finite")
    if xs.size < 2 or xs.size != ys.size or np.any(np.diff(xs) <= 0):
        raise ValueError("table needs >= 2 strictly increasing abscissae")
    rho = float(np.abs(np.diff(ys) / np.diff(xs)).max())
    return MapDef(kind, lambda x: np.interp(x, xs, ys), rho=rho,
                  domain=(float(xs[0]), float(xs[-1])))


@dataclass
class SimTrace:
    states: np.ndarray  # rows x(k), k = 0..steps (fewer after divergence)
    distances: np.ndarray  # d(x(k), X*) per row of states
    bound: np.ndarray | None  # envelope d0 * prod c(A_j) rho_j, when every c exists
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


def simulate(A_seq: MatrixSequence, maps, x0, steps: int, norm: Norm | None = None,
             sync_tol: float = DEFAULT_SYNC_TOL,
             row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> SimTrace:
    """Iterate the lattice for the given number of steps (at least 1).

    maps may be a single MapDef or a sequence, cycled when shorter than
    the horizon.  The envelope column multiplies c(A_k) * rho_k per step
    when every coupling kept has constant row sums within row_sum_tol,
    as the first coupling must; c(A_k) is computed once per distinct
    coupling.  The envelope is marked void
    from the first step where a state leaves the declared map domain (the
    Lipschitz constant only holds there).
    Non-finite states flag divergence and truncate the trace before the
    first of them.  The test runs once per BLOCK steps, so a map may be
    called on up to BLOCK - 1 states past that one: each MapDef.f must
    accept inf and nan, and leave its argument unchanged.  Raises
    ValueError when steps is below 1 or exceeds a finite sequence, when
    sync_tol is negative or NaN, or when a wl2 norm's weight count is
    not the lattice size (before any coupling is fetched).
    Each step only iterates into one states array and records its
    coupling; the finiteness test runs per block, and distances, domain
    exits, the sync step and the envelope come after the loop.
    """
    norm = linf() if norm is None else norm
    _weights_for(norm, A_seq.n)
    maps = [maps] if isinstance(maps, MapDef) else list(maps)
    if not maps:
        raise ValueError("need at least one map")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not sync_tol >= 0:  # NaN too
        raise ValueError(f"sync_tol must be nonnegative, got {sync_tol}")
    if A_seq.items is not None and steps > len(A_seq.items):
        raise ValueError("steps exceed sequence length")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != A_seq.n or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite vector matching the matrix sequence")
    if not row_sum_profile(A_seq[0], row_sum_tol).is_constant:
        raise RowSumError("coupling matrices must have constant row sums")

    states = np.empty((steps + 1, x.size))
    states[0] = x
    couplings = []  # A_k of each step, cut to the states kept
    used = steps + 1
    # divergence is an outcome the trace reports: a state, distance or
    # envelope past the float range is inf (or nan) and raises no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, BLOCK):
            stop = min(start + BLOCK, steps)
            for k in range(start, stop):
                A = A_seq[k]
                couplings.append(A)
                np.matmul(A.a, maps[k % len(maps)].f(states[k]), out=states[k + 1])
            finite = np.isfinite(states[start + 1:stop + 1]).all(axis=1)
            if not finite.all():  # the trace stops before the first non-finite state
                used = start + 1 + int(finite.argmin())
                break
        states = states[:used]
        del couplings[used - 1:]
        # states.T has contiguous columns: bit for bit the per-state distances
        distances = project_columns(states.T, norm)[1]
        try:
            c = coefficients(couplings, norm, row_sum_tol)
        except RowSumError:
            c = None
        rho = np.resize([mp.rho for mp in maps], len(couplings))  # rho_k cycles with the maps
        # cumprod of d0, c_0, rho_0, c_1, ... is bound[k] * c_k * rho_k at even places
        bound = (None if c is None else
                 np.cumprod(np.append(distances[0], np.column_stack((c, rho))))[::2])

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
