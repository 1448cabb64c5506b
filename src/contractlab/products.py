"""Finite and infinite products of matrices: submultiplicativity of the
contractivity coefficient, finite-horizon convergence diagnostics, the
scrambling-product bound r^(n-1) - eps^(n-1), minimal contractive product
length over a finite family, and weak-ergodicity bookkeeping.

Composition convention: sequence index k is application time in
x(k+1) = A_k x(k), so the composite operator over [a, b] is
A_b A_(b-1) ... A_a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .contractivity import contractivity
from .graphs import has_spanning_directed_tree, interaction_digraph
from .matcore import Matrix, _delta, as_matrix, is_scrambling, is_stochastic, mu
from .projections import Norm, linf

PRODUCT_ZERO_THRESHOLD = 1e-12
DELTA_ZERO_THRESHOLD = 1e-8
ENUMERATION_BUDGET = 10 ** 6
HYPOTHESIS_TOL = 1e-9  # slack on scrambling_product_theorem_check's hypotheses
ERGODICITY_TOL = 1e-9  # slack on stochasticity and on c <= 1 in ergodicity_coefficient


class BudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the product budget."""


def random_stochastic_spanning_tree(n: int, rng, min_entry: float = 0.05,
                                    extra_edge_prob: float = 0.3) -> Matrix:
    """Random stochastic matrix with positive diagonal whose interaction
    digraph contains a spanning directed tree.

    Every structurally nonzero entry is >= min_entry, which must lie in
    (0, 1/2] for n > 1, so that a row has room for its diagonal and a
    tree edge, and in (0, 1] for n = 1.  The tree is drawn by
    attaching each vertex to a random already-reachable parent; a tree
    edge p -> v in the interaction digraph requires A[v, p] != 0.

    The matrix is a function of the state of ``rng`` alone: the same
    seed gives the same matrix, byte for byte, across versions of this
    function, and leaves ``rng`` in the same state.  The draws, in
    order: a permutation, one bounded integer per tree edge, then per
    row a shuffle of its free columns and one uniform per column it has
    room for, then per row one uniform per nonzero entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < min_entry <= 1:  # also rejects nan
        raise ValueError(f"min_entry must be in (0, 1], got {min_entry!r}")
    # A row never holds more than n nonzeros, so the cap at n changes no
    # draw; it keeps int() finite when 1 / min_entry overflows.
    max_nonzeros = int(min(1.0 / min_entry, n))
    if max_nonzeros < 2 and n > 1:
        raise ValueError("min_entry too large for a positive diagonal plus a tree edge")
    order = rng.permutation(n)
    support = np.eye(n, dtype=bool)  # row i: diagonal always present
    # one bounded draw per entry, in order: the stream of integers(idx)
    # called for idx = 1, ..., n - 1
    support[order[1:], order[rng.integers(np.arange(1, n))]] = True

    nnz = support.sum(axis=1)
    rows, cols = np.nonzero(~support)  # each row's free columns, ascending
    bounds = np.concatenate(([0], np.cumsum(n - nnz)))
    # row i draws for its free columns bounds[i]:ends[i], as many as it has
    # room for; a slot past the room is never drawn, and inf never keeps
    # it, whatever extra_edge_prob is
    ends = np.minimum(bounds[1:], bounds[:-1] + (max_nonzeros - nnz)).tolist()
    bounds = bounds.tolist()
    draws = np.full(cols.size, np.inf)
    for start, stop, end in zip(bounds, bounds[1:], ends):
        rng.shuffle(cols[start:stop])
        rng.random(out=draws[start:end])
    keep = draws < extra_edge_prob
    support[rows[keep], cols[keep]] = True

    rows, cols = np.nonzero(support)
    nnz = support.sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(nnz))).tolist()
    u = rng.random(cols.size)  # row i's draws are u[bounds[i]:bounds[i + 1]]
    # each row sums its own slice: np.add.reduceat groups the additions
    # differently, which would change the last bits of the entries
    sums = np.array([np.add.reduce(u[start:stop])
                     for start, stop in zip(bounds, bounds[1:])])
    slack = 1.0 - nnz * min_entry
    a = np.zeros((n, n))
    a[rows, cols] = min_entry + slack[rows] * u / sums[rows]
    return Matrix(a)


def integer(value, name: str) -> int:
    """value as an int: an integer, or a float with an integral value
    such as 30.0.  A fractional or non-finite number, a bool or any other
    type raises ValueError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class MatrixSequence:
    """Finite list of matrices, or a seeded generator producing item k on
    demand (deterministic per seed)."""

    items: list | None = None
    generator: dict | None = None
    n: int = field(init=False)

    def __post_init__(self):
        if (self.items is None) == (self.generator is None):
            raise ValueError("provide exactly one of items or generator")
        if self.items is not None:
            self.items = [as_matrix(m) for m in self.items]
            if not self.items:
                raise ValueError("sequence must be nonempty")
            self.n = self.items[0].n
            if any(m.n != self.n for m in self.items):
                raise ValueError("all matrices must share a dimension")
        else:
            spec = self.generator
            if spec.get("kind") != "random_stochastic_spanning_tree":
                raise ValueError(f"unknown generator kind {spec.get('kind')!r}")
            self.n = integer(spec["n"], "n")
            self._seed = integer(spec.get("seed", 0), "seed")
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")
            if self._seed < 0:
                raise ValueError(f"seed must be >= 0, got {self._seed}")
            self._min_entry = float(spec.get("min_entry", 0.05))
            self._cache = {}

    def __len__(self):
        if self.items is not None:
            return len(self.items)
        raise TypeError("generated sequence has no fixed length")

    def __getitem__(self, k: int) -> Matrix:
        if self.items is not None:
            return self.items[k]
        if k < 0:
            raise IndexError(k)
        if k not in self._cache:
            rng = np.random.default_rng([self._seed, k])
            self._cache[k] = random_stochastic_spanning_tree(self.n, rng, self._min_entry)
        return self._cache[k]


def product(seq: MatrixSequence, frm: int, to: int) -> Matrix:
    """A_to ... A_frm, mapping x(frm) to x(to + 1), at the factors' zero_tol."""
    if frm < 0 or to < frm:
        raise IndexError(f"invalid index range [{frm}, {to}]")
    if seq.items is not None and to >= len(seq.items):
        raise IndexError(f"index {to} out of range")
    acc = np.eye(seq.n)
    for k in range(frm, to + 1):
        factor = seq[k]
        acc, zero_tol = factor.a @ acc, factor.zero_tol
        del factor  # a generated item is not kept alive while the next is made
    return Matrix(acc, zero_tol=zero_tol)


def product_contractivity_bound(seq: MatrixSequence, norm: Norm) -> tuple[float, float]:
    """(coefficient of the full product, product of per-factor
    coefficients).  Under the max norm both are exact and the first never
    exceeds the second.  Under the Euclidean norms every coefficient is an
    upper bound ||W^(1/2) A W^(-1) K||_2 on the sup, and the product's can
    exceed the product of the factors', so there the comparison is
    diagnostic."""
    ms = seq.items
    if ms is None:
        raise ValueError("requires a finite sequence")
    c_exact = contractivity(product(seq, 0, len(ms) - 1), norm).c
    c_bound = 1.0
    for m in ms:
        c_bound *= contractivity(m, norm).c
    return c_exact, c_bound


def check_convergence_condition(c_values, horizon: int | None = None) -> dict:
    """Running products of the per-step coefficients and a finite-horizon
    verdict on whether they reach (numerically) zero.  A surrogate for an
    asymptotic condition, never a proof."""
    c_values = np.asarray(c_values, dtype=float)
    if np.any(c_values < 0):
        raise ValueError("coefficients must be nonnegative")
    if horizon is not None:
        c_values = c_values[:horizon]
    running = np.cumprod(c_values)
    return {
        "converges_to_zero_over_horizon":
            bool(running.size and running[-1] < PRODUCT_ZERO_THRESHOLD),
        "running_products": running,
    }


@dataclass(frozen=True)
class ScramblingProductCheck:
    hypotheses_hold: bool
    failures: tuple
    product_is_scrambling: bool
    mu_product: float
    mu_lower_bound: float
    c_bound: float


def scrambling_product_theorem_check(seq: MatrixSequence, epsilon: float,
                                     r: float) -> ScramblingProductCheck:
    """Check the hypotheses (nonnegative, positive diagonal, nonzero
    entries >= epsilon, row sums <= r, spanning directed tree) on each of
    the first n-1 factors, form their product P, and report whether P is
    scrambling together with mu(P) >= epsilon^(n-1) and the coefficient
    bound r^(n-1) - epsilon^(n-1)."""
    n = seq.n
    need = max(1, n - 1)
    if seq.items is not None and len(seq.items) < need:
        raise ValueError(f"need at least {need} matrices")
    failures = []
    for k in range(need):
        m = seq[k]
        a = m.a
        if np.any(a < -HYPOTHESIS_TOL):
            failures.append((k, "negative entry"))
        if np.any(np.diag(a) <= m.zero_tol):
            failures.append((k, "nonpositive diagonal"))
        nz = m.nonzero_pattern()
        if np.any(a[nz] < epsilon - HYPOTHESIS_TOL):
            failures.append((k, "nonzero entry below epsilon"))
        if np.any(a.sum(axis=1) > r + HYPOTHESIS_TOL):
            failures.append((k, "row sum above r"))
        if not has_spanning_directed_tree(interaction_digraph(m))[0]:
            failures.append((k, "no spanning directed tree"))
    P = product(seq, 0, need - 1)
    return ScramblingProductCheck(
        hypotheses_hold=not failures,
        failures=tuple(failures),
        product_is_scrambling=is_scrambling(P),
        mu_product=mu(P),
        mu_lower_bound=epsilon ** (n - 1),
        c_bound=r ** (n - 1) - epsilon ** (n - 1),
    )


def min_contractive_product_length(H, norm_q: Norm, max_m: int,
                                   predicate: str = "contractive",
                                   budget: int = ENUMERATION_BUDGET) -> int | None:
    """Smallest m <= max_m such that every length-m product over the
    family H satisfies the predicate ('contractive' under norm_q, or
    'scrambling'), or None if no such m is found.

    All |H|^m orderings are enumerated; raises BudgetError when a level
    would exceed the enumeration budget.
    """
    H = [as_matrix(m) for m in H]
    if not H:
        raise ValueError("family must be nonempty")
    if predicate not in ("contractive", "scrambling"):
        raise ValueError(f"unknown predicate {predicate!r}")
    for m in range(1, max_m + 1):
        if len(H) ** m > budget:
            raise BudgetError(f"|H|^{m} exceeds enumeration budget {budget}")
        ok = True
        for combo in itertools.product(H, repeat=m):
            P = combo[0].a
            for factor in combo[1:]:
                P = factor.a @ P
            P = Matrix(P, zero_tol=combo[-1].zero_tol)
            if predicate == "contractive":
                if not contractivity(P, norm_q).is_set_contractive:
                    ok = False
                    break
            elif not is_scrambling(P):
                ok = False
                break
        if ok:
            return m
    return None


def ergodicity_coefficient(A, norm: Norm | None = None) -> float:
    """Proper coefficient of ergodicity 1 - c(A) for stochastic A that is
    set-nonexpansive under the chosen norm.  Equals 1 exactly for
    rank-one A = e v^T."""
    A = as_matrix(A)
    if norm is None:
        norm = linf()
    if not is_stochastic(A, ERGODICITY_TOL):
        raise ValueError("matrix must be stochastic")
    c = contractivity(A, norm).c
    if c > 1.0 + ERGODICITY_TOL:
        raise ValueError(f"matrix is not set-nonexpansive under this norm (c = {c:.12g})")
    return float(min(1.0, max(0.0, 1.0 - c)))


@dataclass(frozen=True)
class ErgodicityReport:
    horizon: int
    block_len: int
    anchors: tuple
    delta_of_partial_products: np.ndarray  # growing products from anchor 0
    delta_by_anchor: dict
    block_mu_c_partial_sums: np.ndarray
    verdict: str  # consistent_with_weak_ergodicity | inconclusive | violated_nonincrease

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "block_len": self.block_len,
            "anchors": list(self.anchors),
            "delta_of_partial_products": [float(v) for v in self.delta_of_partial_products],
            "block_mu_c_partial_sums": [float(v) for v in self.block_mu_c_partial_sums],
            "verdict": self.verdict,
        }


def weak_ergodicity_diagnostic(seq: MatrixSequence, horizon: int,
                               block_len: int | None = None,
                               norm: Norm | None = None) -> ErgodicityReport:
    """Finite-horizon weak-ergodicity bookkeeping for a stochastic
    sequence: delta of growing partial products from several anchors, and
    partial sums of the ergodicity coefficient over consecutive blocks
    (one canonical subsequence choice, i_j = j * block_len).

    The verdict is a diagnostic, never a proof: 'consistent' when every
    anchored delta series ends below the zero threshold.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seq.items is not None and horizon > len(seq.items):
        raise ValueError("horizon exceeds sequence length")
    if norm is None:
        norm = linf()
    if block_len is None:
        block_len = max(1, seq.n - 1)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    for k in range(horizon):
        if not is_stochastic(seq[k]):
            raise ValueError(f"sequence item {k} is not stochastic")

    anchors = sorted({0, horizon // 3, (2 * horizon) // 3} - {horizon})
    delta_by_anchor = {}
    nonincrease_ok = True
    for r in anchors:
        acc = np.eye(seq.n)
        series = []
        for k in range(r, horizon):
            acc = seq[k].a @ acc
            # a product of validated stochastic factors is finite
            series.append(_delta(acc))
        series = np.asarray(series)
        if np.any(np.diff(series) > 1e-10):
            nonincrease_ok = False
        delta_by_anchor[r] = series

    sums = []
    total = 0.0
    for start in range(0, horizon, block_len):
        stop = min(start + block_len, horizon) - 1
        try:
            total += ergodicity_coefficient(product(seq, start, stop), norm)
        except ValueError as exc:  # type(exc) keeps a LinAlgError a LinAlgError
            raise type(exc)(f"block of items {start}..{stop}: {exc}") from exc
        sums.append(total)

    if not nonincrease_ok:
        verdict = "violated_nonincrease"
    elif all(series[-1] <= DELTA_ZERO_THRESHOLD for series in delta_by_anchor.values()):
        verdict = "consistent_with_weak_ergodicity"
    else:
        verdict = "inconclusive"
    return ErgodicityReport(
        horizon=horizon, block_len=block_len, anchors=tuple(anchors),
        delta_of_partial_products=delta_by_anchor[0],
        delta_by_anchor=delta_by_anchor,
        block_mu_c_partial_sums=np.asarray(sums),
        verdict=verdict)
