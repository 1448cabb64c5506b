"""Finite and infinite products of matrices: the coefficient of a
product of accepted items, and weak-ergodicity bookkeeping.

Composition convention: sequence index k is application time in
x(k+1) = A_k x(k), so the composite operator over [a, b] is
A_b A_(b-1) ... A_a.

A product's row sums are judged only after each item passed at the
tolerance t, and then within ``_product_slack``, the drift such items
allow.

The weak-ergodicity diagnostic walks one delta series per anchor and
judges all of them by one rule.  It reports anchor 0's series; in the
others a product whose ``_delta_bound`` is at most NONINCREASE_TOL enters
as that bound, in O(n^2), and only the rest take the n^3 ``_delta``.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .contractivity import contractivity
from .io import check_fields, exceeds_index, integer, is_real
from .matcore import (DEFAULT_ROW_SUM_TOL, Matrix, MatrixError, _delta, _delta_bound, _gamma,
                      as_matrix, is_stochastic)
from .projections import Norm, _weights_for, linf

PRODUCT_ZERO_THRESHOLD = 1e-12
DELTA_ZERO_THRESHOLD = 1e-8
NONINCREASE_TOL = 1e-10  # the most an anchored delta series may rise in one step
EXTRA_EDGE_PROB = 0.3  # chance of each off-tree edge a generated row has room for

log = logging.getLogger(__name__)


def _max_nonzeros(n: int, min_entry: float) -> int:
    """The most nonzeros a row of random_stochastic_spanning_tree(n, rng,
    min_entry) holds; raises ValueError for a min_entry outside (0, 1],
    or above 1/2 for n > 1."""
    if not 0 < min_entry <= 1:  # also rejects nan
        raise ValueError(f"min_entry must be in (0, 1], got {min_entry!r}")
    # A row never holds more than n nonzeros, so the cap at n changes no
    # draw; it keeps int() finite when 1 / min_entry overflows.
    max_nonzeros = int(min(1.0 / min_entry, n))
    if max_nonzeros < 2 and n > 1:
        raise ValueError(f"min_entry {min_entry!r} too large for a positive diagonal "
                         "plus a tree edge")
    return max_nonzeros


def random_stochastic_spanning_tree(n: int, rng, min_entry: float = 0.05) -> Matrix:
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
    max_nonzeros = _max_nonzeros(n, min_entry)
    order = rng.permutation(n)
    support = np.eye(n, dtype=bool)  # row i: diagonal always present
    # one bounded draw per entry, in order: the stream of integers(idx)
    # called for idx = 1, ..., n - 1
    support[order[1:], order[rng.integers(np.arange(1, n))]] = True

    nnz = support.sum(axis=1)
    rows, cols = np.nonzero(~support)  # each row's free columns, ascending
    bounds = np.concatenate(([0], np.cumsum(n - nnz)))
    # row i draws for its free columns bounds[i]:ends[i], as many as it has
    # room for; a slot past the room is never drawn, and its inf never keeps it
    ends = np.minimum(bounds[1:], bounds[:-1] + (max_nonzeros - nnz)).tolist()
    bounds = bounds.tolist()
    draws = np.full(cols.size, np.inf)
    for start, stop, end in zip(bounds, bounds[1:], ends):
        rng.shuffle(cols[start:stop])
        rng.random(out=draws[start:end])
    keep = draws < EXTRA_EDGE_PROB
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
            check_fields(spec, ("kind", "n", "seed", "min_entry"), "field")
            self.n = integer(spec["n"], "n")
            self._seed = integer(spec.get("seed", 0), "seed")
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")
            if self._seed < 0:
                raise ValueError(f"seed must be >= 0, got {self._seed}")
            min_entry = spec.get("min_entry", 0.05)
            if not is_real(min_entry):
                raise ValueError(f"min_entry must be a real number, got {min_entry!r}")
            self._min_entry = float(min_entry)
            _max_nonzeros(self.n, self._min_entry)  # the generator's range rule, at load
            if exceeds_index(self.n, self.n):
                raise ValueError("n too large: an n x n float64 matrix has more bytes "
                                 "than numpy can index")
            self._cache = {}

    def __getitem__(self, k: int) -> Matrix:
        if self.items is not None:
            return self.items[k]
        if k < 0:
            raise IndexError(k)
        if k not in self._cache:
            rng = np.random.default_rng([self._seed, k])
            self._cache[k] = random_stochastic_spanning_tree(self.n, rng, self._min_entry)
        return self._cache[k]


def _partial_products(factors):
    """Each growing product F_k ... F_0 over the factors, as an array.
    The first is F_0's read-only array.  Each factor is dropped before the
    next is fetched, so a generated item is not kept alive while the next
    is made."""
    acc = None
    for factor in factors:
        acc = factor.a if acc is None else factor.a @ acc
        del factor
        yield acc


def _full_product(factors, first: int) -> Matrix:
    """F_last ... F_first, the factors being items first, first + 1, ...;
    the partial products are not kept.  ValueError naming the items if
    the product overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        last, P = deque(enumerate(_partial_products(factors), first), maxlen=1).pop()
    try:
        return Matrix(P)
    except MatrixError as exc:  # each factor is a finite Matrix: the product overflowed
        raise ValueError(f"product of items {first}..{last} is not finite") from exc


def _product_slack(n: int, t: float, norms) -> float:
    """Slack for the row sums of the computed product P = F_m ... F_1 of
    n x n factors that each passed a row-sum check at t: 2 S, where S =
    t sum_k prod_(j!=k) N_j + ((1 + g)^(2m+1) - 1) prod_j N_j, the N_j >=
    ||F_j||_inf are the norms, g = n u / (1 - n u) and u the unit roundoff.

    A passed F_j has F_j e = r_j e + d_j with ||d_j||_inf <= t, r_j = 1
    for the stochastic check and the mean row sum for the constant one,
    so |r_j| <= N_j (r_j = 1 needs N_j >= 1) for entries of any sign.
    Then P e - r_m ... r_1 e = sum_k r_(k-1) ... r_1 F_m ... F_(k+1) d_k
    is at most t sum_k prod_(j!=k) N_j in the max norm, and rounding
    carried the same way adds 2m + 1 errors of relative size g: the
    factors' row sums, the m - 1 products, and P's row sums and their
    mean (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 3.5 and 4.2; terms in u t are dropped).  So P's row sums lie
    within S of r_m ... r_1, which is 1 for the stochastic check, and
    within 2 S of their mean.  Entry signs are not carried: entries down
    to -t can give a product entry below -2 S.  O(m) from prefix and
    suffix products; inf past the float range.
    """
    prefix = list(itertools.accumulate(norms, operator.mul, initial=1.0))
    suffix = list(itertools.accumulate(reversed(norms), operator.mul, initial=1.0))
    slack = 2.0 * (t * sum(map(operator.mul, prefix, reversed(suffix[:-1])))
                   + math.expm1((2 * len(norms) + 1) * math.log1p(_gamma(n))) * prefix[-1])
    return slack if slack == slack else math.inf  # nan from 0 * inf


def _product_report(factors, norm: Norm, t: float):
    """(P = F_last ... F_0, P's report within _product_slack), for factors
    already judged at t.  Under the max norm c(P) exceeds the product of
    the factors' c only by their row-sum drift, as c = r - mu takes the
    mean row sum r: 16 copies of [[0.6000009, 0.2, 0.2], [0.2, 0.6, 0.2],
    [0.2, 0.2, 0.6]] at t = 1e-6 (``contractlab --row-sum-tol 1e-6
    product``) give 9.29e-07 against 4.30e-07.  Under the Euclidean norms
    each c is an upper bound, and P's can exceed the product."""
    P = _full_product(factors, 0)
    norms = [float(np.abs(F.a).sum(axis=1).max()) for F in factors]
    return P, contractivity(P, norm, _product_slack(P.n, t, norms))


def product(seq: MatrixSequence, frm: int, to: int) -> Matrix:
    """A_to ... A_frm, mapping x(frm) to x(to + 1)."""
    if frm < 0 or to < frm:
        raise IndexError(f"invalid index range [{frm}, {to}]")
    if seq.items is not None and to >= len(seq.items):
        raise IndexError(f"index {to} out of range")
    return _full_product((seq[k] for k in range(frm, to + 1)), frm)


def ergodicity_coefficient(A, norm: Norm | None = None,
                           row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> float:
    """Proper coefficient of ergodicity 1 - c(A) for stochastic A that is
    set-nonexpansive under the chosen norm.  Equals 1 exactly for
    rank-one A = e v^T, whose c(A) is 0.  row_sum_tol is the slack on
    stochasticity, on the constant row sums of c(A) and on c <= 1."""
    A = as_matrix(A)
    if norm is None:
        norm = linf()
    if not is_stochastic(A, row_sum_tol):
        raise ValueError("matrix must be stochastic")
    c = contractivity(A, norm, row_sum_tol).c
    if c > 1.0 + row_sum_tol:
        raise ValueError(f"matrix is not set-nonexpansive under this norm (c = {c:.12g})")
    return float(max(0.0, 1.0 - c))


@dataclass(frozen=True)
class ErgodicityReport:
    horizon: int
    block_len: int
    anchors: tuple
    delta_of_partial_products: np.ndarray  # growing products from anchor 0
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


def _anchored_series(seq: MatrixSequence, anchor: int, horizon: int) -> np.ndarray:
    """delta of each growing product of items anchor..horizon - 1;
    ValueError naming the items of a product that overflowed, which is
    checked only where delta is not finite.

    Anchor 0's series is reported, so each of its products takes _delta.
    Past anchor 0, a product whose _delta_bound b is at most NONINCREASE_TOL
    enters as b, and the product just before one that is not so bounded
    takes _delta; logs at INFO the step (0 at the anchor) from which the
    bound held to the end, and the number of _delta sweeps.  The verdict's
    rule decides on this series as on the exact one, every delta and bound
    being >= 0: a step into a bounded product rises by fl(b - previous) <=
    b <= NONINCREASE_TOL, a step out of one starts from an exact delta, and
    a series that ends at a bound ends below DELTA_ZERO_THRESHOLD.
    """
    settle = anchor > 0
    series = []
    kept = None  # the previous product, while the series holds only its bound
    held_from = None
    sweeps = 0
    for step, acc in enumerate(_partial_products(seq[k] for k in range(anchor, horizon))):
        if settle:
            b = _delta_bound(acc)
            if b <= NONINCREASE_TOL:
                series.append(b)
                kept = acc
                held_from = step if held_from is None else held_from
                continue
            held_from = None
            if kept is not None:
                series[-1], kept = _delta(kept), None
                sweeps += 1
        d = _delta(acc)
        if not (math.isfinite(d) or np.isfinite(acc).all()):
            raise ValueError(f"product of items {anchor}..{anchor + step} is not finite")
        series.append(d)
        sweeps += 1
    if settle:
        log.info("anchor %d: delta bound <= %g %s; %d exact sweeps in %d steps",
                 anchor, NONINCREASE_TOL,
                 "never" if held_from is None else f"from step {held_from} on", sweeps, step + 1)
    return np.array(series)


def weak_ergodicity_diagnostic(seq: MatrixSequence, horizon: int,
                               block_len: int | None = None,
                               norm: Norm | None = None,
                               row_sum_tol: float = DEFAULT_ROW_SUM_TOL) -> ErgodicityReport:
    """Finite-horizon weak-ergodicity bookkeeping for a stochastic
    sequence: delta of growing partial products from several anchors, and
    partial sums of the ergodicity coefficient over consecutive blocks
    (one canonical subsequence choice, i_j = j * block_len).

    The verdict is a diagnostic, never a proof: 'violated_nonincrease'
    when some anchored delta series rises by more than NONINCREASE_TOL in
    one step, else 'consistent' when every series ends below the zero
    threshold.  Each anchor, 0, horizon // 3 and 2 horizon // 3, is one
    _anchored_series; the report holds anchor 0's, in which every product
    takes _delta, and the others settle their bounded steps.  Every item is
    judged stochastic within t = row_sum_tol; a weight count other than
    seq.n fails before any item is fetched.  Each block's product is
    judged within _product_slack, with the norms that acceptance implies:
    entries >= -t and row sums within t of 1 give ||F||_inf <= 1 + (2n - 1) t.
    An anchored product that overflows raises ValueError, as a block does.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seq.items is not None and horizon > len(seq.items):
        raise ValueError("horizon exceeds sequence length")
    if norm is None:
        norm = linf()
    _weights_for(norm, seq.n)
    if block_len is None:
        block_len = max(1, seq.n - 1)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    for k in range(horizon):
        if not is_stochastic(seq[k], row_sum_tol):
            raise ValueError(f"sequence item {k} is not stochastic")

    anchors = sorted({0, horizon // 3, (2 * horizon) // 3})
    walks = [_anchored_series(seq, r, horizon) for r in anchors]

    sums = []
    total = 0.0
    bound = 1.0 + (2 * seq.n - 1) * row_sum_tol  # on each accepted item's ||F||_inf
    for start in range(0, horizon, block_len):
        stop = min(start + block_len, horizon) - 1
        block_tol = _product_slack(seq.n, row_sum_tol, [bound] * (stop - start + 1))
        try:
            total += ergodicity_coefficient(product(seq, start, stop), norm, block_tol)
        except ValueError as exc:  # type(exc) keeps a LinAlgError a LinAlgError
            raise type(exc)(f"block of items {start}..{stop}: {exc}") from exc
        sums.append(total)

    if any(np.any(np.diff(s) > NONINCREASE_TOL) for s in walks):
        verdict = "violated_nonincrease"
    elif all(s[-1] <= DELTA_ZERO_THRESHOLD for s in walks):
        verdict = "consistent_with_weak_ergodicity"
    else:
        verdict = "inconclusive"
    return ErgodicityReport(
        horizon=horizon, block_len=block_len, anchors=tuple(anchors),
        delta_of_partial_products=walks[0],
        block_mu_c_partial_sums=np.asarray(sums),
        verdict=verdict)
