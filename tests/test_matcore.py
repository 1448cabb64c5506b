import math
import tracemalloc

import numpy as np
import pytest

from contractlab import matcore
from contractlab.graphs import interaction_digraph
from contractlab.matcore import (
    Matrix,
    MatrixError,
    delta,
    is_scrambling,
    is_stochastic,
    mu,
    mu_delta,
    nonzero_pattern,
    row_sum_profile,
)
from contractlab.products import MatrixSequence
from contractlab.reference import A1, A3, A4

from conftest import delta_halfsum, random_nonneg_row_sum, random_stochastic, rank_one_matrices


def test_matrix_validation():
    with pytest.raises(MatrixError):
        Matrix(np.ones((2, 3)))
    with pytest.raises(MatrixError):
        Matrix(np.array([[np.nan]]))
    # the structural-zero threshold is an argument of each pattern reader
    for zero_tol in (-1.0, np.nan):
        for reads_pattern in (nonzero_pattern, is_scrambling, interaction_digraph):
            with pytest.raises(ValueError, match="zero_tol"):
                reads_pattern(np.eye(2), zero_tol)


@pytest.mark.parametrize("tol", [-1e-9, np.nan])
def test_row_sum_tolerance_must_be_nonnegative(tol):
    # NaN compares false to everything: it would reject every row sum
    with pytest.raises(ValueError, match="row_sum_tol"):
        row_sum_profile(A4, tol)
    with pytest.raises(ValueError, match="tol"):
        is_stochastic(A4, tol)


def test_matrix_immutable():
    m = Matrix(np.eye(2))
    with pytest.raises(ValueError):
        m.a[0, 0] = 5.0


def test_matrix_compares_by_identity():
    A, B = Matrix(np.eye(2)), Matrix(np.eye(2))
    assert A != B and A == A
    assert hash(A) == hash(A)
    assert {A, A, B} == {A, B}
    assert A not in [B] and A in [B, A]


def test_mu_examples():
    assert mu(A1) == 0.6
    assert mu(np.eye(3)) == 0.0
    assert mu([[0.5, 0.5], [0.5, 0.5]]) == 1.0
    assert mu(A4) == pytest.approx(0.1, abs=1e-15)


def test_mu_n1_is_row_sum():
    assert mu([[2.5]]) == 2.5


def test_delta_examples():
    assert delta(A1) == pytest.approx(0.5, abs=1e-15)
    assert delta(np.eye(3)) == 1.0
    assert delta([[0.3, 0.7], [0.3, 0.7]]) == 0.0
    assert delta([[4.2]]) == 0.0


def test_scrambling_examples():
    assert is_scrambling(A4)
    assert not is_scrambling(A3)
    assert not is_scrambling(np.eye(4))
    assert is_scrambling([[7.0]])


def test_scrambling_respects_zero_tol():
    a = np.array([[1.0, 1e-15], [1e-15, 1.0]])
    assert not is_scrambling(Matrix(a))
    assert is_scrambling(Matrix(a), zero_tol=1e-16)
    assert is_scrambling(a, 1e-16) and not is_scrambling(a, 1e-12)


def test_is_stochastic():
    assert is_stochastic(A4)
    assert not is_stochastic(A1)  # row sums 1.1
    assert is_stochastic(np.eye(5))
    assert not is_stochastic([[0.5, 0.5], [-0.2, 1.2]])


def test_row_sum_profile():
    p = row_sum_profile(A1)
    assert p.is_constant and p.r == pytest.approx(1.1)
    p = row_sum_profile([[1.0, 0.0], [0.5, 0.6]])
    assert not p.is_constant and p.r is None
    p = row_sum_profile(np.zeros((3, 3)))
    assert p.is_constant and p.r == 0.0


def test_row_sum_profile_of_equal_sums_is_exact():
    # the mean of n equal sums can round off them; r stays within the sums
    for A in rank_one_matrices():
        p = row_sum_profile(A, 0.0)
        assert p.is_constant and p.r == p.sums[0] == mu(A), A.a


def test_paz_inequality_random():
    # delta(A) <= r - mu(A) whenever all row sums are <= r
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a = rng.random((n, n)) * rng.uniform(0.2, 3.0)
        r = float(a.sum(axis=1).max())
        assert delta(a) <= r - mu(a) + 1e-10


def test_spread_contraction_random():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        A = random_nonneg_row_sum(n, rng)
        x = rng.standard_normal(n) * 10
        assert np.ptp(A.a @ x) <= delta(A) * np.ptp(x) + 1e-10


def test_mu_positive_iff_scrambling():
    rng = np.random.default_rng(103)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        A = random_nonneg_row_sum(n, rng, density=float(rng.uniform(0.3, 1.0)))
        r = float(A.a.sum(axis=1).max())
        m = mu(A)
        assert 0.0 <= m <= r + 1e-12
        assert (m > 0) == is_scrambling(A)


def test_delta_halfsum_agrees_for_constant_row_sums():
    rng = np.random.default_rng(104)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        A = random_stochastic(n, rng)
        assert delta(A) == pytest.approx(delta_halfsum(A), abs=1e-12)


def test_delta_equals_r_minus_mu_for_constant_row_sums():
    # r - sum_k min(a_ik, a_jk) = sum_k max(0, a_ik - a_jk) when row i sums to r
    rng = np.random.default_rng(105)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) if trial % 2 else rng.random((n, n))
        a += (rng.uniform(-2.0, 2.0) - a.sum(axis=1, keepdims=True)) / n
        r = row_sum_profile(a).r
        assert r is not None
        assert delta(a) == pytest.approx(r - mu(a), abs=1e-12)


def assert_row_pair_functionals_match_direct_broadcast(a):
    """mu and delta of a equal, bit for bit, the reductions
    of the full n x n x n broadcast; returns the scrambling flag, checked
    against the broadcast pattern."""
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    x, y = a[:, None, :], a[None, :, :]
    expected_mu = float(a.sum()) if n == 1 else float(np.minimum(x, y).sum(axis=2)[iu].min())
    assert mu(a) == expected_mu
    assert delta(a) == float(np.maximum(0.0, x - y).sum(axis=2).max())
    nz = np.abs(a) > 1e-12
    expected = bool((nz[:, None, :] & nz[None, :, :]).any(axis=2)[iu].all())
    assert is_scrambling(a) == expected
    return expected


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 40, 41, 101, 150, 257])
@pytest.mark.parametrize("signed", [False, True])
def test_row_pair_functionals_match_direct_broadcast(n, signed):
    # up to n = 40 the table is one tile; from n = 41 on it is tiled over
    # i and j, and the last tile is shorter in both (tile edges 39, 25,
    # 20 and 15)
    rng = np.random.default_rng(n)
    scrambling = set()
    # a dense matrix is scrambling; at 97% zeros every n > 1 drawn here is not
    for zero_fraction in (0.0, 0.5, 0.97):
        a = rng.standard_normal((n, n)) if signed else rng.random((n, n))
        a[rng.random((n, n)) < zero_fraction] = 0.0
        scrambling.add(assert_row_pair_functionals_match_direct_broadcast(a))
    assert scrambling == ({True} if n == 1 else {True, False})


@pytest.mark.parametrize("n", [30, 47])
def test_row_pair_functionals_match_direct_broadcast_near_rank_one(n):
    # partial products of a stochastic sequence: delta falls to about 1e-8
    # by k = 20, 1e-12 by k = 30 and rounding level (~4e-16) by k = 40, so
    # each term is a difference of nearly equal numbers
    seq = MatrixSequence(generator={"kind": "random_stochastic_spanning_tree",
                                    "n": n, "seed": 3})
    acc = np.eye(n)
    for k in range(300):
        acc = seq[k].a @ acc
        if k in (20, 30, 40, 299):
            assert_row_pair_functionals_match_direct_broadcast(acc)
    assert 0.0 < delta(acc) < 1e-14
    v = np.random.default_rng(n).random(n)
    rank_one = np.outer(np.ones(n), v / v.sum())
    assert_row_pair_functionals_match_direct_broadcast(rank_one)
    assert delta(rank_one) == 0.0


def test_delta_at_n30_holds_one_tile_buffer():
    # the n x n x n terms of one tile (210.9 KiB at n = 30), not a second
    # temporary of that size beside them
    n = 30
    A = Matrix(np.random.default_rng(108).random((n, n)))
    delta(A)
    tracemalloc.start()
    try:
        delta(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * n ** 3 <= peak < 2 * 8 * n ** 3


@pytest.mark.parametrize("fn", [mu, delta, is_scrambling])
def test_row_pair_functionals_memory_is_quadratic(fn):
    # an n x n x n float temporary at n = 400 would take 488 MiB
    a = np.random.default_rng(106).random((400, 400))
    A = Matrix(a)
    tracemalloc.start()
    try:
        fn(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def near_rank_one(n, rng):
    """Identical rows but for a relative perturbation of about 1e-16: every
    pair's delta sits at rounding level, so mu_delta takes the full sweep."""
    v = rng.random(n)
    return np.outer(np.ones(n), v / v.sum()) * (1.0 + 1e-16 * rng.standard_normal((n, n)))


@pytest.mark.parametrize("fn, near_rank_one_input", [
    pytest.param(mu, False, id="mu"),
    pytest.param(delta, False, id="delta"),
    pytest.param(mu_delta, False, id="mu_delta"),
    pytest.param(mu_delta, True, id="mu_delta-near_rank_one"),
])
def test_row_pair_kernel_memory_is_one_table(fn, near_rank_one_input):
    # the n x n result (1.2 MiB at n = 400) plus one small tile temporary
    rng = np.random.default_rng(107)
    A = Matrix(near_rank_one(400, rng) if near_rank_one_input else rng.random((400, 400)))
    tracemalloc.start()
    try:
        fn(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def broadcast_mu_delta(a):
    """mu and delta from the plain n x n x n broadcast, a few rows i at a
    time so that the oracle's memory stays small; each entry is the same
    reduction over the last axis."""
    n = a.shape[0]
    if n == 1:
        return float(a.sum()), 0.0
    minima, positive_parts = np.empty((n, n)), np.empty((n, n))
    for i in range(0, n, 16):
        x, y = a[i:i + 16, None, :], a[None, :, :]
        minima[i:i + 16] = np.minimum(x, y).sum(axis=2)
        positive_parts[i:i + 16] = np.maximum(0.0, x - y).sum(axis=2)
    return float(minima[np.triu_indices(n, k=1)].min()), float(positive_parts.max())


def mu_delta_family(family, n, rng):
    if family == "uniform":
        return rng.random((n, n))
    if family == "signed_normal":
        return rng.standard_normal((n, n))
    if family == "sparse_stochastic":
        return random_stochastic(n, rng, density=0.5).a
    if family == "tie_heavy":  # few distinct integer rows: many pairs tie for delta
        rows = rng.integers(0, 4, size=(max(1, n // 8), n)).astype(float)
        return rows[rng.integers(0, len(rows), size=n)]
    if family == "near_rank_one":
        return near_rank_one(n, rng)
    if family == "stochastic_product":  # delta near or at the rounding floor
        acc = np.eye(n)
        for _ in range(31):
            acc = random_stochastic(n, rng, density=0.3).a @ acc
        return acc
    if family == "scale_1e300":  # no sum overflows: 4 M stays below 1e304
        return 1e300 * rng.standard_normal((n, n))
    raise ValueError(family)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 101, 257])
@pytest.mark.parametrize("family", ["uniform", "signed_normal", "sparse_stochastic",
                                    "tie_heavy", "near_rank_one", "stochastic_product",
                                    "scale_1e300"])
def test_mu_delta_matches_direct_broadcast(family, n):
    # mu from the half-tile walk, delta recomputed on the pairs whose
    # estimate s_i - T[i, j] lies within 2 eps of the largest, or the full
    # sweep: either way the broadcast's bits
    a = mu_delta_family(family, n, np.random.default_rng([n, len(family)]))
    assert mu_delta(a) == broadcast_mu_delta(a)


def counting_full_sweeps(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return delta_sweep(a)

    delta_sweep = matcore._delta
    monkeypatch.setattr(matcore, "_delta", counting)
    return calls


def test_mu_delta_recomputes_only_near_maximal_pairs(monkeypatch):
    # a random matrix keeps a few pairs, far fewer than n, and makes no
    # second sweep
    full_sweeps = counting_full_sweeps(monkeypatch)
    a = np.random.default_rng(109).random((120, 120))
    assert mu_delta(a) == broadcast_mu_delta(a)
    assert full_sweeps == []


def test_mu_delta_falls_back_above_n_candidates(monkeypatch):
    # identical rows: every estimate is 0, all n^2 pairs qualify
    full_sweeps = counting_full_sweeps(monkeypatch)
    v = np.random.default_rng(110).random(50)
    a = np.tile(v, (50, 1))
    assert mu_delta(a) == broadcast_mu_delta(a) == (float(v.sum()), 0.0)
    assert full_sweeps == [(50, 50)]


@pytest.mark.parametrize("scale", [5e307, 1e308])
def test_mu_delta_falls_back_when_eps_is_not_finite(monkeypatch, scale):
    # 4 M overflows at 5e307 though every sum and delta is finite; at 1e308
    # the difference of rows 0 and 1 overflows too, and so do delta and mu
    full_sweeps = counting_full_sweeps(monkeypatch)
    a = scale * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore"):
        got, expected = mu_delta(a), broadcast_mu_delta(a)
    assert got == expected
    assert math.isfinite(got[1]) == (scale < 1e308)
    assert full_sweeps == [(3, 3)]


def delta_bound_family(family, n, count, rng):
    """count arrays of one family, for the bound on the computed delta."""
    if family == "stochastic":
        return [random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0))).a
                for _ in range(count)]
    if family == "signed_constant_row_sum":
        out = []
        for _ in range(count):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-12, 3)
            out.append(a - (a.sum(axis=1, keepdims=True) - rng.uniform(-2, 2)) / n)
        return out
    if family == "near_rank_one":
        return [near_rank_one(n, rng) for _ in range(count)]
    if family == "floor_product":  # the growing products past ~40 factors
        acc, out = np.eye(n), []
        for k in range(count + 40):
            acc = random_stochastic(n, rng, density=0.3).a @ acc
            if k >= 40:
                out.append(acc)
        return out
    if family == "column_sorted":  # rows 0 and n - 1 hold every column's extremes
        return [np.sort(rng.standard_normal((n, n)), axis=0)[::-1] for _ in range(count)]
    raise ValueError(family)


@pytest.mark.parametrize("n", [1, 2, 3, 30, 47])
def test_delta_bound_is_at_least_the_computed_delta(n):
    # 5 families x 400 arrays at each of 5 sizes: 10^4 arrays in all
    rng = np.random.default_rng([n, 28])
    for family in ["stochastic", "signed_constant_row_sum", "near_rank_one",
                   "floor_product", "column_sorted"]:
        arrays = delta_bound_family(family, n, 400, rng)
        bounds = [matcore._delta_bound(a) for a in arrays]
        assert all(b >= matcore._delta(a) for a, b in zip(arrays, bounds)), family
        if family == "floor_product" and n > 1:  # the products the bound settles
            assert max(bounds) <= 1e-10


def test_delta_bound_past_the_float_range_is_not_finite():
    # inf, or nan for an infinite entry: "b <= x" is false, and the caller sweeps
    a = np.array([[1e308, -1e308], [-1e308, 1e308]])
    assert matcore._delta_bound(a) == math.inf
    assert math.isnan(matcore._delta_bound(np.array([[np.inf, 0.0], [np.inf, 1.0]])))
