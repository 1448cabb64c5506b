import tracemalloc

import numpy as np
import pytest

from contractlab import (
    Matrix,
    MatrixSequence,
    delta,
    interaction_digraph,
    is_scrambling,
    is_stochastic,
    mu,
    row_sum_profile,
)
from contractlab.matcore import MatrixError, nonzero_pattern
from contractlab.reference import A1, A3, A4

from conftest import delta_halfsum, random_nonneg_row_sum, random_stochastic


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


@pytest.mark.parametrize("fn", [mu, delta])
def test_row_pair_kernel_memory_is_one_table(fn):
    # the n x n result (1.2 MiB at n = 400) plus one small tile temporary
    A = Matrix(np.random.default_rng(107).random((400, 400)))
    tracemalloc.start()
    try:
        fn(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
