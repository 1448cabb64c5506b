import itertools
import logging
import math
import warnings
import weakref

import numpy as np
import pytest

from contractlab import matcore, products
from contractlab.contractivity import (
    RowSumError,
    attained_lower_bound,
    coefficients,
    contractivity,
    contractivity_l2,
    contractivity_linf,
    spectral_norm_2,
)
from contractlab.graphs import has_spanning_directed_tree, interaction_digraph
from contractlab.matcore import (
    DEFAULT_ROW_SUM_TOL,
    Matrix,
    _UNIT_ROUNDOFF,
    delta,
    is_scrambling,
    is_stochastic,
    mu,
    nonzero_pattern,
    row_sum_profile,
)
from contractlab.products import (
    DELTA_ZERO_THRESHOLD,
    MatrixSequence,
    ergodicity_coefficient,
    product,
    random_stochastic_spanning_tree,
    weak_ergodicity_diagnostic,
)
from contractlab.projections import l2, linf, weighted_l2
from contractlab.reference import A1, A2, A3, A4

from conftest import (
    check_scrambling_product_theorem,
    counting_coefficient,
    random_doubly_constant,
    random_stochastic,
    rank_one_matrices,
    scrambling_product_theorem_failures,
)


def seq_of(*ms):
    return MatrixSequence(items=list(ms))


def test_product_examples():
    assert np.allclose(product(seq_of(np.eye(3), np.eye(3), A4.a), 0, 2).a, A4.a)
    assert np.allclose(product(seq_of(A1.a), 0, 0).a, A1.a)
    rng = np.random.default_rng(0)
    A, B = rng.random((3, 3)), rng.random((3, 3))
    # application order: A acts first, so the composite is B @ A
    assert np.abs(product(seq_of(A, B), 0, 1).a - B @ A).max() < 1e-12


def test_product_index_errors():
    s = seq_of(np.eye(2))
    with pytest.raises(IndexError):
        product(s, 0, 1)
    with pytest.raises(IndexError):
        product(s, -1, 0)
    with pytest.raises(ValueError):
        MatrixSequence(items=[np.eye(2), np.eye(3)])



@pytest.mark.parametrize("action", ["default", "error"])
def test_product_names_its_items_when_it_overflows(action):
    # each H is finite, while H H holds 1e400: a ValueError naming the
    # items and no numpy warning, also with warnings as errors
    seq = seq_of(*[[[1e200, -1e200], [0.0, 1.0]]] * 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        for frm in (0, 1):
            with pytest.raises(ValueError, match=rf"^product of items {frm}\.\.3 is not finite$"):
                product(seq, frm, 3)
    assert caught == []

def frozen_product(seq, frm, to):
    """Frozen copy of product as it was when the walk started from I."""
    acc = np.eye(seq.n)
    for k in range(frm, to + 1):
        acc = seq[k].a @ acc
    return Matrix(acc)


def test_product_matches_identity_started_copy():
    rng = np.random.default_rng(18)
    seqs = [MatrixSequence(generator={"kind": "random_stochastic_spanning_tree",
                                      "n": n, "seed": 7}) for n in (1, 5, 30)]
    seqs.append(MatrixSequence(items=[random_stochastic(6, rng, density=0.5)
                                      for _ in range(3)]))
    for seq in seqs:
        ranges = [(0, 0), (2, 2), (0, 2), (1, 2)]
        for frm, to in ranges + ([(0, 39), (7, 20)] if seq.items is None else []):
            got, want = product(seq, frm, to), frozen_product(seq, frm, to)
            assert got.a.tobytes() == want.a.tobytes()
    # starting from I turned a -0.0 entry into 0.0; the values are the same
    seq = seq_of(np.array([[0.5, -0.0], [-0.0, 1.0]]))
    assert np.array_equal(product(seq, 0, 0).a, frozen_product(seq, 0, 0).a)


@pytest.fixture
def alive_at_fetch(monkeypatch):
    """MatrixSequence.__getitem__ makes each generated item anew, with no
    cache.  The list returned holds, per call, how many items made by
    earlier calls are still alive."""
    live, counts = weakref.WeakValueDictionary(), []  # Matrix is unhashable

    def recompute(self, k):
        if self.items is not None:
            return self.items[k]
        counts.append(len(live))
        item = random_stochastic_spanning_tree(
            self.n, np.random.default_rng([self._seed, k]), self._min_entry)
        live[len(counts)] = item
        return item

    monkeypatch.setattr(MatrixSequence, "__getitem__", recompute)
    return counts


def test_products_hold_one_generated_item_at_a_time(alive_at_fetch):
    spec = {"kind": "random_stochastic_spanning_tree", "n": 5, "seed": 7}
    P = product(MatrixSequence(generator=spec), 0, 39)
    rep = weak_ergodicity_diagnostic(MatrixSequence(generator=spec), 40)
    assert len(alive_at_fetch) == 40 + 161 and max(alive_at_fetch) == 0
    seq = MatrixSequence(generator=spec)
    want = frozen_weak_ergodicity_diagnostic(seq, 40)
    assert P.a.tobytes() == frozen_product(seq, 0, 39).a.tobytes()
    assert rep.delta_of_partial_products.tobytes() == want[3].tobytes()
    assert rep.block_mu_c_partial_sums.tobytes() == want[5].tobytes()


def test_weak_ergodicity_fetches_and_caches(monkeypatch):
    """The counts the benchmark's traced ergodicity run reads at n = 5,
    horizon 40: the stochasticity sweep, the three anchored series
    (anchors 0, 13 and 26) and the ten blocks of 4."""
    fetched, generated = [], []
    getitem, generate = MatrixSequence.__getitem__, products.random_stochastic_spanning_tree
    monkeypatch.setattr(MatrixSequence, "__getitem__",
                        lambda self, k: fetched.append(k) or getitem(self, k))
    monkeypatch.setattr(products, "random_stochastic_spanning_tree",
                        lambda *args: generated.append(args) or generate(*args))
    seq = MatrixSequence(generator={"kind": "random_stochastic_spanning_tree",
                                    "n": 5, "seed": 7})
    weak_ergodicity_diagnostic(seq, horizon=40)
    assert len(fetched) == 161 == 40 + (40 + 27 + 14) + 40
    assert len(generated) == 40 and len(seq._cache) == 40


def test_weak_ergodicity_wrong_weight_count_fails_before_any_fetch(monkeypatch):
    fetched = []
    getitem = MatrixSequence.__getitem__
    monkeypatch.setattr(MatrixSequence, "__getitem__",
                        lambda self, k: fetched.append(k) or getitem(self, k))
    seq = MatrixSequence(generator={"kind": "random_stochastic_spanning_tree",
                                    "n": 30, "seed": 7})
    with pytest.raises(ValueError, match="^weight vector length 29 != vector length 30$"):
        weak_ergodicity_diagnostic(seq, 1000, norm=weighted_l2(np.ones(29)))
    assert fetched == []


def test_weak_ergodicity_row_sum_tol_reaches_items_and_blocks():
    off = A4.a.copy()
    off[0, 0] += 1e-7  # row sum 1 + 1e-7
    seq = seq_of(off, A4.a, off, A4.a)
    with pytest.raises(ValueError, match="sequence item 0 is not stochastic"):
        weak_ergodicity_diagnostic(seq, 4)
    rep = weak_ergodicity_diagnostic(seq, 4, block_len=2, row_sum_tol=1e-6)
    assert len(rep.block_mu_c_partial_sums) == 2
    with pytest.raises(ValueError, match="stochastic"):
        ergodicity_coefficient(off)
    assert ergodicity_coefficient(off, row_sum_tol=1e-6) == pytest.approx(
        ergodicity_coefficient(A4), abs=1e-6)


def test_generated_sequence_deterministic():
    spec = {"kind": "random_stochastic_spanning_tree", "n": 4, "seed": 5, "min_entry": 0.1}
    s1, s2 = MatrixSequence(generator=spec), MatrixSequence(generator=spec)
    for k in (0, 3, 10):
        assert np.array_equal(s1[k].a, s2[k].a)
    assert not np.array_equal(s1[0].a, s1[1].a)


def test_generator_output_properties():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        A = random_stochastic_spanning_tree(n, rng, min_entry=0.05)
        assert np.all(np.diag(A.a) >= 0.05 - 1e-12)
        nz = nonzero_pattern(A)
        assert np.all(A.a[nz] >= 0.05 - 1e-12)
        assert np.abs(A.a.sum(axis=1) - 1.0).max() < 1e-12
        assert has_spanning_directed_tree(interaction_digraph(A))[0]


def scalar_spanning_tree(n, rng, min_entry=0.05):
    """Frozen scalar form of random_stochastic_spanning_tree: sets, lists
    and one scalar draw at a time, keeping each extra edge with
    probability 0.3.  Reference for the draw order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    max_nonzeros = int(1.0 / min_entry)
    if max_nonzeros < 2 and n > 1:
        raise ValueError("min_entry too large for a positive diagonal plus a tree edge")
    order = rng.permutation(n)
    support = [{i} for i in range(n)]
    for idx in range(1, n):
        v = int(order[idx])
        p = int(order[int(rng.integers(idx))])
        support[v].add(p)
    for i in range(n):
        room = max_nonzeros - len(support[i])
        others = [j for j in range(n) if j not in support[i]]
        rng.shuffle(others)
        for j in others[:room]:
            if rng.random() < 0.3:
                support[i].add(j)
    a = np.zeros((n, n))
    for i in range(n):
        cols = sorted(support[i])
        k = len(cols)
        slack = 1.0 - k * min_entry
        u = rng.random(k)
        a[i, cols] = min_entry + slack * u / u.sum()
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 5, 30, 47])
def test_generator_matches_scalar_oracle(n):
    for min_entry in (0.004, 0.05, 0.2, 0.5, 1.0):
        for seed in range(4):
            rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            if n > 1 and min_entry > 0.5:
                for f, g in ((random_stochastic_spanning_tree, rng),
                             (scalar_spanning_tree, ref_rng)):
                    with pytest.raises(ValueError, match="too large"):
                        f(n, g, min_entry)
                continue
            A = random_stochastic_spanning_tree(n, rng, min_entry)
            ref = scalar_spanning_tree(n, ref_rng, min_entry)
            assert A.a.tobytes() == ref.tobytes()
            assert rng.random() == ref_rng.random()  # same share of the stream


@pytest.mark.parametrize("n, min_entry", [
    (0, 0.05), (3, 0.0), (3, -0.1), (3, float("inf")), (3, float("nan")),
    (1, 1.5), (2, 0.6),
])
def test_generator_rejects_bad_arguments_before_drawing(n, min_entry):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        random_stochastic_spanning_tree(n, rng, min_entry)
    assert rng.random() == np.random.default_rng(1).random()


def test_product_contractivity_bound():
    # c(A_m ... A_1) <= c(A_m) ... c(A_1), from the numpy product and each
    # item's coefficient.  Under l2 the exact sup, attained_lower_bound,
    # is submultiplicative and the paper's upper bound is not: c(A3 A3) =
    # 0.971 exceeds c(A3)^2 = 0.882
    A3A3 = Matrix(A3.a @ A3.a)
    assert attained_lower_bound(A3A3, l2()) <= attained_lower_bound(A3, l2()) ** 2 + 1e-12
    assert contractivity(A3A3, l2()).c > contractivity_l2(A3).c ** 2
    c_exact = contractivity_linf(Matrix(A4.a @ A4.a @ A4.a)).c
    assert c_exact <= contractivity_linf(A4).c ** 3 + 1e-10
    J3 = np.full((3, 3), 1.0 / 3.0)
    assert contractivity_linf(Matrix(A4.a @ J3)).c == pytest.approx(0.0, abs=1e-12)


def test_product_contractivity_bound_computes_each_coefficient_once(monkeypatch):
    # the items' coefficients and the product's, as contractlab product takes them
    B = Matrix(np.full((3, 3), 0.05) + 0.85 * np.eye(3))
    seq = MatrixSequence(items=[A4, B] * 10)
    cs = [contractivity_linf(M).c for M in (A4, B)]
    calls = counting_coefficient(monkeypatch)
    c_values = coefficients(seq.items, linf())
    _, rep = products._product_report(seq.items, linf(), DEFAULT_ROW_SUM_TOL)
    # A4 and B once each, then the full product
    assert len(calls) == 3 and calls[0] is A4 and calls[1] is B
    assert rep.c == contractivity_linf(product(seq, 0, 19)).c
    expected = 1.0
    for k in range(20):
        expected *= cs[k % 2]
    assert np.cumprod(c_values)[-1] == expected


# a first row that sums to 1 + 9e-10: within the default 1e-9 of the mean
R3_ITEM = [[0.6000000009, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]


def test_product_contractivity_bound_names_the_item_that_fails():
    far = np.array(R3_ITEM)
    far[0, 0] += 2e-9  # row sums 2.9e-9 apart
    with pytest.raises(RowSumError, match="^item 1: matrix does not have constant row sums$"):
        coefficients(seq_of(R3_ITEM, far, R3_ITEM).items, linf())


def half_shift(n):
    """0.5 I + 0.5 (cyclic shift): its m-th power is first scrambling at m = n / 2."""
    return 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)


def min_product_length(H, holds, max_m):
    """Smallest m <= max_m such that every length-m ordering of the family
    H holds, or None; all |H|^m orderings are enumerated."""
    return next((m for m in range(1, max_m + 1)
                 if all(map(holds, itertools.product(H, repeat=m)))), None)


def ordered_product(factors):
    """F_last ... F_0 by numpy matmuls."""
    P = np.eye(len(factors[0]))
    for F in factors:
        P = F @ P
    return Matrix(P)


def contracts(factors):
    return contractivity(ordered_product(factors), linf()).is_set_contractive


def test_min_contractive_product_length_judges_products_within_the_slack():
    # the path of `contractlab product`: each item is judged at the default
    # tolerance, and the product within the slack the items allow
    def reported_contractive(factors):
        return products._product_report([Matrix(F) for F in factors], linf(),
                                        DEFAULT_ROW_SUM_TOL)[1].is_set_contractive

    F = half_shift(40)
    assert min_product_length([F], reported_contractive, 40) == 20
    F[0, 0] += 9e-10  # row 0 sums to 1 + 9e-10: the item passes at 1e-9
    contractivity(F, linf())
    with pytest.raises(RowSumError):  # F^20 without the slack
        contractivity(np.linalg.matrix_power(F, 20), linf())
    assert min_product_length([F], reported_contractive, 40) == 20


def test_product_slack_values():
    gamma = 3 * _UNIT_ROUNDOFF / (1 - 3 * _UNIT_ROUNDOFF)
    rounding = math.expm1(5 * math.log1p(gamma))  # 2m + 1 roundings at m = 2
    assert products._product_slack(3, 1e-6, [2.0, 0.5]) == pytest.approx(
        2 * (1e-6 * (0.5 + 2.0) + rounding), rel=1e-12)
    assert products._product_slack(3, 0.0, [1.0]) == pytest.approx(
        2 * math.expm1(3 * math.log1p(gamma)), rel=1e-12)
    # past the float range, and 0 * inf: infinite, not an error
    assert products._product_slack(3, 1e300, [5e300] * 5) == math.inf
    assert products._product_slack(3, 0.0, [1e300, 1e300, 0.0]) == math.inf


def dyadic_item(n, rng, t, kind):
    """An n x n item whose computed row sums lie within t of their mean.
    'signed': random signed entries, ||F||_inf about 0.5, 1 or 2, and
    exactly constant row sums before a move of up to t / 2 per row;
    'diagonal': r I with row 0 moved by 0.99 t and the others against it,
    which carries the moves through the product at full size."""
    while True:
        if kind == "diagonal":
            r = rng.integers(16, 33) / 16 * rng.choice([-1.0, 1.0]) / 2
            d = np.full(n, -0.99 * t / max(1, n - 1))
            d[0] = 0.99 * t
            a = np.diag(r + d)
        else:
            # small multiples of a power of two: every sum of them is exact
            scale = 2.0 ** -(max(0, math.floor(math.log2(n / 2))) + rng.integers(-1, 2))
            a = rng.integers(-64, 65, (n, n)) / 64 * scale
            r = rng.integers(-64, 65) / 64 * scale
            a[:, -1] = r - a[:, :-1].sum(axis=1)
            a[:, -1] += rng.uniform(-0.5, 0.5, n) * t
        F = Matrix(a)
        if row_sum_profile(F, t).is_constant:
            return F


@pytest.mark.parametrize("n", [2, 3, 7, 30])
@pytest.mark.parametrize("t", [0.0, 1e-12, 1e-9, 1e-6])
def test_product_slack_bounds_the_row_sums_of_products(n, t):
    rng = np.random.default_rng([n, int(-math.log10(t)) if t else 0])
    small = 0
    for case in range(12):
        kind = "diagonal" if case % 3 == 0 else "signed"
        m = int(rng.integers(1, 51))
        items = [dyadic_item(n, rng, t, kind) for _ in range(m)]
        norms = [float(np.abs(F.a).sum(axis=1).max()) for F in items]
        small += sum(N < 1 for N in norms)
        slack = products._product_slack(n, t, norms)
        sums = product(MatrixSequence(items=items), 0, m - 1).a.sum(axis=1)
        target = math.prod(row_sum_profile(F, t).r for F in items)
        assert np.abs(sums - target).max() <= slack
        assert sums.max() - sums.min() <= slack
    assert small > 0  # some items have ||F||_inf < 1


def test_submultiplicativity_linf():
    rng = np.random.default_rng(30)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        A = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
        B = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
        cab = contractivity_linf(Matrix(B.a @ A.a)).c
        assert cab <= contractivity_linf(A).c * contractivity_linf(B).c + 1e-10


def test_submultiplicativity_l2_doubly_constant():
    # the l2 closed form is the exact coefficient only when column sums
    # are constant too; restrict to that class
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(3, 6))
        A = random_doubly_constant(n, rng)
        B = random_doubly_constant(n, rng)
        cab = contractivity_l2(Matrix(B.a @ A.a)).c
        assert cab <= contractivity_l2(A).c * contractivity_l2(B).c + 1e-10


def test_scrambling_product_theorem_random_instances():
    for seed in range(30):
        n = int(np.random.default_rng(seed).integers(3, 7))
        seq = MatrixSequence(generator={
            "kind": "random_stochastic_spanning_tree", "n": n,
            "seed": seed, "min_entry": 0.08})
        check_scrambling_product_theorem(seq, epsilon=0.08, r=1.0)


def test_scrambling_product_theorem_bad_hypotheses():
    # the swap breaks only the positive diagonal, and its product is not
    # scrambling: the theorem needs that hypothesis
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert scrambling_product_theorem_failures(swap, epsilon=0.5, r=1.0) == (
        "nonpositive diagonal",)
    assert not is_scrambling(swap)


# each hypothesis the checks assert on generated items can fail
@pytest.mark.parametrize("a, epsilon, r, reasons", [
    ([[1.1, -0.1], [0.4, 0.6]], 0.4, 1.0, ("negative entry", "nonzero entry below epsilon")),
    ([[0.9, 0.1], [0.4, 0.6]], 0.4, 1.0, ("nonzero entry below epsilon",)),
    ([[0.6, 0.4], [0.4, 0.6]], 0.4, 0.9, ("row sum above r",)),
    ([[1.0, 0.0], [0.0, 1.0]], 0.4, 1.0, ("no spanning directed tree",)),
])
def test_scrambling_product_theorem_failure_reasons(a, epsilon, r, reasons):
    assert scrambling_product_theorem_failures(np.array(a), epsilon, r) == reasons


def test_scrambling_product_theorem_n2_single_item():
    A = np.array([[0.6, 0.4], [0.4, 0.6]])
    check_scrambling_product_theorem(seq_of(A), epsilon=0.4, r=1.0)


def test_min_contractive_product_length():
    J3 = np.full((3, 3), 1.0 / 3.0)
    assert min_product_length([J3], contracts, 5) == 1
    # absorbing rows keep A2 powers non-scrambling forever
    assert min_product_length([A2.a], contracts, 10) is None
    assert min_product_length([A3.a], contracts, 10) == 2
    assert min_product_length([A3.a], lambda F: is_scrambling(ordered_product(F)), 10) == 2


def test_min_length_mixed_family():
    m = min_product_length([A3.a, A4.a], contracts, 8)
    assert m == 2
    # every ordering of length m contracts, and some ordering of length
    # m - 1 does not (minimality)
    for combo in itertools.product([A3.a, A4.a], repeat=m):
        P = np.eye(3)
        for f in combo:
            P = f @ P
        assert contractivity_linf(Matrix(P)).is_set_contractive
    assert any(
        not contractivity_linf(Matrix(np.linalg.multi_dot(list(combo) + [np.eye(3)]))).is_set_contractive
        for combo in itertools.product([A3.a, A4.a], repeat=m - 1))


def test_ergodicity_coefficient():
    v = np.array([0.2, 0.3, 0.5])
    rank_one = Matrix(np.outer(np.ones(3), v))
    assert ergodicity_coefficient(rank_one) == 1.0
    assert ergodicity_coefficient(np.eye(3)) == 0.0
    assert ergodicity_coefficient(A4) == pytest.approx(mu(A4), abs=1e-12)
    with pytest.raises(ValueError):
        ergodicity_coefficient(A1)  # not stochastic
    with pytest.raises(ValueError):
        ergodicity_coefficient(A4, l2())  # closed form exceeds 1


def test_ergodicity_coefficient_of_rank_one_is_one():
    # c(e v^T) = 0 at the source, so 1 - c needs no clamp from above
    for A in rank_one_matrices():
        assert ergodicity_coefficient(A.a / A.a[0].sum()) == 1.0, A.a


def test_ergodicity_coefficient_properness():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        v = rng.random(n)
        v /= v.sum()
        assert ergodicity_coefficient(np.outer(np.ones(n), v)) == pytest.approx(
            1.0, abs=1e-12)
        A = random_stochastic(n, rng)
        if np.abs(A.a - A.a[0]).max() > 1e-9:  # two rows differ
            assert ergodicity_coefficient(A) < 1.0


def test_one_minus_mu_c_multiplicative_bound():
    rng = np.random.default_rng(34)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        S = [random_stochastic(n, rng, density=float(rng.uniform(0.4, 1.0)))
             for _ in range(3)]
        P = S[2].a @ S[1].a @ S[0].a
        lhs = 1.0 - ergodicity_coefficient(Matrix(P))
        rhs = np.prod([1.0 - ergodicity_coefficient(s) for s in S])
        assert lhs <= rhs + 1e-10


GEN3 = {"kind": "random_stochastic_spanning_tree", "n": 3}


@pytest.mark.parametrize("call, error, message", [
    (lambda: MatrixSequence(), ValueError, "^provide exactly one of items or generator$"),
    (lambda: MatrixSequence(items=[A4.a], generator=GEN3), ValueError,
     "^provide exactly one of items or generator$"),
    (lambda: MatrixSequence(generator=GEN3)[-1], IndexError, "^-1$"),
    (lambda: spectral_norm_2(np.ones(3)), ValueError, "^expected a 2-d array$"),
    (lambda: spectral_norm_2(np.array([[1.0, np.inf]])), ValueError,
     "^entries must be finite$"),
], ids=["no-source", "two-sources", "generated-index-minus-1", "1-d-array", "inf-entry"])
def test_library_rejects_malformed_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_weak_ergodicity_diagnostic_verdicts():
    J3 = np.full((3, 3), 1.0 / 3.0)
    rep = weak_ergodicity_diagnostic(seq_of(*[J3] * 10), horizon=10)
    assert rep.verdict == "consistent_with_weak_ergodicity"
    assert rep.delta_of_partial_products[0] == pytest.approx(0.0, abs=1e-12)

    rep = weak_ergodicity_diagnostic(seq_of(*[np.eye(3)] * 20), horizon=20)
    assert rep.verdict == "inconclusive"
    assert np.all(rep.delta_of_partial_products == 1.0)
    assert np.all(rep.block_mu_c_partial_sums == 0.0)

    rep = weak_ergodicity_diagnostic(seq_of(*[A4.a] * 600), horizon=600)
    assert rep.verdict == "consistent_with_weak_ergodicity"
    ks = np.arange(1, len(rep.delta_of_partial_products) + 1)
    assert np.all(rep.delta_of_partial_products
                  <= (1.0 - mu(A4)) ** ks + 1e-10)
    assert np.all(np.diff(rep.block_mu_c_partial_sums) >= -1e-12)


def test_weak_ergodicity_names_an_overflowing_verdict_only_product():
    # H e = e exactly, so anchor 0's products stay at J, while H^21 has
    # 2^1050: the anchor at 20 overflows at its 21st item, H accepted at 2^50
    J = np.full((2, 2), 0.5)
    H = np.array([[2.0 ** 50, 1 - 2.0 ** 50], [0.0, 1.0]])
    seq = seq_of(J, *[H] * 59)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^product of items 20\.\.40 is not finite$"):
            weak_ergodicity_diagnostic(seq, 60, row_sum_tol=2.0 ** 50)
    # finite products: a verdict, no error
    rep = weak_ergodicity_diagnostic(seq_of(J, *[H] * 19), 20, row_sum_tol=2.0 ** 50)
    assert not rep.delta_of_partial_products.any()


def test_weak_ergodicity_requires_stochastic():
    with pytest.raises(ValueError):
        weak_ergodicity_diagnostic(seq_of(A1.a), horizon=1)


@pytest.mark.parametrize("block_len", [0, -1])
def test_weak_ergodicity_rejects_block_len_below_one(monkeypatch, block_len):
    fetched = []
    getitem = MatrixSequence.__getitem__
    monkeypatch.setattr(MatrixSequence, "__getitem__",
                        lambda self, k: fetched.append(k) or getitem(self, k))
    seq = MatrixSequence(generator={"kind": "random_stochastic_spanning_tree", "n": 3})
    with pytest.raises(ValueError, match="block_len"):
        weak_ergodicity_diagnostic(seq, horizon=5, block_len=block_len)
    assert fetched == []


def frozen_weak_ergodicity_diagnostic(seq, horizon, block_len=None, norm=None):
    """Frozen copy of weak_ergodicity_diagnostic as it was when every
    anchored delta was taken through the public delta(Matrix(acc)).
    Reference for the report, field by field and bit by bit."""
    if norm is None:
        norm = linf()
    if block_len is None:
        block_len = max(1, seq.n - 1)
    for k in range(horizon):
        assert is_stochastic(seq[k])
    anchors = sorted({0, horizon // 3, (2 * horizon) // 3} - {horizon})
    delta_by_anchor = {}
    nonincrease_ok = True
    for r in anchors:
        acc = np.eye(seq.n)
        series = []
        for k in range(r, horizon):
            acc = seq[k].a @ acc
            series.append(delta(Matrix(acc)))
        series = np.asarray(series)
        if np.any(np.diff(series) > 1e-10):
            nonincrease_ok = False
        delta_by_anchor[r] = series
    sums = []
    total = 0.0
    for start in range(0, horizon, block_len):
        stop = min(start + block_len, horizon) - 1
        total += ergodicity_coefficient(product(seq, start, stop), norm)
        sums.append(total)
    if not nonincrease_ok:
        verdict = "violated_nonincrease"
    elif all(series[-1] <= DELTA_ZERO_THRESHOLD for series in delta_by_anchor.values()):
        verdict = "consistent_with_weak_ergodicity"
    else:
        verdict = "inconclusive"
    return (horizon, block_len, tuple(anchors), delta_by_anchor[0], delta_by_anchor,
            np.asarray(sums), verdict)


def assert_report_matches_frozen(seq, horizon, block_len):
    rep = weak_ergodicity_diagnostic(seq, horizon, block_len)
    (horizon_, block_len_, anchors, partial, _, sums,
     verdict) = frozen_weak_ergodicity_diagnostic(seq, horizon, block_len)
    assert rep.horizon == horizon_ and rep.block_len == block_len_
    assert rep.anchors == anchors and rep.verdict == verdict
    for got, want in [(rep.delta_of_partial_products, partial),
                      (rep.block_mu_c_partial_sums, sums)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 30, 47])
def test_weak_ergodicity_matches_frozen_copy_on_generated_sequences(n):
    for seed in (0, 7, 11):
        seq = MatrixSequence(generator={
            "kind": "random_stochastic_spanning_tree", "n": n, "seed": seed})
        for horizon in (1, 2, 40, 300):
            for block_len in (None, 1, 7):
                assert_report_matches_frozen(seq, horizon, block_len)


def test_weak_ergodicity_matches_frozen_copy_on_item_lists():
    rng = np.random.default_rng(40)
    J3 = np.full((3, 3), 1.0 / 3.0)
    lists = [[J3] * 10, [np.eye(3)] * 20, [A4.a] * 60,
             [random_stochastic(4, rng, density=0.5).a for _ in range(40)],
             [random_stochastic(9, rng).a for _ in range(40)]]
    for items in lists:
        seq = MatrixSequence(items=items)
        for horizon in sorted({1, 2, len(items)}):
            for block_len in (None, 1, 7):
                assert_report_matches_frozen(seq, horizon, block_len)


# Listed n = 2 sequences whose item 0 is the exact rank-one J/2, so anchor
# 0's series is all 0 and the verdict rests on the anchors past 0.
# Every entry is dyadic, so every product from anchor 0 is J/2 exactly.
# STRETCH has row sums 1 and entries down to -1.5: it passes at t = 1.5
# and stretches the difference of two rows 4-fold, so delta grows 4x per
# step.  J2 + e TILT is a stochastic item with delta 2e.
J2 = np.full((2, 2), 0.5)
TILT = np.array([[1.0, -1.0], [-1.0, 1.0]])
STRETCH = np.array([[2.5, -1.5], [-1.5, 2.5]])
HALVE = np.array([[0.75, 0.25], [0.25, 0.75]])


def crafted_sequence(name):
    """(items, horizon, t) of one crafted sequence."""
    I2 = np.eye(2)
    if name == "rises_before_the_bound":
        # anchor 3: delta 1.9e-6, then 7.6e-6, both above the bound's reach
        return [J2, I2, I2, J2 + 2.0 ** -20 * TILT, STRETCH, J2, J2, STRETCH, I2], 9, 1.5
    if name == "bounded_then_growing":
        # anchor 4: delta 2.7e-12, 1.1e-11, 4.4e-11 (bounded), then
        # 1.7e-10, which rises 1.3e-10 over the exact delta before it but
        # only 8.7e-11 over that step's bound
        near = J2 + 3 * 2.0 ** -41 * TILT
        return [J2, I2, I2, I2, near, STRETCH, STRETCH, STRETCH,
                J2, STRETCH, STRETCH, STRETCH], 12, 1.5
    if name == "ends_high_after_anchor_0":
        # anchor 2: delta 1, then 0 from J/2 on; anchor 4: 1/2, then 1/4
        return [J2, I2, I2, J2, HALVE, HALVE], 6, DEFAULT_ROW_SUM_TOL
    raise ValueError(name)


def frozen_report_at(monkeypatch, seq, horizon, t):
    """The frozen copy's report with items judged at t and each one-item
    block within the slack weak_ergodicity_diagnostic gives it."""
    block_tol = products._product_slack(seq.n, t, [1 + (2 * seq.n - 1) * t])
    monkeypatch.setitem(globals(), "is_stochastic", lambda A: products.is_stochastic(A, t))
    monkeypatch.setitem(globals(), "ergodicity_coefficient",
                        lambda A, norm: products.ergodicity_coefficient(A, norm, block_tol))
    return frozen_weak_ergodicity_diagnostic(seq, horizon)


@pytest.mark.parametrize("name, verdict", [
    ("rises_before_the_bound", "violated_nonincrease"),
    ("bounded_then_growing", "violated_nonincrease"),
    ("ends_high_after_anchor_0", "inconclusive"),
])
def test_weak_ergodicity_verdict_rests_on_the_verdict_only_anchors(monkeypatch, name, verdict):
    items, horizon, t = crafted_sequence(name)
    seq = MatrixSequence(items=items)
    rep = weak_ergodicity_diagnostic(seq, horizon, row_sum_tol=t)
    _, block_len, anchors, partial, by_anchor, sums, want = frozen_report_at(
        monkeypatch, seq, horizon, t)
    assert rep.verdict == want == verdict
    assert not partial.any() and rep.delta_of_partial_products.tobytes() == partial.tobytes()
    assert rep.block_len == block_len == 1 and rep.anchors == anchors
    assert rep.block_mu_c_partial_sums.tobytes() == sums.tobytes()
    # the verdict comes from one anchor past 0 alone
    assert sum(np.any(np.diff(s) > 1e-10) or s[-1] > DELTA_ZERO_THRESHOLD
               for s in by_anchor.values()) == 1


def rule(series):
    """(rises, ends at zero): the verdict's rule on one anchored series."""
    return (bool(np.any(np.diff(series) > products.NONINCREASE_TOL)),
            bool(series[-1] <= DELTA_ZERO_THRESHOLD))


@pytest.mark.parametrize("n", [2, 5, 30])
def test_settled_series_decides_as_the_exact_series(n):
    seq = MatrixSequence(generator={"kind": "random_stochastic_spanning_tree",
                                    "n": n, "seed": 3})
    crafted = [crafted_sequence(name) for name in
               ("rises_before_the_bound", "bounded_then_growing", "ends_high_after_anchor_0")]
    cases = [(seq, anchor, 300) for anchor in (0, 100, 200)]
    cases += [(MatrixSequence(items=items), anchor, horizon)
              for items, horizon, _ in crafted for anchor in range(horizon)]
    bounds_taken = 0
    for seq_, anchor, horizon in cases:
        settled = products._anchored_series(seq_, anchor, horizon)
        P = products._partial_products(seq_[k] for k in range(anchor, horizon))
        exact = np.array([delta(Matrix(p)) for p in P])
        # anchor 0 takes delta everywhere; past it a bound stands in for delta
        # only at most NONINCREASE_TOL, and only where the next product is
        # bounded too or there is none
        bounded = settled != exact
        assert anchor > 0 or not bounded.any()
        assert np.all(settled[bounded] <= 1e-10) and np.all(settled[bounded] >= exact[bounded])
        assert not np.any(bounded[:-1] & (settled[1:] > 1e-10))
        assert rule(settled) == rule(exact)
        bounds_taken += bounded.sum()
    assert bounds_taken > 0


def test_weak_ergodicity_takes_delta_again_after_a_bounded_step(caplog):
    items, horizon, t = crafted_sequence("bounded_then_growing")
    P = list(products._partial_products(MatrixSequence(items=items[4:])))
    d = [delta(p) for p in P]
    b = [matcore._delta_bound(p) for p in P]
    # step 3 of anchor 4 is the first past the bound; it rises more than
    # 1e-10 over the exact delta of step 2, not over step 2's bound
    assert max(b[:3]) <= 1e-10 < b[3] and d[3] > 2 * d[2]
    assert d[3] - b[2] <= 1e-10 < d[3] - d[2]
    caplog.set_level(logging.INFO, logger="contractlab.products")
    rep = weak_ergodicity_diagnostic(MatrixSequence(items=items), horizon, row_sum_tol=t)
    assert rep.verdict == "violated_nonincrease"
    # steps 3 and 2 take _delta; the rest of either anchor only the bound
    assert [r.getMessage() for r in caplog.records] == [
        "anchor 4: delta bound <= 1e-10 from step 4 on; 2 exact sweeps in 8 steps",
        "anchor 8: delta bound <= 1e-10 from step 0 on; 0 exact sweeps in 4 steps",
    ]
