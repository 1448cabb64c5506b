import numpy as np
import pytest

from contractlab import (
    Matrix,
    MatrixSequence,
    check_convergence_condition,
    contractivity_l2,
    contractivity_linf,
    delta,
    ergodicity_coefficient,
    is_stochastic,
    min_contractive_product_length,
    mu,
    product,
    product_contractivity_bound,
    random_stochastic_spanning_tree,
    scrambling_product_theorem_check,
    weak_ergodicity_diagnostic,
)
from contractlab.graphs import has_spanning_directed_tree, interaction_digraph
from contractlab import l2, linf
from contractlab.products import DELTA_ZERO_THRESHOLD, BudgetError
from contractlab.reference import A1, A2, A3, A4, A5

from conftest import random_doubly_constant, random_stochastic


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
        nz = A.nonzero_pattern()
        assert np.all(A.a[nz] >= 0.05 - 1e-12)
        assert np.abs(A.a.sum(axis=1) - 1.0).max() < 1e-12
        assert has_spanning_directed_tree(interaction_digraph(A))[0]


def scalar_spanning_tree(n, rng, min_entry=0.05, extra_edge_prob=0.3):
    """Frozen scalar form of random_stochastic_spanning_tree: sets, lists
    and one scalar draw at a time.  Reference for the draw order."""
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
            if rng.random() < extra_edge_prob:
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
            for extra_edge_prob in (0.3, 1.0):
                rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
                if n > 1 and min_entry > 0.5:
                    for f, g in ((random_stochastic_spanning_tree, rng),
                                 (scalar_spanning_tree, ref_rng)):
                        with pytest.raises(ValueError, match="too large"):
                            f(n, g, min_entry, extra_edge_prob)
                    continue
                A = random_stochastic_spanning_tree(n, rng, min_entry, extra_edge_prob)
                ref = scalar_spanning_tree(n, ref_rng, min_entry, extra_edge_prob)
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
    _, c_bound = product_contractivity_bound(seq_of(A3.a, A3.a), l2())
    assert c_bound == pytest.approx(contractivity_l2(A3).c ** 2, abs=1e-10)
    c_exact, c_bound = product_contractivity_bound(seq_of(A4.a, A4.a, A4.a), linf())
    assert c_exact <= c_bound + 1e-10
    J3 = np.full((3, 3), 1.0 / 3.0)
    c_exact, _ = product_contractivity_bound(seq_of(J3, A4.a), linf())
    assert c_exact == pytest.approx(0.0, abs=1e-12)
    c_exact, c_bound = product_contractivity_bound(seq_of(A4.a), linf())
    assert c_exact == c_bound


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


def test_check_convergence_condition():
    out = check_convergence_condition([0.5] * 50)
    assert out["converges_to_zero_over_horizon"]
    assert out["running_products"][-1] == pytest.approx(0.5 ** 50)
    assert not check_convergence_condition([1.0] * 50)["converges_to_zero_over_horizon"]
    out = check_convergence_condition([0.5, 2.0] * 25)
    assert not out["converges_to_zero_over_horizon"]
    assert out["running_products"][-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        check_convergence_condition([0.5, -0.1])


def test_scrambling_product_theorem_random_instances():
    for seed in range(30):
        n = int(np.random.default_rng(seed).integers(3, 7))
        seq = MatrixSequence(generator={
            "kind": "random_stochastic_spanning_tree", "n": n,
            "seed": seed, "min_entry": 0.08})
        chk = scrambling_product_theorem_check(seq, epsilon=0.08, r=1.0)
        assert chk.hypotheses_hold
        assert chk.product_is_scrambling
        assert chk.mu_product >= chk.mu_lower_bound - 1e-12
        P = product(seq, 0, max(0, n - 2))
        assert contractivity_linf(P).c <= chk.c_bound + 1e-10


def test_scrambling_product_theorem_bad_hypotheses():
    zero_diag = np.array([[0.0, 1.0], [1.0, 0.0]])
    chk = scrambling_product_theorem_check(seq_of(zero_diag), epsilon=0.5, r=1.0)
    assert not chk.hypotheses_hold
    assert any(reason == "nonpositive diagonal" for _, reason in chk.failures)
    with pytest.raises(ValueError):
        scrambling_product_theorem_check(seq_of(np.eye(3)), epsilon=0.1, r=1.0)


@pytest.mark.parametrize("a, epsilon, r, reasons", [
    ([[1.1, -0.1], [0.4, 0.6]], 0.4, 1.0, ("negative entry", "nonzero entry below epsilon")),
    ([[0.9, 0.1], [0.4, 0.6]], 0.4, 1.0, ("nonzero entry below epsilon",)),
    ([[0.6, 0.4], [0.4, 0.6]], 0.4, 0.9, ("row sum above r",)),
    ([[1.0, 0.0], [0.0, 1.0]], 0.4, 1.0, ("no spanning directed tree",)),
])
def test_scrambling_product_theorem_failure_reasons(a, epsilon, r, reasons):
    chk = scrambling_product_theorem_check(seq_of(np.array(a)), epsilon=epsilon, r=r)
    assert not chk.hypotheses_hold
    assert chk.failures == tuple((0, reason) for reason in reasons)


def test_scrambling_product_theorem_n2_single_item():
    A = np.array([[0.6, 0.4], [0.4, 0.6]])
    chk = scrambling_product_theorem_check(seq_of(A), epsilon=0.4, r=1.0)
    assert chk.hypotheses_hold and chk.product_is_scrambling
    assert chk.mu_product >= 0.4 - 1e-12


def test_min_contractive_product_length():
    J3 = np.full((3, 3), 1.0 / 3.0)
    assert min_contractive_product_length([J3], linf(), 5) == 1
    # absorbing rows keep A2 powers non-scrambling forever
    assert min_contractive_product_length([A2.a], linf(), 10) is None
    assert min_contractive_product_length([A3.a], linf(), 10) == 2
    assert min_contractive_product_length([A3.a], linf(), 10,
                                          predicate="scrambling") == 2
    with pytest.raises(BudgetError):
        # A2 in the family keeps every level non-contractive, so the
        # search runs until 2^m overflows the budget
        min_contractive_product_length([A2.a, A3.a], linf(), 30, budget=100)


def test_min_length_mixed_family():
    import itertools

    m = min_contractive_product_length([A3.a, A4.a], linf(), 8)
    assert m is not None
    # every ordering of length m contracts, and some ordering of length
    # m - 1 does not (minimality)
    for combo in itertools.product([A3.a, A4.a], repeat=m):
        P = np.eye(3)
        for f in combo:
            P = f @ P
        assert contractivity_linf(Matrix(P)).is_set_contractive
    if m > 1:
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
    (horizon_, block_len_, anchors, partial, by_anchor, sums,
     verdict) = frozen_weak_ergodicity_diagnostic(seq, horizon, block_len)
    assert rep.horizon == horizon_ and rep.block_len == block_len_
    assert rep.anchors == anchors and rep.verdict == verdict
    for got, want in [(rep.delta_of_partial_products, partial),
                      (rep.block_mu_c_partial_sums, sums),
                      *((rep.delta_by_anchor[r], by_anchor[r]) for r in anchors)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert rep.delta_by_anchor.keys() == by_anchor.keys()


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
