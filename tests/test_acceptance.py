"""End-to-end acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL] line (visible
with ``pytest -s`` or in the captured output of a failing run).
"""

import numpy as np
import pytest

from contractlab.cml import make_map, simulate
from contractlab.contractivity import contractivity_l2, contractivity_linf, decompose_affine
from contractlab.graphs import has_spanning_directed_tree, interaction_digraph
from contractlab.matcore import Matrix, delta, is_scrambling, is_stochastic, mu
from contractlab.products import MatrixSequence, ergodicity_coefficient
from contractlab.projections import l2
from contractlab.reference import A4, run_reference_checks

from conftest import (
    binary_contractivity,
    check_scrambling_product_theorem,
    random_doubly_constant,
    random_nonneg_row_sum,
    random_stochastic,
    sampled_contractivity,
)


def _criterion(num, desc, body):
    try:
        body()
    except AssertionError:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_reference_values():
    def body():
        rows = run_reference_checks()
        assert len(rows) == 13
        for row in rows:
            assert row["pass"], f"reference check {row['id']} failed: {row}"
    _criterion(1, "all bundled reference values reproduce", body)


def test_criterion_2_linf_closed_form_vs_binary_oracle():
    def body():
        rng = np.random.default_rng(201)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            A = random_nonneg_row_sum(n, rng, r=float(rng.uniform(0.2, 2.0)),
                                      density=float(rng.uniform(0.3, 1.0)))
            closed = contractivity_linf(A).c
            oracle = binary_contractivity(A)
            assert abs(closed - oracle) <= 1e-12, (A.a, closed, oracle)
    _criterion(2, "l-infinity coefficient matches the exhaustive binary "
                  "oracle to 1e-12 on 500 random matrices", body)


def test_criterion_3_l2_closed_form_vs_sampling():
    def body():
        rng = np.random.default_rng(202)
        for i in range(100):
            n = int(rng.integers(3, 6))
            A = random_doubly_constant(n, rng)
            c = contractivity_l2(A).c
            emp = sampled_contractivity(A, l2(), samples=100000, seed=i)
            assert emp <= c + 1e-10, (A.a, c, emp)
            if c > 1e-10:
                assert emp >= 0.99 * c, (A.a, c, emp)
    _criterion(3, "l2 coefficient bracketed by 1e5-sample empirical ratio "
                  "within [0.99 c, c + 1e-10] on 100 matrices", body)


def test_criterion_4_core_inequalities():
    def body():
        rng = np.random.default_rng(203)
        # delta(A) <= r - mu(A) and spread contraction
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            A = random_nonneg_row_sum(n, rng, r=float(rng.uniform(0.2, 2.0)),
                                      density=float(rng.uniform(0.3, 1.0)))
            r = float(A.a.sum(axis=1).mean())
            assert delta(A) <= r - mu(A) + 1e-10
            x = rng.standard_normal(n) * 10
            assert np.ptp(A.a @ x) <= delta(A) * np.ptp(x) + 1e-10
        # submultiplicativity of the coefficient
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            A = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
            B = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
            cab = contractivity_linf(Matrix(B.a @ A.a)).c
            assert cab <= contractivity_linf(A).c * contractivity_linf(B).c + 1e-10
        for _ in range(1000):
            n = int(rng.integers(3, 6))
            A = random_doubly_constant(n, rng)
            B = random_doubly_constant(n, rng)
            cab = contractivity_l2(Matrix(B.a @ A.a)).c
            assert cab <= contractivity_l2(A).c * contractivity_l2(B).c + 1e-10
        # proper ergodicity coefficient: multiplicative lower bound
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            S = [random_stochastic(n, rng, density=float(rng.uniform(0.4, 1.0)))
                 for _ in range(3)]
            P = S[2].a @ S[1].a @ S[0].a
            lhs = 1.0 - ergodicity_coefficient(Matrix(P))
            rhs = np.prod([1.0 - ergodicity_coefficient(s) for s in S])
            assert lhs <= rhs + 1e-10
    _criterion(4, "row-pair, spread, submultiplicativity, and ergodicity "
                  "inequalities hold on 1000 random instances each", body)


def test_criterion_5_contractive_implies_spanning_tree():
    def body():
        rng = np.random.default_rng(204)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 7))
            A = random_nonneg_row_sum(n, rng, r=1.0,
                                      density=float(rng.uniform(0.25, 1.0)))
            if (contractivity_linf(A).is_set_contractive
                    or contractivity_l2(A).is_set_contractive):
                ok, _ = has_spanning_directed_tree(interaction_digraph(A))
                assert ok, A.a
                checked += 1
    _criterion(5, "500 set-contractive matrices all have a spanning "
                  "directed tree in their interaction digraph", body)


def test_criterion_6_scrambling_product_theorem():
    def body():
        for seed in range(200):
            n = int(np.random.default_rng([7, seed]).integers(2, 7))
            seq = MatrixSequence(generator={
                "kind": "random_stochastic_spanning_tree", "n": n,
                "seed": seed, "min_entry": 0.08})
            check_scrambling_product_theorem(seq, epsilon=0.08, r=1.0)
    _criterion(6, "scrambling-product theorem verified on 200 generated "
                  "sequences (scrambling + coefficient bound)", body)


def test_criterion_7_affine_decomposition():
    def body():
        rng = np.random.default_rng(205)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            A = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
            x = rng.standard_normal(n) * float(rng.uniform(0.5, 5.0))
            dec = decompose_affine(A, x)
            assert is_stochastic(dec.B, tol=1e-10)
            assert np.ptp(dec.xstar) < 1e-12
            assert np.abs(dec.B.a @ x + dec.xstar - A.a @ x).max() <= 1e-12
            if contractivity_linf(A).is_set_contractive and np.ptp(x) > 1e-9:
                assert is_scrambling(dec.B)
    _criterion(7, "affine stochastic decomposition exact to 1e-12 on 500 "
                  "random (matrix, point) pairs", body)


def test_criterion_8_cml_synchronization_envelope():
    def body():
        # circulant coupling with c = 0.2 under the max norm; rho = 3.9
        # gives a per-step factor 0.78 < 1
        first_row = np.array([0.36, 0.16, 0.16, 0.16, 0.16])
        A = np.array([np.roll(first_row, k) for k in range(5)])
        assert contractivity_linf(Matrix(A)).c == pytest.approx(0.2, abs=1e-12)
        mp = make_map({"kind": "logistic", "a": 3.9})
        x0 = np.array([0.12, 0.37, 0.55, 0.71, 0.24])
        seq = MatrixSequence(items=[A] * 200)
        tr = simulate(seq, mp, x0, steps=200)
        assert not tr.diverged and not tr.domain_exits
        assert tr.envelope_valid_until is None
        # accumulated-tolerance envelope check
        assert np.all(tr.distances <= tr.bound + 1e-8)
        assert tr.synchronized_at is not None
        kstar = int(np.argmax(tr.bound < 1e-6))
        assert tr.bound[kstar] < 1e-6
        assert np.all(tr.distances[kstar:] <= 1e-6 + 1e-8)
    _criterion(8, "coupled-map-lattice distances stay under the product "
                  "envelope (tolerance 1e-8) and synchronize", body)


def test_criterion_9_powers_and_rank_one():
    def body():
        # delta of powers decays at least geometrically with ratio 1 - mu
        rate = 1.0 - mu(A4)
        P = np.eye(3)
        for k in range(1, 51):
            P = A4.a @ P
            assert delta(Matrix(P)) <= rate ** k + 1e-10, k
        # rank-one stochastic matrices have proper coefficient exactly 1
        rng = np.random.default_rng(206)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = rng.random(n)
            v /= v.sum()
            mc = ergodicity_coefficient(np.outer(np.ones(n), v))
            assert abs(mc - 1.0) <= 1e-12
    _criterion(9, "delta of matrix powers decays as (1 - mu)^k and "
                  "rank-one stochastic matrices have coefficient 1", body)
