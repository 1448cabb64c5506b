import numpy as np
import pytest

from contractlab import (
    Matrix,
    basis_K,
    contractivity_l2,
    contractivity_linf,
    contractivity_weighted_bound,
    decompose_affine,
    delta,
    empirical_contractivity,
    exhaustive_binary_contractivity,
    is_paracontractive_l2,
    is_pseudocontractive_stochastic_linf,
    is_scrambling,
    is_stochastic,
    mu,
    spectral_norm_2,
)
from contractlab.contractivity import RowSumError
from contractlab import l2, linf, weighted_l2
from contractlab.reference import A1, A2, A3, A4, A5, M0, W4

from conftest import random_doubly_constant, random_nonneg_row_sum, random_stochastic


def test_basis_K_invariants():
    for n in (2, 3, 5, 11):
        K = basis_K(n)
        assert np.abs(K.T @ K - np.eye(n - 1)).max() < 1e-12
        assert np.abs(np.ones(n) @ K).max() < 1e-12
        assert spectral_norm_2(K) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        basis_K(1)


def test_spectral_norm_examples():
    assert spectral_norm_2(M0.a) == pytest.approx(1.088, abs=1e-3)
    assert spectral_norm_2(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm_2(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_spectral_norm_matches_reference_svd():
    rng = np.random.default_rng(20)
    for _ in range(300):
        M = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        M *= 10.0 ** rng.integers(-3, 4)
        expected = np.linalg.norm(M, 2)
        assert spectral_norm_2(M) == pytest.approx(expected, abs=1e-10 * max(1.0, expected))


def test_contractivity_linf_examples():
    rep = contractivity_linf(A1)
    assert rep.c == pytest.approx(0.5, abs=5e-16)
    assert rep.is_set_contractive and rep.method == "closed_form_linf"
    rep = contractivity_linf(A3)
    assert rep.c == pytest.approx(1.0) and not rep.is_set_contractive
    rep = contractivity_linf(np.full((4, 4), 0.25))
    assert rep.c == pytest.approx(0.0, abs=1e-12)


def test_contractivity_linf_rejects_nonconstant_rows():
    with pytest.raises(RowSumError):
        contractivity_linf([[1.0, 0.0], [0.5, 0.6]])


def test_l2_is_weighted_bound_at_unit_weights():
    # ||A K||_2 is ||W^(1/2) A W^(-1) K||_2 at w = e; scaling by 1.0 is exact
    rng = np.random.default_rng(41)
    mats = [A1, A2, A3, A4, A5, M0]
    for n in range(1, 41):
        mats.append(random_nonneg_row_sum(n, rng))
        a = rng.standard_normal((n, n))
        mats.append(Matrix(a - a.mean(axis=1, keepdims=True) + rng.uniform(-1.0, 2.0)))
    for A in mats:
        assert contractivity_l2(A).c == contractivity_weighted_bound(A, np.ones(A.n)).c


def test_contractivity_l2_examples():
    assert contractivity_l2(A3).c == pytest.approx(0.939, abs=1e-3)
    assert contractivity_l2(A2).c == pytest.approx(1.000, abs=1e-6)
    assert contractivity_l2(A4).c == pytest.approx(1.125, abs=1e-3)
    assert contractivity_l2(A5).c == pytest.approx(0.939, abs=1e-3)
    assert not contractivity_l2(A4).is_set_nonexpansive


def test_l2_bound_only_unless_column_sums_constant():
    # A4's column sums are 2.0, 0.2 and 0.8: its 1.125 bounds a sup of about 0.956
    assert contractivity_l2(A4).is_bound_only
    rng = np.random.default_rng(43)
    for _ in range(20):
        A = random_doubly_constant(int(rng.integers(1, 7)), rng)
        assert not contractivity_l2(A).is_bound_only


def test_weighted_bound_examples():
    rep = contractivity_weighted_bound(A4, W4)
    assert rep.is_bound_only and rep.c < 1.0
    rng = np.random.default_rng(21)
    for _ in range(50):
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        uniform = contractivity_weighted_bound(A, np.ones(A.n))
        assert uniform.c == pytest.approx(contractivity_l2(A).c, abs=1e-10)


def test_weighted_bound_validation():
    with pytest.raises(Exception):
        contractivity_weighted_bound(A4, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        contractivity_weighted_bound(A4, [1.0, 1.0])


def test_binary_oracle_matches_linf_closed_form():
    assert exhaustive_binary_contractivity(A1) == pytest.approx(
        contractivity_linf(A1).c, abs=1e-12)
    rng = np.random.default_rng(22)
    for _ in range(200):
        A = random_nonneg_row_sum(int(rng.integers(2, 9)), rng,
                                  density=float(rng.uniform(0.4, 1.0)))
        assert exhaustive_binary_contractivity(A) == pytest.approx(
            contractivity_linf(A).c, abs=1e-12)


def test_empirical_contractivity_properties():
    # averaging matrix maps everything onto the diagonal: ratio 0
    J4 = np.full((4, 4), 0.25)
    assert empirical_contractivity(J4, l2(), 1000, seed=0) == 0.0
    # deterministic in the seed
    a = empirical_contractivity(A3, l2(), 5000, seed=42)
    b = empirical_contractivity(A3, l2(), 5000, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        empirical_contractivity(A3, l2(), samples=0)


def test_empirical_never_exceeds_l2_closed_form():
    # the closed form upper-bounds the true ratio for any constant row sums
    rng = np.random.default_rng(23)
    for _ in range(50):
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        emp = empirical_contractivity(A, l2(), 2000, seed=1)
        assert emp <= contractivity_l2(A).c + 1e-10


def test_empirical_reaches_l2_value_on_doubly_constant():
    rng = np.random.default_rng(24)
    for i in range(20):
        A = random_doubly_constant(int(rng.integers(3, 6)), rng)
        c = contractivity_l2(A).c
        emp = empirical_contractivity(A, l2(), 100000, seed=i)
        assert emp <= c + 1e-10
        if c > 1e-10:
            assert emp >= 0.99 * c


def test_weighted_empirical_below_bound():
    rng = np.random.default_rng(25)
    for i in range(30):
        n = int(rng.integers(2, 6))
        A = random_stochastic(n, rng)
        w = rng.random(n) + 0.1
        bound = contractivity_weighted_bound(A, w).c
        emp = empirical_contractivity(A, weighted_l2(w), 5000, seed=i)
        assert emp <= bound + 1e-10


def test_delta_mu_c_chain():
    rng = np.random.default_rng(26)
    for _ in range(300):
        A = random_nonneg_row_sum(int(rng.integers(2, 8)), rng,
                                  density=float(rng.uniform(0.4, 1.0)))
        r = float(A.a.sum(axis=1).mean())
        c = contractivity_linf(A).c
        assert c == pytest.approx(r - mu(A), abs=1e-12)
        assert c == pytest.approx(delta(A), abs=1e-12)


def _paracontractive_l2_three_svd(B, norm_tol=1e-8, angle_tol=1e-6):
    """Frozen reference: the norm, the singular-value-1 subspace and the
    fixed point space each from its own SVD."""
    def right_singular_space(M, which, tol):
        _, s, Vt = np.linalg.svd(M)
        mask = np.abs(s - 1.0) < tol if which == "unit" else s < tol
        return Vt[mask].T

    a = np.asarray(B, dtype=float)
    if np.linalg.norm(a, 2) > 1.0 + norm_tol:
        return False
    V1 = right_singular_space(a, "unit", 1e-8)
    V2 = right_singular_space(a - np.eye(a.shape[0]), "null", 1e-8)
    if V1.shape[1] != V2.shape[1]:
        return False
    if V1.shape[1] == 0:
        return True
    angles = np.arccos(np.clip(np.linalg.svd(V1.T @ V2, compute_uv=False), -1.0, 1.0))
    return bool(np.all(angles < angle_tol))


def test_paracontractive_examples():
    assert is_paracontractive_l2(np.eye(3))
    assert is_paracontractive_l2(np.diag([1.0, 0.5]))
    assert not is_paracontractive_l2(M0)
    # rotation: nonexpansive, no fixed points off origin, but ||Rx|| == ||x||
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert not is_paracontractive_l2(rot)
    assert is_paracontractive_l2(0.5 * rot)
    # the frozen three-SVD test agrees on random B, orthogonal projections
    # and blocks with singular value exactly 1 (fixed, rotated or reflected)
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(100):
        n = int(rng.integers(1, 7))
        G = rng.standard_normal((n, n))
        cases.append(G * rng.uniform(0.5, 1.5) / np.linalg.norm(G, 2))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = int(rng.integers(0, n + 1))
        cases.append(Q[:, :k] @ Q[:, :k].T)
        unit = [np.eye(k), -np.eye(k), rot if k == 2 else np.eye(k)][int(rng.integers(3))]
        rest = 0.5 * np.linalg.qr(rng.standard_normal((n - k, n - k)))[0]
        block = np.zeros((n, n))
        block[:k, :k], block[k:, k:] = unit, rest
        cases.append(block)
        cases.append(Q @ block @ Q.T)
    verdicts = [is_paracontractive_l2(B) for B in cases]
    assert verdicts == [_paracontractive_l2_three_svd(B) for B in cases]
    assert any(verdicts) and not all(verdicts)


def test_paracontractive_takes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert is_paracontractive_l2(np.diag([1.0, 0.5]))
    assert len(calls) == 1


def test_pseudocontractive_stochastic_examples():
    assert is_pseudocontractive_stochastic_linf(A4)
    assert not is_pseudocontractive_stochastic_linf(A5)
    assert is_pseudocontractive_stochastic_linf(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError):
        is_pseudocontractive_stochastic_linf(A1)  # not stochastic


def test_pseudocontractive_iff_scrambling_iff_contractive():
    rng = np.random.default_rng(27)
    for _ in range(300):
        A = random_stochastic(int(rng.integers(2, 8)), rng,
                              density=float(rng.uniform(0.3, 1.0)))
        scram = is_scrambling(A)
        assert is_pseudocontractive_stochastic_linf(A) == scram
        assert contractivity_linf(A).is_set_contractive == scram


def test_decompose_affine_examples():
    # constant x: averaging fallback
    dec = decompose_affine(A4, np.array([2.0, 2.0, 2.0]))
    assert np.abs(dec.B.a - 1.0 / 3.0).max() < 1e-12
    assert np.ptp(dec.xstar) < 1e-12
    # identity is set-nonexpansive with c = 1
    x = np.array([0.0, 1.0, -0.5])
    dec = decompose_affine(np.eye(3), x)
    assert np.abs(dec.B.a @ x + dec.xstar - x).max() < 1e-12


def test_decompose_affine_postconditions():
    rng = np.random.default_rng(28)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        A = random_stochastic(n, rng, density=float(rng.uniform(0.3, 1.0)))
        x = rng.standard_normal(n)
        dec = decompose_affine(A, x)
        assert is_stochastic(dec.B, tol=1e-10)
        assert np.ptp(dec.xstar) < 1e-12  # constant vector
        assert np.abs(dec.B.a @ x + dec.xstar - A.a @ x).max() <= 1e-12
        if contractivity_linf(A).is_set_contractive and np.ptp(x) > 1e-9:
            assert is_scrambling(dec.B)


def test_decompose_affine_rejects_expansive():
    expansive = Matrix(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        decompose_affine(expansive, np.array([1.0, 2.0, 3.0]))


def test_l2_coefficient_invariant_under_basis_rotation():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        A = random_stochastic(n, rng)
        K = basis_K(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
        assert spectral_norm_2(A.a @ K @ Q) == pytest.approx(
            contractivity_l2(A).c, abs=1e-10)
    # the row-centred form against ||W^(1/2) A W^(-1) K||_2 from the basis,
    # on general constant row sum matrices, signed ones included
    for n in range(1, 9):
        for i in range(20):
            if i % 2:
                a = rng.standard_normal((n, n))
                A = Matrix(a - a.mean(axis=1, keepdims=True) + rng.uniform(-1.0, 2.0))
            else:
                A = random_nonneg_row_sum(n, rng, density=float(rng.uniform(0.4, 1.0)))
            w = weighted_l2(rng.uniform(0.05, 1.0, n)).weights
            c_l2, c_wl2 = contractivity_l2(A).c, contractivity_weighted_bound(A, w).c
            if n == 1:
                assert c_l2 == c_wl2 == 0.0
                continue
            K = basis_K(n)
            expected_l2 = spectral_norm_2(A.a @ K)
            expected_wl2 = spectral_norm_2(np.sqrt(w)[:, None] * A.a / w[None, :] @ K)
            assert abs(c_l2 - expected_l2) <= 1e-12 * expected_l2
            assert abs(c_wl2 - expected_wl2) <= 1e-12 * expected_wl2
