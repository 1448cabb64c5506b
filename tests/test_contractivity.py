import numpy as np
import pytest

from contractlab.contractivity import (
    RowSumError,
    _linf_report,
    attained_lower_bound,
    contractivity,
    contractivity_l2,
    contractivity_linf,
    decompose_affine,
    spectral_norm_2,
)
from contractlab.matcore import Matrix, delta, is_scrambling, is_stochastic, mu
from contractlab.projections import l1, l2, linf, project_columns, weighted_l2
from contractlab.reference import A1, A2, A3, A4, A5, M0, W4

from conftest import (
    RANK_ONE_V,
    basis_K,
    binary_contractivity,
    random_doubly_constant,
    random_nonneg_row_sum,
    random_stochastic,
    rank_one_matrices,
    sampled_contractivity,
)


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
        assert contractivity_l2(A).c == contractivity(A, weighted_l2(np.ones(A.n))).c


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
    rep = contractivity(A4, weighted_l2(W4))
    assert rep.is_bound_only and rep.c < 1.0
    rng = np.random.default_rng(21)
    for _ in range(50):
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        uniform = contractivity(A, weighted_l2(np.ones(A.n)))
        assert uniform.c == pytest.approx(contractivity_l2(A).c, abs=1e-10)


def test_weighted_bound_validation():
    with pytest.raises(Exception):
        contractivity(A4, weighted_l2([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        contractivity(A4, weighted_l2([1.0, 1.0]))


def test_weighted_bound_past_the_float_range_of_its_matrix():
    # where W^(1/2) A W^(-1) less its row means is not finite the bound is
    # inf, and neither verdict holds
    rng = np.random.default_rng(35)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_stochastic(n, rng).a
        w = np.concatenate(([1.0], rng.uniform(2.0 ** -10, 2.0 ** -6, n - 1)))
        assert (A[0] / w).sum() > 16.0  # row 0 of M for A 2^1020 sums past 2^1024
        assert contractivity(A * 2.0 ** 1020, weighted_l2(w), 1e300).c == np.inf
    C = np.array([[2e10, -1e10, 0.0], [0.0, 1e10, 0.0], [0.0, 0.0, 1e10]])
    # C fixes e1 - e2, so c >= 1 under every norm; 1 / 5e-324 is inf
    D = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
    for A, w in [(C, [1.0, 1e-300, 1.0]), (D, [1.0, 5e-324, 1.0])]:
        rep = contractivity(A, weighted_l2(w))
        assert rep.c == np.inf and not rep.is_set_nonexpansive and not rep.is_set_contractive


def test_binary_oracle_matches_linf_closed_form():
    assert binary_contractivity(A1) == pytest.approx(
        contractivity_linf(A1).c, abs=1e-12)
    rng = np.random.default_rng(22)
    for _ in range(200):
        A = random_nonneg_row_sum(int(rng.integers(2, 9)), rng,
                                  density=float(rng.uniform(0.4, 1.0)))
        assert binary_contractivity(A) == pytest.approx(
            contractivity_linf(A).c, abs=1e-12)


def test_linf_coefficient_of_rank_one_is_zero():
    # A x = (v . x) e lies in X* for A = e v^T, so c(A) = 0, though a plain
    # mean of the equal row sums rounds off them for some v
    for A in [Matrix(np.outer(np.ones(5), RANK_ONE_V)), *rank_one_matrices()]:
        assert contractivity_linf(A).c == 0.0, A.a


def test_linf_clamp_at_zero_keeps_inf_and_nan():
    assert _linf_report(1.0, 1.0 + 2.0 ** -52).c == 0.0
    assert _linf_report(0.0, -np.inf).c == np.inf
    assert np.isnan(_linf_report(0.0, np.nan).c)


def random_constant_row_sum(n, rng):
    """A constant row sum matrix, signed or nonnegative, with -0.0 entries
    and repeated rows mixed in."""
    if rng.random() < 0.5:
        a = random_nonneg_row_sum(n, rng, density=float(rng.uniform(0.3, 1.0))).a
    else:
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
        a[:, -1] += rng.uniform(-1.0, 2.0) - a.sum(axis=1)
    a = np.where(a == 0.0, -0.0, a)
    if n > 1 and rng.random() < 0.3:
        a[rng.integers(n)] = a[rng.integers(n)]
    return Matrix(a)


def test_l1_closed_form_matches_binary_oracle():
    # the exhaustive oracle visits every e_j, so it attains the exact c
    rng = np.random.default_rng(27)
    for i in range(320):
        A = random_constant_row_sum(i % 10 + 1, rng)
        rep = contractivity(A, l1())
        assert rep.method == "closed_form_l1" and not rep.is_bound_only
        gap = abs(rep.c - binary_contractivity(A, "l1"))
        assert gap <= 1e-14 * max(1.0, rep.c)


@pytest.mark.parametrize("A, c", [(M0, 0.5), (A1, 0.5), (A2, 1.0), (A3, 1.0), (A4, 0.9),
                                  (A5, 1.0)], ids=["M0", "A1", "A2", "A3", "A4", "A5"])
def test_l1_reference_values(A, c):
    rep = contractivity(A, l1())
    assert rep.c == pytest.approx(c, abs=1e-15)
    assert rep.is_set_contractive == (c < 1.0) and rep.is_set_nonexpansive


def test_l1_witness_column_attains_the_coefficient():
    rng = np.random.default_rng(28)
    for i in range(100):
        n = i % 9 + 2
        A = random_constant_row_sum(n, rng)
        c = contractivity(A, l1()).c
        j = int(project_columns(A.a, l1())[1].argmax())
        e_j = np.eye(n)[:, j]
        _, (d_in, d_out) = project_columns(np.column_stack((e_j, A.a @ e_j)), l1())
        assert d_in == 1.0 and d_out == pytest.approx(c, rel=1e-15)


def test_l1_empirical_and_product_stay_below_the_closed_form():
    rng = np.random.default_rng(29)
    for i in range(30):
        n = int(rng.integers(2, 7))
        A = random_constant_row_sum(n, rng)
        assert sampled_contractivity(A, l1(), 2000, seed=i) <= contractivity(A, l1()).c + 1e-12
        # exact coefficients are submultiplicative: the product's is at most
        # the product of the factors'
        factors = [random_constant_row_sum(n, rng) for _ in range(4)]
        c_exact = contractivity(Matrix(np.linalg.multi_dot([F.a for F in reversed(factors)])), l1()).c
        c_bound = np.prod([contractivity(F, l1()).c for F in factors])
        assert c_exact <= c_bound + 1e-12 * max(1.0, c_bound)


def test_empirical_contractivity_properties():
    # averaging matrix maps everything onto the diagonal: ratio 0
    J4 = np.full((4, 4), 0.25)
    assert sampled_contractivity(J4, l2(), 1000, seed=0) == 0.0
    # deterministic in the seed
    a = sampled_contractivity(A3, l2(), 5000, seed=42)
    b = sampled_contractivity(A3, l2(), 5000, seed=42)
    assert a == b


def test_empirical_never_exceeds_l2_closed_form():
    # the closed form upper-bounds the true ratio for any constant row sums
    rng = np.random.default_rng(23)
    for _ in range(50):
        A = random_stochastic(int(rng.integers(2, 7)), rng)
        emp = sampled_contractivity(A, l2(), 2000, seed=1)
        assert emp <= contractivity_l2(A).c + 1e-10


def test_empirical_reaches_l2_value_on_doubly_constant():
    rng = np.random.default_rng(24)
    for i in range(20):
        A = random_doubly_constant(int(rng.integers(3, 6)), rng)
        c = contractivity_l2(A).c
        emp = sampled_contractivity(A, l2(), 100000, seed=i)
        assert emp <= c + 1e-10
        if c > 1e-10:
            assert emp >= 0.99 * c


def test_weighted_empirical_below_bound():
    rng = np.random.default_rng(25)
    for i in range(30):
        n = int(rng.integers(2, 6))
        A = random_stochastic(n, rng)
        w = rng.random(n) + 0.1
        bound = contractivity(A, weighted_l2(w)).c
        emp = sampled_contractivity(A, weighted_l2(w), 5000, seed=i)
        assert emp <= bound + 1e-10


def witness_cases(seed, count):
    """(A, norm) over nonnegative, doubly constant and signed constant row
    sum matrices with n = 2 to 8, under l2 and random wl2 weights."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 9))
        A = (random_nonneg_row_sum(n, rng), random_doubly_constant(n, rng),
             random_constant_row_sum(n, rng))[i % 3]
        yield A, (l2() if i % 2 else weighted_l2(rng.random(n) + 0.05))


def test_attained_lower_bound_between_sampling_and_the_bound():
    for i, (A, norm) in enumerate(witness_cases(30, 120)):
        c = contractivity(A, norm).c
        lower = attained_lower_bound(A, norm)
        assert lower <= c * (1 + 1e-12), (A.a, norm, lower, c)
        assert lower >= sampled_contractivity(A, norm, 2000, seed=i) - 1e-12, (A.a, norm, lower)


def test_attained_lower_bound_is_c_on_doubly_constant_l2():
    rng = np.random.default_rng(31)
    for _ in range(60):
        A = random_doubly_constant(int(rng.integers(2, 9)), rng)
        c = contractivity(A, l2()).c
        assert attained_lower_bound(A, l2()) == pytest.approx(c, abs=1e-12 * max(1.0, c))


def test_attained_lower_bound_reference_values():
    assert attained_lower_bound(A4, l2()) == pytest.approx(0.955505136625, abs=1e-12)
    assert attained_lower_bound(A4, weighted_l2(W4)) == pytest.approx(0.893748035587, abs=1e-12)
    # A3 under W4: the sup itself is above 1, below the bound 1.867
    assert 1.09 < attained_lower_bound(A3, weighted_l2(W4)) < contractivity(A3, weighted_l2(W4)).c


@pytest.mark.parametrize("norm_of_n", [lambda n: linf(), lambda n: l1(), lambda n: l2(),
                                       lambda n: weighted_l2(np.linspace(1.0, 0.3, n))],
                         ids=["linf", "l1", "l2", "wl2"])
def test_attained_lower_bound_zero_for_n_1_and_rank_one(norm_of_n):
    assert attained_lower_bound([[2.0]], norm_of_n(1)) == 0.0
    # A x is a constant vector, which lies on X* under every norm
    rank_one = np.outer(np.ones(3), [0.2, 0.3, 0.5])
    assert attained_lower_bound(rank_one, norm_of_n(3)) == 0.0


def test_attained_lower_bound_nan_when_m_overflows():
    # finite entries whose column sums overflow
    huge = np.array([[1e308, -1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 0.0]])
    assert np.isnan(attained_lower_bound(huge, l2()))
    # entries far from 1 on either side: M is scaled before M^T M
    for scale in (1e-200, 1e200):
        assert attained_lower_bound(A4.a * scale, l2()) == pytest.approx(
            0.955505136625 * scale, rel=1e-12)


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


def _fixes_unit_singular_space(B, tol=1e-8, fixed_tol=1e-6):
    """Paracontractivity from one SVD: ||B||_2 <= 1 and B fixes pointwise
    V1, the right singular subspace for singular value 1, on which
    ||Bx|| = ||x|| and which holds the fixed points."""
    _, s, Vt = np.linalg.svd(B)
    V1 = Vt[np.abs(s - 1.0) < tol].T
    return bool(s[0] <= 1.0 + tol and np.linalg.norm(B @ V1 - V1) < fixed_tol)


def test_paracontractive_examples():
    # Euclidean paracontractivity, ||Bx|| < ||x|| exactly for the non-fixed
    # x, by the three-SVD reference
    assert _paracontractive_l2_three_svd(np.eye(3))
    assert _paracontractive_l2_three_svd(np.diag([1.0, 0.5]))
    assert not _paracontractive_l2_three_svd(M0.a)
    # rotation: nonexpansive, no fixed points off origin, but ||Rx|| == ||x||
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert not _paracontractive_l2_three_svd(rot)
    assert _paracontractive_l2_three_svd(0.5 * rot)
    # the one-SVD test agrees on random B, orthogonal projections and
    # blocks with singular value exactly 1 (fixed, rotated or reflected)
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
    verdicts = [_paracontractive_l2_three_svd(B) for B in cases]
    assert verdicts == [_fixes_unit_singular_space(B) for B in cases]
    assert any(verdicts) and not all(verdicts)


def test_pseudocontractive_stochastic_examples():
    # for stochastic A, pseudocontractive under the max norm (c < 1, by the
    # binary oracle) iff scrambling; A1 is not stochastic
    assert binary_contractivity(A4) < 1 and is_scrambling(A4)
    assert binary_contractivity(A5) == 1 and not is_scrambling(A5)
    J3 = np.full((3, 3), 1.0 / 3.0)
    assert binary_contractivity(J3) == 0 and is_scrambling(J3)
    assert not is_stochastic(A1)


def test_pseudocontractive_iff_scrambling_iff_contractive():
    rng = np.random.default_rng(27)
    for _ in range(300):
        A = random_stochastic(int(rng.integers(2, 9)), rng,
                              density=float(rng.uniform(0.3, 1.0)))
        scram = is_scrambling(A)
        assert (binary_contractivity(A) < 1) == scram, A.a
        assert contractivity(A, linf()).is_set_contractive == scram


def test_decompose_affine_examples():
    # constant x: averaging fallback
    dec = decompose_affine(A4, np.array([2.0, 2.0, 2.0]))
    assert np.abs(dec.B.a - 1.0 / 3.0).max() < 1e-12
    assert np.ptp(dec.xstar) < 1e-12
    # identity is set-nonexpansive with c = 1
    x = np.array([0.0, 1.0, -0.5])
    dec = decompose_affine(np.eye(3), x)
    assert np.abs(dec.B.a @ x + dec.xstar - x).max() < 1e-12


MIXING = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.3, 0.3, 0.4]])


def test_decompose_affine_independent_of_the_scale_of_x():
    # scaling by a power of two is exact: x spread by 2**-50 is not constant
    x = np.array([0.0, 1.0, 0.5])
    dec = decompose_affine(MIXING, x)
    small = decompose_affine(MIXING, x * 2.0**-50)
    assert np.array_equal(small.B.a, dec.B.a)
    assert np.ptp(dec.xstar) == 0.0 and np.ptp(small.xstar) == 0.0
    assert small.xstar[0] == dec.xstar[0] * 2.0**-50


def test_decompose_affine_weights_survive_an_overflowing_spread():
    # x[0] - x[1] overflows; the weights come from the halves of x, and x / 4,
    # whose spread is finite, gives the same B bit for bit
    D = np.array([[0.5, 0.5], [0.25, 0.75]])
    x = np.array([1e308, -1e308])
    dec = decompose_affine(D, x)
    assert dec.B.a.tolist() == [[0.625, 0.375], [0.375, 0.625]]
    assert np.abs(dec.B.a @ x + dec.xstar - D @ x).max() <= 1e-15 * 1e308
    assert np.array_equal(decompose_affine(D, x / 4).B.a, dec.B.a)


def test_decompose_affine_constant_x_keeps_a_constant_xstar():
    # row sums 1 and 1 + 1e-10, accepted at the default tolerance
    A = MIXING.copy()
    A[1, 1] += 1e-10
    dec = decompose_affine(A, np.full(3, 0.5))
    assert np.array_equal(dec.B.a, np.full((3, 3), 1.0 / 3.0))
    assert np.ptp(dec.xstar) == 0.0


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
            c_l2, c_wl2 = contractivity_l2(A).c, contractivity(A, weighted_l2(w)).c
            if n == 1:
                assert c_l2 == c_wl2 == 0.0
                continue
            K = basis_K(n)
            expected_l2 = spectral_norm_2(A.a @ K)
            expected_wl2 = spectral_norm_2(np.sqrt(w)[:, None] * A.a / w[None, :] @ K)
            assert abs(c_l2 - expected_l2) <= 1e-12 * expected_l2
            assert abs(c_wl2 - expected_wl2) <= 1e-12 * expected_wl2
