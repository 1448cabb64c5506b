import warnings

import numpy as np
import pytest

from contractlab import distance_to_diagonal, l1, l2, linf, project, weighted_l2
from contractlab.projections import NormError, project_columns, vector_norm

NORMS = [linf(), l2(), l1(), weighted_l2([1.0, 0.3, 0.7])]


def test_linf_example():
    p = project([0.0, 1.0, 3.0], linf())
    assert p.alpha == 1.5 and p.distance == 1.5


def test_l2_example():
    p = project([0.0, 1.0, 3.0], l2())
    assert p.alpha == pytest.approx(4.0 / 3.0)
    assert p.distance == pytest.approx(np.sqrt(42.0) / 3.0)


def test_l1_example():
    p = project([0.0, 1.0, 3.0], l1())
    assert p.alpha == 1.0 and p.distance == 3.0


def test_diagonal_vectors_have_zero_distance():
    for norm in NORMS:
        for alpha in (-2.0, 0.0, 3.5):
            assert distance_to_diagonal([alpha] * 3, norm) == pytest.approx(0.0, abs=1e-12)


def test_distance_wrapper_examples():
    assert distance_to_diagonal([1.0, 1.0, 1.0], l2()) == 0.0
    assert distance_to_diagonal([0.0, 1.0], linf()) == 0.5
    assert distance_to_diagonal([0.0, 1.0, 3.0], l1()) == 3.0


def test_weighted_projection_coefficient():
    w = np.array([1.0, 0.5, 0.25])
    x = np.array([2.0, -1.0, 4.0])
    p = project(x, weighted_l2(w))
    assert p.alpha == pytest.approx(w @ x / w.sum())
    assert p.distance == pytest.approx(np.sqrt(np.sum(w * (x - p.alpha) ** 2)))


def test_weight_normalization_and_validation():
    norm = weighted_l2([2.0, 4.0])
    assert norm.weights.max() == 1.0
    with pytest.raises(NormError):
        weighted_l2([1.0, -1.0])
    with pytest.raises(NormError):
        project([1.0, 2.0, 3.0], weighted_l2([1.0, 1.0]))  # length mismatch


def test_input_validation():
    with pytest.raises(NormError):
        project([], l2())
    with pytest.raises(NormError):
        project([1.0, np.inf], linf())


def test_projection_is_minimizer():
    rng = np.random.default_rng(11)
    for norm in NORMS:
        for _ in range(250):
            x = rng.standard_normal(3) * rng.uniform(0.1, 10)
            p = project(x, norm)
            betas = p.alpha + rng.standard_normal(100)
            for beta in betas:
                assert p.distance <= vector_norm(x - beta, norm) + 1e-12


def test_l1_even_n_tie_interval():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 9)) * 2
        x = rng.standard_normal(n)
        xs = np.sort(x)
        p = project(x, l1())
        assert p.alpha == xs[n // 2 - 1]
        for aprime in np.linspace(xs[n // 2 - 1], xs[n // 2], 7):
            assert vector_norm(x - aprime, l1()) == pytest.approx(p.distance, abs=1e-10)


def test_translation_covariance_and_homogeneity():
    rng = np.random.default_rng(13)
    for norm in NORMS:
        for _ in range(200):
            x = rng.standard_normal(3)
            beta = float(rng.standard_normal())
            lam = float(rng.standard_normal())
            p = project(x, norm)
            q = project(x + beta, norm)
            assert q.alpha == pytest.approx(p.alpha + beta, abs=1e-10)
            assert q.distance == pytest.approx(p.distance, abs=1e-10)
            assert distance_to_diagonal(lam * x, norm) == pytest.approx(
                abs(lam) * p.distance, abs=1e-10)


def test_project_columns_matches_scalar_version():
    # a batch with contiguous columns equals its columns bit for bit; n
    # past numpy's 8-element pairwise-summation block
    rng = np.random.default_rng(14)
    for n in (9, 33):
        X = rng.standard_normal((40, n)).T
        for norm in [linf(), l2(), l1(), weighted_l2(rng.random(n) + 0.1)]:
            alphas, dists = project_columns(X, norm)
            for j in range(X.shape[1]):
                p = project(X[:, j], norm)
                assert alphas[j] == p.alpha
                assert dists[j] == p.distance


@pytest.mark.parametrize("norm", [linf(), l2(), l1(), weighted_l2([1.0, 0.3])], ids=str)
def test_project_columns_finite_past_the_square_root_of_the_float_range(norm):
    X = np.array([[1e200, 1e308, 1.7e308, 0.1], [3e200, -1e308, 1.6e308, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, dist = project_columns(X, norm)
    # the large columns scaled by a power of two, which is exact, are the reference
    s = 2.0 ** 600
    ref_alpha, ref_dist = project_columns(X[:, :3] / s, norm)
    with np.errstate(over="ignore"):
        ref_alpha, ref_dist = ref_alpha * s, ref_dist * s
    # the l1 distance of [1e308, -1e308] is 2e308, past the float range
    assert np.isinf(ref_dist).tolist() == [False, norm.kind == "l1", False]
    np.testing.assert_allclose(alpha[:3], ref_alpha, rtol=1e-14)
    np.testing.assert_allclose(dist[:3], ref_dist, rtol=1e-14)
    # a column that does not overflow keeps its bits
    p = project(X[:, 3], norm)
    assert (alpha[3], dist[3]) == (p.alpha, p.distance)
