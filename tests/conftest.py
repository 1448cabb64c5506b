import sys

import numpy as np

from contractlab.contractivity import contractivity
from contractlab.graphs import has_spanning_directed_tree, interaction_digraph
from contractlab.matcore import Matrix, is_scrambling, mu
from contractlab.projections import linf


def random_nonneg_row_sum(n, rng, r=None, density=1.0):
    """Random nonnegative matrix with constant row sum r (no zero rows)."""
    if r is None:
        r = rng.uniform(0.5, 2.0)
    a = rng.random((n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        for i in range(n):
            if not mask[i].any():
                mask[i, rng.integers(n)] = True
        a = a * mask
    a = r * a / a.sum(axis=1, keepdims=True)
    return Matrix(a)


def random_stochastic(n, rng, density=1.0):
    return random_nonneg_row_sum(n, rng, r=1.0, density=density)


def random_doubly_constant(n, rng, r=None):
    """Scaled convex combination of permutation matrices: both row and
    column sums equal r.  On this class the l2 closed form is exact."""
    if r is None:
        r = rng.uniform(0.5, 1.3)
    k = int(rng.integers(2, 6))
    w = rng.random(k)
    w /= w.sum()
    a = np.zeros((n, n))
    eye = np.eye(n)
    for wi in w:
        a += wi * eye[rng.permutation(n)]
    return Matrix(r * a)


# v of a rank-one e v^T, whose c is 0: a plain mean of its five equal row
# sums rounds 4.4e-16 below them
RANK_ONE_V = [0.9320596866133782, 0.1149326332809052, 0.7290151170763094,
              0.9274239286245599, 0.9679261899246464]


def rank_one_matrices(count=300, seed=0):
    """count rank-one e v^T, n in 2..8 and v uniform in [0, 1)^n."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        yield Matrix(np.outer(np.ones(n), rng.random(n)))


def counting_coefficient(monkeypatch):
    """Wrap the dispatch contractivity, which computes every coefficient,
    where the package's modules bind it.  Return the list of its matrix
    arguments, one entry per coefficient computed."""
    calls = []
    original = contractivity

    def counting(A, *args, **kwargs):
        calls.append(A)
        return original(A, *args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("contractlab."):
            for attr in [k for k, v in vars(mod).items() if v is original]:
                monkeypatch.setattr(mod, attr, counting)
    return calls


def scrambling_product_theorem_failures(A, epsilon, r, tol=1e-9):
    """The hypotheses of the scrambling-product theorem that the item A
    breaks, each within tol: entries >= 0, a positive diagonal, nonzero
    entries >= epsilon, row sums <= r, and a spanning directed tree in
    its interaction digraph."""
    a = _array(A)
    broken = {
        "negative entry": np.any(a < -tol),
        "nonpositive diagonal": np.any(np.diag(a) <= 0),
        "nonzero entry below epsilon": np.any(a[a != 0] < epsilon - tol),
        "row sum above r": np.any(a.sum(axis=1) > r + tol),
        "no spanning directed tree":
            not has_spanning_directed_tree(interaction_digraph(Matrix(a)))[0],
    }
    return tuple(name for name, fails in broken.items() if fails)


def check_scrambling_product_theorem(seq, epsilon, r):
    """Assert the scrambling-product theorem on the n x n sequence seq:
    each of its first max(1, n - 1) items meets the hypotheses, and their
    product P is scrambling, with mu(P) >= epsilon^(n-1) and c_linf(P) <=
    r^(n-1) - epsilon^(n-1)."""
    n = seq.n
    P = np.eye(n)
    for k in range(max(1, n - 1)):
        assert not scrambling_product_theorem_failures(seq[k], epsilon, r), (k, seq[k].a)
        P = seq[k].a @ P
    assert is_scrambling(P), P
    assert mu(P) >= epsilon ** (n - 1) - 1e-12, P
    assert contractivity(P, linf()).c <= r ** (n - 1) - epsilon ** (n - 1) + 1e-10, P


# Oracles for the tests, written with plain numpy and sharing no code with
# the package: each reaches its value another way than the library does.

def _array(A) -> np.ndarray:
    return np.asarray(getattr(A, "a", A), dtype=float)


def basis_K(n):
    """Orthonormal basis of e-perp as the columns of an n x (n-1) array:
    the right singular vectors of the all-ones row past the first."""
    return np.linalg.svd(np.ones((1, n)))[2][1:].T


def binary_contractivity(A, kind="linf"):
    """max of d(Ax, X*) / d(x, X*) over the binary x other than 0 and e,
    one x per row; d is ptp(x) / 2 under linf and sum |x - median(x)|
    under l1.  0 for n = 1, which has no such x."""
    a = _array(A)
    n = a.shape[0]
    X = (np.arange(1, 2 ** n - 1)[:, None] >> np.arange(n)) & 1

    def dist(V):
        if kind == "linf":
            return np.ptp(V, axis=1) / 2
        return np.abs(V - np.median(V, axis=1, keepdims=True)).sum(axis=1)

    return float(np.max(dist(X @ a.T) / dist(X), initial=0.0))


def delta_halfsum(A):
    """(1/2) max over row pairs of the l1 distance between the rows, from
    the full n x n x n broadcast: delta(A) for constant row sums."""
    a = _array(A)
    return float(np.abs(a[:, None, :] - a[None, :, :]).sum(axis=2).max() / 2)


def _distances(X, norm):
    """d(x, X*) for each column x of X, from each norm's closed form: half
    the range under linf, the l1 distance to the median under l1, and
    the weighted root mean square about the weighted mean under l2 and
    wl2."""
    if norm.kind == "linf":
        return np.ptp(X, axis=0) / 2
    if norm.kind == "l1":
        return np.abs(X - np.median(X, axis=0)).sum(axis=0)
    w = norm.weights if norm.kind == "wl2" else np.ones(X.shape[0])
    return np.sqrt(w @ (X - w @ X / w.sum()) ** 2)


def sampled_contractivity(A, norm, samples, seed=0):
    """Monte Carlo lower bound on c(A): the max of d(Ax, X*) / d(x, X*)
    over `samples` standard normal x off the diagonal span, deterministic
    in the seed; 0.0 when no sample is off it."""
    a = _array(A)
    X = np.random.default_rng(seed).standard_normal((a.shape[0], samples))
    d = _distances(X, norm)
    keep = d > 1e-12
    return float(np.max(_distances(a @ X[:, keep], norm) / d[keep], initial=0.0))


def norm_of(x, norm):
    """The norm of x under a Norm selector, from np.linalg.norm."""
    if norm.kind == "wl2":
        return float(np.linalg.norm(np.sqrt(norm.weights) * x))
    return float(np.linalg.norm(x, {"linf": np.inf, "l2": 2, "l1": 1}[norm.kind]))


def adjacency(n, pairs):
    """n x n bool adjacency with edge i -> j for each pair (i, j)."""
    G = np.zeros((n, n), dtype=bool)
    G[tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)] = True
    return G
