import importlib
import sys

import numpy as np

from contractlab import Matrix


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


def counting_coefficient(monkeypatch):
    """Wrap the coefficient routines where the package's submodules bind
    them: the dispatch contractivity everywhere, and the per-norm formulas
    outside the contractivity module, where the dispatch reaches them.
    Return the list of their matrix arguments, one entry per coefficient
    computed.  Calls through the package namespace are not counted."""
    calls = []
    module = importlib.import_module("contractlab.contractivity")
    submodules = [m for key, m in sys.modules.items() if key.startswith("contractlab.")]
    for name in ("contractivity", "contractivity_linf", "contractivity_l2",
                 "contractivity_weighted_bound"):
        original = getattr(module, name)

        def counting(A, *args, _original=original, **kwargs):
            calls.append(A)
            return _original(A, *args, **kwargs)

        for mod in submodules:
            if name == "contractivity" or mod is not module:
                for attr in [k for k, v in vars(mod).items() if v is original]:
                    monkeypatch.setattr(mod, attr, counting)
    return calls
