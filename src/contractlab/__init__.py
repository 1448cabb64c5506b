"""Set-contractivity of constant row sum matrices: scrambling / mu /
delta analysis, the exact max-norm coefficient and the paper's upper
bounds under Euclidean norms, graph necessary conditions, product and
weak-ergodicity diagnostics, and a coupled map lattice simulator.
Digraphs are plain n x n bool adjacency arrays.

The package re-exports the function ``contractivity``, which shadows the
submodule of the same name: ``import contractlab.contractivity as C``
binds the function.  Reach the module with
``importlib.import_module("contractlab.contractivity")`` or import names
from it (``from contractlab.contractivity import contractivity_l2``).

Importing the package loads ``matcore``, ``graphs``, ``projections`` and
``contractivity``, which every command uses.  The names re-exported from
``products`` and ``cml`` (``product``, ``MatrixSequence``, ``simulate``,
...) are lazy: the first access to one imports its module (PEP 562), and
``dir(contractlab)`` lists them all the same.  ``contractivity`` stays
eager, bound to the function: were it lazy, the later import of the
submodule would bind the package attribute to the module instead.
"""


def _load_numpy() -> None:
    """Import numpy with OpenBLAS's idle busy-wait cut short.

    An OpenBLAS worker thread spins for 2**OPENBLAS_THREAD_TIMEOUT cycles
    (default 2**28, clamped to [4, 30]) before it sleeps; after numpy
    loads, that spin burns 0.1-0.15 s of a second core in every process,
    though the small matrices here never need a BLAS thread.  With 4 the
    workers sleep at once; the pool stays, so large products and SVDs
    still run threaded.  OpenBLAS reads the variable only when numpy
    loads it, so it is set for that import alone and deleted again:
    os.environ stays as the user left it and no child process inherits
    it.  A user's own value wins, and if numpy is already loaded nothing
    changes.  MKL and Accelerate builds ignore the variable.
    """
    import os
    import sys

    if "numpy" in sys.modules or "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_load_numpy()
del _load_numpy

from .matcore import (
    Matrix,
    RowSumProfile,
    as_matrix,
    delta,
    is_scrambling,
    is_stochastic,
    mu,
    row_sum_profile,
)
from .graphs import (
    has_spanning_directed_tree,
    interaction_digraph,
    is_irreducible,
)
from .projections import (
    Norm,
    Projection,
    distance_to_diagonal,
    l1,
    l2,
    linf,
    project,
    weighted_l2,
)
from .contractivity import (
    AffineDecomposition,
    ContractivityReport,
    contractivity,
    contractivity_l2,
    contractivity_linf,
    decompose_affine,
    is_paracontractive_l2,
    is_pseudocontractive_stochastic_linf,
    spectral_norm_2,
)

# the names re-exported lazily, each with its module; see __getattr__
_LAZY = dict.fromkeys((
    "ErgodicityReport",
    "MatrixSequence",
    "check_convergence_condition",
    "ergodicity_coefficient",
    "min_contractive_product_length",
    "product",
    "product_contractivity_bound",
    "random_stochastic_spanning_tree",
    "scrambling_product_theorem_check",
    "weak_ergodicity_diagnostic",
), "products") | dict.fromkeys((
    "MapDef",
    "SimTrace",
    "check_sync_condition",
    "check_sync_corollary",
    "make_map",
    "simulate",
), "cml")


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
