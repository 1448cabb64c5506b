"""Set-contractivity of constant row sum matrices: scrambling / mu /
delta analysis, the exact max-norm coefficient and the paper's upper
bounds under Euclidean norms, graph necessary conditions, product and
weak-ergodicity diagnostics, and a coupled map lattice simulator.
Digraphs are plain n x n bool adjacency arrays.

Each name lives in the module that defines it and is imported from
there: ``matcore`` (``Matrix``, ``mu``, ``delta``, ``is_scrambling``),
``graphs``, ``projections`` (the norms), ``contractivity`` (the
coefficients, ``decompose_affine``), ``products`` (``MatrixSequence``,
``product``, ``weak_ergodicity_diagnostic``) and ``cml`` (``simulate``),
as in ``from contractlab.cml import simulate``.  Importing the package
itself loads numpy and none of these modules.
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

    if "numpy" in sys.modules:
        return
    if "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        import numpy
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_load_numpy()
del _load_numpy

__version__ = "0.1.0"
