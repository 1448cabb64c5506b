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
"""

from .matcore import (
    Matrix,
    RowSumProfile,
    as_matrix,
    delta,
    is_scrambling,
    is_stochastic,
    mu,
    row_sum_profile,
    spread,
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
    basis_K,
    contractivity,
    contractivity_l2,
    contractivity_linf,
    contractivity_weighted_bound,
    decompose_affine,
    empirical_contractivity,
    exhaustive_binary_contractivity,
    is_paracontractive_l2,
    is_pseudocontractive_stochastic_linf,
    spectral_norm_2,
)
from .products import (
    ErgodicityReport,
    MatrixSequence,
    check_convergence_condition,
    ergodicity_coefficient,
    min_contractive_product_length,
    product,
    product_contractivity_bound,
    random_stochastic_spanning_tree,
    scrambling_product_theorem_check,
    weak_ergodicity_diagnostic,
)
from .cml import (
    MapDef,
    SimTrace,
    check_sync_condition,
    check_sync_corollary,
    make_map,
    simulate,
)

__version__ = "0.1.0"
