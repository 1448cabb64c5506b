"""Bundled reference matrices with known coefficient values, used by the
`reproduce-paper` subcommand and the acceptance suite.

Each check row compares a computed quantity against its reference value
at a stated tolerance; boolean checks use tolerance 0.
"""

from __future__ import annotations

import numpy as np

from .contractivity import contractivity, spectral_norm_2
from .graphs import has_spanning_directed_tree, interaction_digraph
from .matcore import Matrix, is_scrambling, mu
from .projections import l2, linf, weighted_l2

M0 = Matrix(np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]))
A1 = Matrix(np.array([[1.1, 0.0, 0.0], [0.6, 0.5, 0.0], [0.6, 0.0, 0.5]]))
A2 = Matrix(np.array([[0.4, 0.3, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
A3 = Matrix(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
A4 = Matrix(np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.1, 0.1, 0.8]]))
A5 = Matrix(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
W4 = np.array([1.0, 0.2265, 1.0])

MATRICES = {"M0": M0, "A1": A1, "A2": A2, "A3": A3, "A4": A4, "A5": A5}


def run_reference_checks() -> list[dict]:
    """All reference checks as rows {id, expected, computed, tol, pass}."""

    def row(check_id, expected, computed, tol):
        if isinstance(expected, bool):
            ok = bool(computed) == expected
        else:
            ok = abs(computed - expected) <= tol
        return {"id": check_id, "expected": expected,
                "computed": computed, "tol": tol, "pass": ok}

    rows = [
        row("spectral_norm(M0)", 1.088, spectral_norm_2(M0.a), 1e-3),
        row("mu(A1)", 0.6, mu(A1), 0.0),
        # 1.1 - 0.6 rounds to 0.5 + 1 ulp in binary floating point
        row("c_linf(A1)", 0.5, contractivity(A1, linf()).c, 5e-16),
        row("c_l2(A2)", 1.000, contractivity(A2, l2()).c, 1e-6),
        row("spanning_tree(A2)", False,
            has_spanning_directed_tree(interaction_digraph(A2))[0], 0.0),
        row("c_l2(A3)", 0.939, contractivity(A3, l2()).c, 1e-3),
        row("scrambling(A3)", False, is_scrambling(A3), 0.0),
        row("c_l2(A4)", 1.125, contractivity(A4, l2()).c, 1e-3),
        row("scrambling(A4)", True, is_scrambling(A4), 0.0),
        row("spanning_tree(A4)", True,
            has_spanning_directed_tree(interaction_digraph(A4))[0], 0.0),
        row("weighted_bound(A4) < 1", True,
            contractivity(A4, weighted_l2(W4)).c < 1.0, 0.0),
        row("c_l2(A5)", 0.939, contractivity(A5, l2()).c, 1e-3),
        row("scrambling(A5)", False, is_scrambling(A5), 0.0),
    ]
    return rows
