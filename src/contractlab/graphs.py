"""Interaction digraph of a matrix and the reachability predicates used
by the graph-based necessary condition for set-contractivity.

The interaction digraph of A is the directed graph of A^T: edge i -> j is
present iff A[j, i] is structurally nonzero, |A[j, i]| > zero_tol, i.e.
j's update depends on i and influence flows from i to j.

A digraph on vertices 0..n-1 is its n x n bool adjacency array G,
``G[i, j]`` iff edge i -> j; ``np.argwhere(G)`` lists its edges.
Reachability is a frontier search on that array: every vertex enters
the frontier once, so one search reads each row once, O(n^2).
"""

from __future__ import annotations

import numpy as np

from .matcore import DEFAULT_ZERO_TOL, nonzero_pattern


def interaction_digraph(A, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Read-only C-contiguous adjacency with edge i -> j iff |A[j, i]| > zero_tol."""
    G = np.ascontiguousarray(nonzero_pattern(A, zero_tol).T)
    G.setflags(write=False)
    return G


def _adjacency(G) -> np.ndarray:
    G = np.asarray(G, dtype=bool)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
        raise ValueError(f"expected a nonempty square adjacency, got shape {G.shape}")
    return G


def _search(adj: np.ndarray, start: int, seen: np.ndarray) -> None:
    """Mark in ``seen`` every vertex reachable from ``start`` through
    vertices not already seen."""
    seen[start] = True
    front = np.zeros_like(seen)
    front[start] = True
    while front.any():
        front = adj[front].any(axis=0) & ~seen
        seen |= front


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    _search(adj, start, seen)
    return bool(seen.all())


def has_spanning_directed_tree(G) -> tuple[bool, int | None]:
    """Whether some root vertex reaches every vertex by directed paths.

    Returns (True, root) with the smallest such root, or (False, None).
    Self-loops are irrelevant to reachability.

    One sweep searches from each vertex not yet seen, in increasing
    order, sharing the seen mask, so the seen set stays closed under
    successors.  A root seen by one search makes it the last, so every
    root is first seen by the last search, and every vertex below that
    search's start was seen before it.  If a root exists, that start
    reaches it and is therefore the smallest root: one more search
    decides.
    """
    G = _adjacency(G)
    n = G.shape[0]
    seen = np.zeros(n, dtype=bool)
    candidate = 0
    for v in range(n):
        if not seen[v]:
            candidate = v
            _search(G, v, seen)
    if _reaches_all(G, candidate):
        return True, candidate
    return False, None


def is_irreducible(G) -> bool:
    """True iff the digraph with adjacency G is strongly connected."""
    G = _adjacency(G)
    return _reaches_all(G, 0) and _reaches_all(G.T, 0)
