"""Interaction digraph of a matrix and the reachability predicates used
by the graph-based necessary condition for set-contractivity.

The interaction digraph of A is the directed graph of A^T: edge i -> j is
present iff A[j, i] is structurally nonzero, i.e. j's update depends on i
and influence flows from i to j.

A ``Digraph`` stores one n x n bool adjacency, ``adj[i, j]`` iff edge
i -> j; successor sets and the JSON edge list are derived from it.
Reachability is a frontier search on that matrix: every vertex enters
the frontier once, so one search reads each row once, O(n^2).
"""

from __future__ import annotations

import numpy as np

from .matcore import as_matrix


class Digraph:
    """Directed graph on vertices 0..n-1.

    ``Digraph(adj)`` takes the n x n bool adjacency, ``adj[i, j]`` iff
    edge i -> j, and keeps a read-only C-contiguous copy of it.
    """

    __slots__ = ("adj",)

    def __init__(self, adj):
        adj = np.array(adj, dtype=bool, order="C")
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise ValueError(f"expected a nonempty square adjacency, got shape {adj.shape}")
        adj.setflags(write=False)
        self.adj = adj

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return bool(np.array_equal(self.adj, other.adj))

    def __hash__(self):
        return hash(self.adj.tobytes())

    def __repr__(self):
        return f"Digraph({self.adj.tolist()!r})"

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def edges(self) -> tuple[frozenset, ...]:
        """edges[i] = successor set of vertex i."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.adj)

    def to_json(self) -> dict:
        # argwhere lists the pairs in row-major order, i.e. sorted
        return {"n": self.n, "edges": np.argwhere(self.adj).tolist()}


def digraph_from_edges(n: int, pairs) -> Digraph:
    """Digraph on vertices 0..n-1 with edge i -> j for each pair (i, j)."""
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    bad = pairs[(pairs < 0) | (pairs >= n)]
    if bad.size:
        raise ValueError(f"vertex index {bad[0]} out of range")
    adj = np.zeros((n, n), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = True
    return Digraph(adj)


def interaction_digraph(A) -> Digraph:
    """Digraph with edge i -> j iff |A[j, i]| > zero_tol."""
    return Digraph(as_matrix(A).nonzero_pattern().T)


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


def has_spanning_directed_tree(G: Digraph) -> tuple[bool, int | None]:
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
    seen = np.zeros(G.n, dtype=bool)
    candidate = 0
    for v in range(G.n):
        if not seen[v]:
            candidate = v
            _search(G.adj, v, seen)
    if _reaches_all(G.adj, candidate):
        return True, candidate
    return False, None


def is_irreducible(G: Digraph) -> bool:
    """True iff G is strongly connected."""
    return _reaches_all(G.adj, 0) and _reaches_all(G.adj.T, 0)
