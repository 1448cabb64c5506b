import json
from collections import deque

import numpy as np
import pytest

from contractlab import cli
from contractlab.contractivity import contractivity_l2, contractivity_linf
from contractlab.graphs import has_spanning_directed_tree, interaction_digraph, is_irreducible
from contractlab.reference import A2, A4

from conftest import adjacency, random_nonneg_row_sum


def test_interaction_digraph_edge_rule():
    # edge i -> j iff A[j, i] != 0: influence flows into the dependent row
    G = interaction_digraph(A2)
    assert np.flatnonzero(G[1]).tolist() == [0, 1]
    assert np.flatnonzero(G[2]).tolist() == [0, 2]
    assert np.flatnonzero(G[0]).tolist() == [0]


def test_interaction_digraph_identity():
    G = interaction_digraph(np.eye(4))
    assert np.array_equal(G, np.eye(4, dtype=bool))


def test_interaction_digraph_a4():
    G = interaction_digraph(A4)
    assert np.flatnonzero(G[0]).tolist() == [0, 1, 2]
    assert np.flatnonzero(G[1]).tolist() == [1, 2]
    assert np.flatnonzero(G[2]).tolist() == [2]


def test_interaction_digraph_is_read_only_c_contiguous():
    # the frontier search reads whole rows: the layout it relies on
    for a in (A4, np.eye(1), np.ones((5, 5))):
        G = interaction_digraph(a)
        assert G.dtype == bool and G.flags.c_contiguous and not G.flags.writeable


def test_spanning_tree_examples():
    assert has_spanning_directed_tree(interaction_digraph(A4)) == (True, 0)
    assert has_spanning_directed_tree(interaction_digraph(A2)) == (False, None)
    assert has_spanning_directed_tree(interaction_digraph([[1.0]])) == (True, 0)


def test_irreducible_examples():
    cycle = adjacency(3, [(0, 1), (1, 2), (2, 0)])
    assert is_irreducible(cycle)
    assert not is_irreducible(interaction_digraph(A2))
    assert is_irreducible(adjacency(1, []))


def test_irreducible_implies_spanning_tree():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.25]
        G = adjacency(n, pairs)
        if is_irreducible(G):
            assert has_spanning_directed_tree(G)[0]


def test_self_loop_invariance():
    base = [(0, 1), (1, 2)]
    with_loops = base + [(0, 0), (2, 2)]
    r1 = has_spanning_directed_tree(adjacency(3, base))
    r2 = has_spanning_directed_tree(adjacency(3, with_loops))
    assert r1 == r2 == (True, 0)


def test_digraph_validation():
    # the reachability functions check the adjacency they read
    for shape in [(1, 2), (0, 0), (3,)]:
        with pytest.raises(ValueError):
            has_spanning_directed_tree(np.zeros(shape, dtype=bool))
        with pytest.raises(ValueError):
            is_irreducible(np.zeros(shape, dtype=bool))


def test_contractive_implies_spanning_tree():
    # graph necessary condition, contrapositive, on a small random sample
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        A = random_nonneg_row_sum(n, rng, r=1.0,
                                  density=float(rng.uniform(0.3, 1.0)))
        if (contractivity_linf(A).is_set_contractive
                or contractivity_l2(A).is_set_contractive):
            assert has_spanning_directed_tree(interaction_digraph(A))[0]
            checked += 1


# Frozen reference: the successor-set Digraph and its root-by-root
# breadth-first search, as they were before the adjacency matrix became
# the stored form.  The array search must give the same answers.
def _bfs_reachable(succ, root):
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _oracle_tree(succ):
    n = len(succ)
    for root in range(n):
        if len(_bfs_reachable(succ, root)) == n:
            return True, root
    return False, None


def _oracle_irreducible(succ):
    n = len(succ)
    pred = [set() for _ in range(n)]
    for i in range(n):
        for j in succ[i]:
            pred[j].add(i)
    return len(_bfs_reachable(succ, 0)) == n and len(_bfs_reachable(pred, 0)) == n


def _oracle_json(succ):
    pairs = sorted((i, j) for i in range(len(succ)) for j in succ[i])
    return {"n": len(succ), "edges": [list(p) for p in pairs]}


def _random_successor_sets(rng):
    n = int(rng.integers(1, 16))
    density = float(rng.choice([0.0, 0.05, 0.15, 0.4]))
    kind = rng.integers(4)
    succ = [{j for j in range(n) if rng.random() < density} for _ in range(n)]
    if kind == 1:  # only the last vertex can be a root: a tree from it, no edge into it
        order = np.concatenate([[n - 1], rng.permutation(n - 1)])
        for k in range(1, n):
            succ[order[rng.integers(k)]].add(int(order[k]))
        for i in range(n - 1):
            succ[i].discard(n - 1)
    elif kind == 2:  # self-loops only
        succ = [{i} for i in range(n)]
    elif kind == 3:  # no edges at all
        succ = [set() for _ in range(n)]
    return [{int(j) for j in s} for s in succ]


def test_graph_routines_match_frozen_bfs():
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(1500):
        succ = _random_successor_sets(rng)
        n = len(succ)
        G = adjacency(n, [(i, j) for i in range(n) for j in succ[i]])
        expected = _oracle_tree(succ)
        assert has_spanning_directed_tree(G) == expected
        assert is_irreducible(G) == _oracle_irreducible(succ)
        assert np.argwhere(G).tolist() == _oracle_json(succ)["edges"]
        outcomes.add((n == 1, expected[1] == n - 1))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_interaction_digraph_matches_frozen_successor_sets():
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < rng.uniform(0.3, 0.95)] = 0.0
        nz = np.abs(a) > 1e-12
        succ = [{int(j) for j in nz[:, i].nonzero()[0]} for i in range(n)]
        G = interaction_digraph(a)
        assert np.argwhere(G).tolist() == _oracle_json(succ)["edges"]
        assert has_spanning_directed_tree(G) == _oracle_tree(succ)
        assert is_irreducible(G) == _oracle_irreducible(succ)


def test_analyze_digraph_matches_frozen_oracle(tmp_path, capsys):
    # the one digraph encoding that ships: analyze's "digraph" field
    rng = np.random.default_rng(33)
    matrices = [A4.a, np.zeros((4, 4)), np.eye(1), np.zeros((1, 1))]
    for _ in range(40):
        n = int(rng.integers(1, 12))
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < rng.uniform(0.3, 0.95)] = 0.0
        matrices.append(a)
    path = tmp_path / "a.json"
    for a in matrices:
        path.write_text(json.dumps({"rows": a.tolist()}))
        assert cli.main(["analyze", str(path)]) == 0
        nz = np.abs(a) > 1e-12
        succ = [{int(j) for j in nz[:, i].nonzero()[0]} for i in range(len(a))]
        assert json.loads(capsys.readouterr().out)["digraph"] == _oracle_json(succ)
