"""Independent numpy oracle for the benchmark workloads.

Every expected value is recomputed here from the raw input arrays with
plain numpy and the standard library; nothing from contractlab's
matcore, contractivity, graphs or cml modules is used.  The only
contractlab code the harness touches for expectations is the sequence
generator, because the generator *is* the input of the ergodicity
workload.

Each ``check_*`` function returns a list of human-readable mismatches;
an empty list means the output is accepted.
"""

from __future__ import annotations

from collections import deque

import numpy as np

ZERO_TOL = 1e-12  # the CLI's default --zero-tol
ROW_SUM_TOL = 1e-9  # the CLI's default --row-sum-tol
SYNC_TOL = 1e-10  # the CLI's default --sync-tol
EXACT_TOL = 1e-12  # margin the CLI puts around c = 1 in its verdicts
DELTA_ZERO = 1e-8  # weak-ergodicity "numerically zero" threshold
NONINCREASE_TOL = 1e-10

# Reports render floats at 12 significant digits; coefficients computed
# by another algorithm (LAPACK instead of Jacobi, a blocked kernel) may
# differ in the last few of those.  1e-9 relative still rejects an
# error of 1e-6 in any reported coefficient.
REL = 1e-9
ABS = 1e-12
# Simulation distances: before synchronization a chaotic map amplifies
# rounding differences along the diagonal, but d_k shrinks faster than
# the error grows; the worst absolute disagreement between two correct
# orderings of the same arithmetic stays below 1e-8.
SIM_ABS = 5e-8


def _compare(errors, label, got, want, rel=REL, abs_=ABS):
    if not (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= abs_ + rel * abs(want)):
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def _compare_series(errors, label, got, want, rel=REL, abs_=ABS):
    want = np.asarray(want, dtype=float)
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        got = None
    if got is None or got.shape != want.shape:
        errors.append(f"{label}: expected {want.size} numbers")
        return
    bad = ~(np.abs(got - want) <= abs_ + rel * np.abs(want))
    if bad.any():
        k = int(np.argmax(bad))
        errors.append(f"{label}[{k}]: got {float(got[k])!r}, expected {float(want[k])!r} "
                      f"({int(bad.sum())} entries differ)")


# ------------------------------------------------------------ kernels


def pair_min_sum(a: np.ndarray) -> float:
    """min over row pairs j < k of sum_i min(a[j, i], a[k, i])."""
    n = a.shape[0]
    if n == 1:
        return float(a.sum())
    return float(min(np.minimum(a[j], a[j + 1:]).sum(axis=1).min()
                     for j in range(n - 1)))


def pair_pos_diff(a: np.ndarray) -> float:
    """max over row pairs i, j of sum_k max(0, a[i, k] - a[j, k])."""
    if a.shape[0] == 1:
        return 0.0
    return float(max(np.maximum(0.0, a[i] - a).sum(axis=1).max()
                     for i in range(a.shape[0])))


def c_linf(a: np.ndarray) -> float:
    """r - mu, the max-norm coefficient of a constant row sum matrix."""
    return float(a.sum(axis=1).mean()) - pair_min_sum(a)


def c_l2(a: np.ndarray) -> float:
    """||A K||_2 with K any orthonormal basis of the complement of e."""
    n = a.shape[0]
    if n == 1:
        return 0.0
    K = np.linalg.svd(np.ones((1, n)))[2][1:].T
    return float(np.linalg.norm(a @ K, 2))


def classify(c: float) -> str:
    if c < 1.0 - EXACT_TOL:
        return "set-contractive"
    if c <= 1.0 + EXACT_TOL:
        return "set-nonexpansive"
    return "expansive"


def _reach(succ, root) -> int:
    seen = {root}
    queue = deque([root])
    while queue:
        for v in succ[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


def graph_facts(a: np.ndarray) -> dict:
    """Edges i -> j iff |a[j, i]| > ZERO_TOL; smallest spanning root by
    BFS from each vertex; strong connectivity by BFS both ways from 0."""
    nz = np.abs(a) > ZERO_TOL
    n = a.shape[0]
    edges = [[int(i), int(j)] for i, j in np.argwhere(nz.T)]
    succ = [np.flatnonzero(nz[:, i]).tolist() for i in range(n)]
    pred = [np.flatnonzero(nz[i, :]).tolist() for i in range(n)]
    root = next((v for v in range(n) if _reach(succ, v) == n), None)
    irreducible = _reach(succ, 0) == n and _reach(pred, 0) == n
    return {"edges": edges, "root": root, "irreducible": irreducible}


def scrambling(a: np.ndarray) -> bool:
    p = (np.abs(a) > ZERO_TOL).astype(float)
    shared = (p @ p.T) > 0
    np.fill_diagonal(shared, True)
    return bool(shared.all())


# ------------------------------------------------------------ analyze


def analyze_expected(a: np.ndarray) -> dict:
    sums = a.sum(axis=1)
    r = float(sums.mean())
    g = graph_facts(a)
    cinf, cl2 = c_linf(a), c_l2(a)
    return {
        "n": a.shape[0], "row_sums": sums, "r": r,
        "constant_row_sum": bool(np.abs(sums - r).max() <= ROW_SUM_TOL),
        "stochastic": bool(np.all(a >= -ROW_SUM_TOL)
                           and np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL)),
        "scrambling": scrambling(a), "mu": pair_min_sum(a), "delta": pair_pos_diff(a),
        "edges": g["edges"], "root": g["root"], "irreducible": g["irreducible"],
        "c_linf": cinf, "c_l2": cl2,
        "classification": {"linf": classify(cinf), "l2": classify(cl2)},
    }


def check_analyze(doc: dict, exp: dict) -> list[str]:
    errors = []
    for key in ("n", "constant_row_sum", "stochastic", "scrambling",
                "irreducible", "classification"):
        if doc.get(key) != exp[key]:
            errors.append(f"{key}: got {doc.get(key)!r}, expected {exp[key]!r}")
    if doc.get("spanning_tree") != (exp["root"] is not None):
        errors.append(f"spanning_tree: got {doc.get('spanning_tree')!r}")
    if doc.get("spanning_tree_root") != exp["root"]:
        errors.append(f"spanning_tree_root: got {doc.get('spanning_tree_root')!r}, "
                      f"expected {exp['root']!r}")
    digraph = doc.get("digraph")
    if not isinstance(digraph, dict) or digraph.get("edges") != exp["edges"]:
        errors.append("digraph edges differ")
    for key in ("r", "mu", "delta", "c_linf", "c_l2"):
        _compare(errors, key, doc.get(key), exp[key])
    _compare_series(errors, "row_sums", doc.get("row_sums"), exp["row_sums"])
    return errors


# ------------------------------------------------------------ simulate


def simulate_expected(A: np.ndarray, a_map: float, x0: np.ndarray, steps: int) -> dict:
    """Iterate x <- A (a x (1 - x)) and the envelope d0 * prod(c * rho)
    with the oracle's own max-norm coefficient."""
    c = c_linf(A)
    x = np.asarray(x0, dtype=float)
    d = np.empty(steps + 1)
    bound = np.empty(steps + 1)
    d[0] = bound[0] = 0.5 * (x.max() - x.min())
    for k in range(steps):
        x = A @ (a_map * x * (1.0 - x))
        d[k + 1] = 0.5 * (x.max() - x.min())
        bound[k + 1] = bound[k] * c * a_map
    below = np.flatnonzero(d < SYNC_TOL)
    return {"c": c, "rho": a_map, "d": d, "bound": bound,
            "synchronized_at": int(below[0]) if below.size else None}


def check_simulate(summary: dict, records: list[dict], csv_rows: list[list[str]],
                   exp: dict) -> list[str]:
    errors = []
    steps = exp["d"].size - 1
    want = {"steps": steps, "envelope_valid": True, "envelope_valid_until": None,
            "domain_exits": [], "diverged": False}
    for key, value in want.items():
        if summary.get(key) != value:
            errors.append(f"summary.{key}: got {summary.get(key)!r}, expected {value!r}")
    if [r.get("k") if isinstance(r, dict) else None for r in records] \
            != list(range(steps + 1)):
        errors.append(f"trace: expected records k = 0..{steps}")
        return errors
    d = [r.get("d") for r in records]
    _compare_series(errors, "trace.d", d, exp["d"], rel=1e-6, abs_=SIM_ABS)
    _compare_series(errors, "trace.bound", [r.get("bound") for r in records],
                    exp["bound"], abs_=1e-300)
    _compare(errors, "summary.final_distance", summary.get("final_distance"),
             exp["d"][-1], rel=1e-6, abs_=SIM_ABS)
    if errors:
        return errors
    # The envelope is a real bound; allow only output rounding once it
    # has decayed below the floor of representable spreads.
    over = np.asarray(d, float) - exp["bound"] > 1e-12
    if over.any():
        errors.append(f"envelope violated at k = {int(np.argmax(over))}")
    sync = summary.get("synchronized_at")
    if exp["synchronized_at"] is None:
        if sync is not None:
            errors.append(f"summary.synchronized_at: got {sync!r}, expected None")
    elif (not isinstance(sync, int) or not 0 <= sync <= steps
          or abs(sync - exp["synchronized_at"]) > 2
          or not d[sync] < SYNC_TOL or (sync > 0 and d[sync - 1] < SYNC_TOL)):
        errors.append(f"summary.synchronized_at: got {sync!r}, "
                      f"expected {exp['synchronized_at']!r}")
    body = csv_rows[1:]
    if not csv_rows or csv_rows[0] != ["k", "d", "bound"] or len(body) != steps + 1 \
            or any(len(r) != 3 for r in body):
        errors.append("csv: expected header k,d,bound and one row per step")
    elif [r[0] for r in body] != [str(k) for k in range(steps + 1)]:
        errors.append("csv: bad k column")
    else:
        _compare_series(errors, "csv.d", [r[1] for r in body], d)
        _compare_series(errors, "csv.bound", [r[2] for r in body], exp["bound"],
                        abs_=1e-300)
    return errors


# ------------------------------------------------------------ ergodicity


def ergodicity_expected(items: list[np.ndarray], horizon: int, block_len: int) -> dict:
    """delta of growing products from each anchor, block sums of the
    max-norm ergodicity coefficient min(1, max(0, 1 - (r - mu))) and the
    verdict, rebuilt from the generated factors."""
    n = items[0].shape[0]
    anchors = sorted({0, horizon // 3, (2 * horizon) // 3} - {horizon})
    series = {}
    for start in anchors:
        acc = np.eye(n)
        out = []
        for k in range(start, horizon):
            acc = items[k] @ acc
            out.append(pair_pos_diff(acc))
        series[start] = np.asarray(out)
    sums, total = [], 0.0
    for start in range(0, horizon, block_len):
        acc = np.eye(n)
        for k in range(start, min(start + block_len, horizon)):
            acc = items[k] @ acc
        total += min(1.0, max(0.0, 1.0 - c_linf(acc)))
        sums.append(total)
    nonincreasing = all(not np.any(np.diff(s) > NONINCREASE_TOL) for s in series.values())
    if not nonincreasing:
        verdict = "violated_nonincrease"
    elif all(s[-1] <= DELTA_ZERO for s in series.values()):
        verdict = "consistent_with_weak_ergodicity"
    else:
        verdict = "inconclusive"
    return {"anchors": anchors, "delta": series[0], "block_sums": np.asarray(sums),
            "block_len": block_len, "horizon": horizon, "verdict": verdict,
            "nonincreasing": nonincreasing}


def check_ergodicity(doc: dict, exp: dict) -> list[str]:
    errors = []
    for key, want in (("horizon", exp["horizon"]), ("block_len", exp["block_len"]),
                      ("anchors", exp["anchors"]), ("verdict", exp["verdict"]),
                      ("norm", "linf")):
        if doc.get(key) != want:
            errors.append(f"{key}: got {doc.get(key)!r}, expected {want!r}")
    got = doc.get("delta_of_partial_products")
    before = len(errors)
    _compare_series(errors, "delta_of_partial_products", got, exp["delta"])
    if len(errors) == before and exp["nonincreasing"] \
            and np.any(np.diff(np.asarray(got, float)) > NONINCREASE_TOL):
        errors.append("delta_of_partial_products increases")
    _compare_series(errors, "block_mu_c_partial_sums", doc.get("block_mu_c_partial_sums"),
                    exp["block_sums"])
    return errors
