import warnings

import numpy as np
import pytest

from contractlab import cml
from contractlab.cml import MapDef, make_map, simulate
from contractlab.contractivity import RowSumError, coefficients, contractivity
from contractlab.matcore import DEFAULT_SYNC_TOL, Matrix
from contractlab.products import PRODUCT_ZERO_THRESHOLD, MatrixSequence
from contractlab.projections import (
    distance_to_diagonal,
    l1,
    l2,
    linf,
    project_columns,
    weighted_l2,
)
from contractlab.reference import A4

from conftest import RANK_ONE_V, counting_coefficient, random_stochastic


def seq_of(*ms):
    return MatrixSequence(items=list(ms))


def test_make_map_logistic():
    mp = make_map({"kind": "logistic", "a": 4.0})
    assert mp.rho == 4.0 and mp.domain == (0.0, 1.0)
    assert mp.f(0.5) == 1.0 and mp.f(0.0) == 0.0


def test_make_map_tent():
    mp = make_map({"kind": "tent", "s": 1.5})
    assert mp.rho == 1.5
    assert mp.f(0.5) == 0.75
    assert mp.f(np.array([0.25, 0.75])) == pytest.approx([0.375, 0.375])


def test_make_map_affine():
    mp = make_map({"kind": "affine", "a": -2.0, "b": 1.0})
    assert mp.rho == 2.0 and mp.domain is None
    assert mp.f(3.0) == -5.0


def test_make_map_custom_table():
    mp = make_map({"kind": "custom_table", "xs": [0.0, 0.5, 1.0],
                   "ys": [0.0, 1.0, 0.0]})
    assert mp.rho == 2.0
    assert mp.f(0.25) == 0.5
    assert mp.domain == (0.0, 1.0)


def test_make_map_validation():
    with pytest.raises(ValueError):
        make_map({"kind": "logistic", "a": -1.0})
    with pytest.raises(ValueError):
        make_map({"kind": "custom_table", "xs": [0.0, 0.0], "ys": [1.0, 2.0]})
    with pytest.raises(ValueError):
        make_map({"kind": "nope"})
    # a parameter its kind does not take is named, not dropped
    with pytest.raises(ValueError, match="unknown logistic map parameter 's'"):
        make_map({"kind": "logistic", "a": 3.9, "s": 2})
    with pytest.raises(ValueError, match="unknown tent map parameters 'a', 'b'"):
        make_map({"kind": "tent", "s": 1.0, "a": 1, "b": 2})
    # not a dict, or missing a parameter of its kind: ValueError, not KeyError
    for spec in ("logistic", {"kind": "logistic"}, {"kind": "affine", "a": 1.0},
                 {"kind": "custom_table", "xs": [0.0, 1.0]}):
        with pytest.raises(ValueError):
            make_map(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "logistic", "a": "3.9"},
    {"kind": "tent", "s": True},
    {"kind": "affine", "a": 1.0, "b": None},
    {"kind": "affine", "a": np.bool_(True), "b": 0.0},
    {"kind": "custom_table", "xs": [0.0, 1.0], "ys": [True, "1"]},
    {"kind": "custom_table", "xs": "01", "ys": [0.0, 1.0]},
    {"kind": "custom_table", "xs": np.array([False, True]), "ys": [0.0, 1.0]},
    {"kind": "custom_table", "xs": [0.0, float("nan"), 1.0], "ys": [0.0, 1.0, 0.0]},
], ids=repr)
def test_make_map_parameters_are_numbers(spec):
    # float() would take "3.9" and True: neither is a parameter
    with pytest.raises(ValueError):
        make_map(spec)


def test_make_map_takes_numpy_numbers():
    mp = make_map({"kind": "logistic", "a": np.float64(3.5)})
    assert mp.rho == 3.5 and type(mp.rho) is float
    mp = make_map({"kind": "custom_table", "xs": np.array([0, 1]), "ys": (np.int64(0), 2.0)})
    assert mp.rho == 2.0 and mp.f(0.5) == 1.0


def test_simulate_steps_past_sequence_end_raises():
    mp = make_map({"kind": "tent", "s": 1.0})
    with pytest.raises(ValueError, match="steps exceed sequence length"):
        simulate(seq_of(A4.a, A4.a), mp, [0.1, 0.5, 0.9], steps=5)
    assert len(simulate(seq_of(A4.a, A4.a), mp, [0.1, 0.5, 0.9], steps=2).distances) == 3


def test_simulate_averaging_syncs_in_one_step():
    J3 = np.full((3, 3), 1.0 / 3.0)
    mp = make_map({"kind": "logistic", "a": 3.7})
    tr = simulate(seq_of(*[J3] * 5), mp, [0.1, 0.5, 0.9], steps=5)
    assert tr.synchronized_at == 1
    assert tr.distances[1] == pytest.approx(0.0, abs=1e-12)
    assert not tr.diverged and not tr.domain_exits


def test_simulate_diagonal_start_stays_synchronized():
    mp = make_map({"kind": "logistic", "a": 3.9})
    tr = simulate(seq_of(*[A4.a] * 10), mp, [0.3, 0.3, 0.3], steps=10)
    assert tr.synchronized_at == 0
    assert np.all(tr.distances < 1e-10)


def test_simulate_identity_coupling_no_sync():
    mp = make_map({"kind": "tent", "s": 1.2})
    tr = simulate(seq_of(*[np.eye(2)] * 30), mp, [0.21, 0.43], steps=30)
    assert tr.synchronized_at is None
    assert tr.summary()["final_distance"] > 1e-6


def test_simulate_envelope_bounds_distance():
    # c(A4) * rho = 0.9 * 1.05 < 1: distances must stay under the envelope
    mp = make_map({"kind": "tent", "s": 1.05})
    x0 = [0.2, 0.45, 0.3]
    tr = simulate(seq_of(*[A4.a] * 120), mp, x0, steps=120)
    assert tr.bound is not None and tr.envelope_valid_until is None
    assert np.all(tr.distances <= tr.bound + 1e-10)
    assert tr.synchronized_at is not None
    assert tr.bound[1] == pytest.approx(tr.bound[0] * 0.9 * 1.05, abs=1e-12)


def test_simulate_domain_exit_voids_envelope():
    # affine coupling pushes states outside [0,1]; the Lipschitz envelope
    # is only claimed while states stay in the declared domain
    B = np.array([[1.5, -0.5], [-0.5, 1.5]])
    mp = make_map({"kind": "logistic", "a": 4.0})
    tr = simulate(seq_of(*[B] * 3), mp, [0.1, 0.4], steps=3)
    assert tr.domain_exits and tr.domain_exits[0] == 1
    assert tr.envelope_valid_until == tr.domain_exits[0]
    assert not tr.summary()["envelope_valid"]


def test_simulate_divergence_truncates():
    # divergence is reported, not warned about: no np.errstate here
    mp = make_map({"kind": "affine", "a": 1e200, "b": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate(seq_of(*[np.eye(2) * 1e200] * 5), mp, [1.0, 2.0], steps=5)
    assert tr.diverged
    assert len(tr.states) < 6
    # under l2 the finite state x(1) ~ 1e199 has a distance past the float range
    mp = make_map({"kind": "affine", "a": 1e200, "b": 1.0})
    for norm in (linf(), l2()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = simulate(seq_of(*[A4.a] * 10), mp, [0.1, 0.5, 0.9], steps=10, norm=norm)
        assert tr.diverged
        assert len(tr.states) == 2


def test_simulate_maps_cycle():
    sync = make_map({"kind": "affine", "a": 0.0, "b": 0.25})
    ident = make_map({"kind": "affine", "a": 1.0, "b": 0.0})
    tr = simulate(seq_of(*[np.eye(2)] * 4), [ident, sync], [0.1, 0.9], steps=4)
    # the constant map acts at steps k = 1 and 3
    assert tr.distances[1] > 0.1
    assert tr.distances[2] == pytest.approx(0.0, abs=1e-12)


def test_simulate_l1_has_no_envelope():
    # under l1 as under every norm: a later coupling without constant row
    # sums has no coefficient, so the run has no envelope
    mp = make_map({"kind": "tent", "s": 1.0})
    nonconstant = [[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]]
    tr = simulate(seq_of(*[A4.a] * 4, nonconstant), mp, [0.1, 0.2, 0.3], steps=5, norm=l1())
    assert tr.bound is None
    assert tr.distances.shape == (6,)


def test_simulate_l1_envelope_bounds_a_synchronizing_lattice():
    # the recipe of the benchmark's simulate_fixed coupling at seed 3:
    # 0.8 J/n + 0.2 S, S row-stochastic with about half its entries zero
    n, rng = 50, np.random.default_rng(3)
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, True)
    S = (0.05 + rng.random((n, n))) * mask
    A = 0.8 / n + 0.2 * S / S.sum(axis=1, keepdims=True)
    mp = make_map({"kind": "logistic", "a": 3.9})
    c = contractivity(A, l1()).c
    assert c * mp.rho == pytest.approx(0.995, abs=5e-4)
    tr = simulate(seq_of(*[A] * 400), mp, rng.random(n), steps=400, norm=l1())
    assert tr.bound is not None and tr.summary()["envelope_valid"]
    assert tr.synchronized_at is not None
    # d stops at the rounding floor of a synchronized state, n entries near
    # 1 apart by a few ulps each, while the bound still falls
    floor = n * np.finfo(float).eps
    assert np.all(tr.distances <= tr.bound * (1 + 1e-12) + floor)
    assert tr.bound[1:].tolist() == pytest.approx(
        (tr.distances[0] * (c * mp.rho) ** np.arange(1, 401)).tolist(), rel=1e-10)


def test_simulate_steps_below_one_raises():
    mp = make_map({"kind": "tent", "s": 1.0})
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps"):
            simulate(seq_of(A4.a, A4.a), mp, [0.1, 0.5, 0.9], steps=steps)


@pytest.mark.parametrize("sync_tol", [-1.0, np.nan])
def test_simulate_sync_tol_must_be_nonnegative(sync_tol):
    mp = make_map({"kind": "tent", "s": 1.0})
    with pytest.raises(ValueError, match="sync_tol"):
        simulate(seq_of(A4.a), mp, [0.1, 0.5, 0.9], steps=1, sync_tol=sync_tol)


def test_simulate_validation():
    mp = make_map({"kind": "tent", "s": 1.0})
    with pytest.raises(ValueError):
        simulate(seq_of(np.eye(2)), mp, [0.1, 0.2, 0.3], steps=1)
    with pytest.raises(RowSumError):
        simulate(seq_of(np.array([[1.0, 0.0], [0.5, 0.6]])), mp,
                 [0.1, 0.2], steps=1)
    with pytest.raises(ValueError):
        simulate(seq_of(np.eye(2)), [], [0.1, 0.2], steps=1)
    with pytest.raises(ValueError, match="finite"):
        simulate(seq_of(np.eye(2)), mp, [0.1, np.nan], steps=1)


def test_simulate_wrong_weight_count_fails_before_any_fetch(monkeypatch):
    fetched = []
    getitem = MatrixSequence.__getitem__
    monkeypatch.setattr(MatrixSequence, "__getitem__",
                        lambda self, k: fetched.append(k) or getitem(self, k))
    mp = make_map({"kind": "tent", "s": 1.0})
    with pytest.raises(ValueError, match="^weight vector length 2 != vector length 3$"):
        simulate(seq_of(*[A4.a] * 200), mp, [0.1, 0.5, 0.9], steps=200,
                 norm=weighted_l2([1.0, 2.0]))
    assert fetched == []


def test_simulate_row_sum_tol_reaches_every_coupling_check():
    off = A4.a.copy()
    off[0, 0] += 1e-7
    mp = make_map({"kind": "tent", "s": 1.0})
    with pytest.raises(RowSumError):
        simulate(seq_of(off, off), mp, [0.1, 0.5, 0.9], steps=2)
    trace = simulate(seq_of(off, A4.a), mp, [0.1, 0.5, 0.9], steps=2, row_sum_tol=1e-6)
    assert trace.bound is not None
    # the first coupling passes; the second has no constant row sums at 1e-9
    assert simulate(seq_of(A4.a, off), mp, [0.1, 0.5, 0.9], steps=2).bound is None


def sync_corollary_holds(couplings, rho_values):
    """The corollary's max-norm condition over a finite family of
    couplings: max_k c(A_k) - 1/rho_k < 0, c = r - mu."""
    c_values = coefficients(couplings, linf())
    return max(c - 1.0 / rho for c, rho in zip(c_values, rho_values)) < 0


def test_check_sync_condition():
    # the product criterion: simulate's envelope is d0 times the running
    # product of c(A_k) rho_k, which reaches zero for c rho = 0.9 * 1.05
    c = contractivity(A4, linf()).c
    mp = make_map({"kind": "affine", "a": 1.05, "b": 0.0})
    tr = simulate(MatrixSequence(items=[A4] * 600), mp, [0.1, 0.9, 0.4], steps=600)
    running = np.cumprod([c * mp.rho] * 600)
    assert running[-1] < PRODUCT_ZERO_THRESHOLD
    assert running[-1] == pytest.approx((0.9 * 1.05) ** 600, rel=1e-9)
    np.testing.assert_allclose(tr.bound[1:] / tr.bound[0], running, rtol=1e-9)
    assert not np.cumprod([c * 1.2] * 10)[-1] < PRODUCT_ZERO_THRESHOLD


def test_check_sync_condition_horizon_truncates():
    # the verdict is over the steps given: a shorter horizon is a slice,
    # and the factor past it would lift the product back to 1
    c_rho = np.multiply([1e-13, 1e13], [1.0, 1.0])
    running = np.cumprod(c_rho[:1])
    assert running.tolist() == [1e-13]
    assert running[-1] < PRODUCT_ZERO_THRESHOLD
    assert not np.cumprod(c_rho)[-1] < PRODUCT_ZERO_THRESHOLD


def test_check_sync_corollary():
    # r - mu - 1/rho = 1 - 0.1 - 1/rho < 0 iff rho < 1/0.9
    assert sync_corollary_holds([A4], [1.1])
    assert not sync_corollary_holds([A4], [1.2])
    assert sync_corollary_holds([Matrix(np.full((3, 3), 1.0 / 3.0))], [3.9])
    with pytest.raises(RowSumError):
        sync_corollary_holds([A4, Matrix([[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]])],
                             [1.0, 1.0])


def test_corollary_implies_envelope_decay():
    # the corollary holds exactly when simulate's envelope shrinks at every
    # step; sparser families break it with a non-scrambling item (c = 1)
    rng = np.random.default_rng(40)
    mp = make_map({"kind": "tent", "s": 1.05})
    verdicts = []
    for _ in range(10):
        density = float(rng.uniform(0.7, 1.0))
        items = [random_stochastic(3, rng, density=density) for _ in range(40)]
        holds = sync_corollary_holds(items, [mp.rho] * 40)
        tr = simulate(MatrixSequence(items=items), mp, rng.uniform(0.2, 0.8, 3), steps=40)
        assert holds == bool(np.all(tr.bound[1:] < tr.bound[:-1]))
        if holds:
            assert np.all(tr.distances <= tr.bound + 1e-10)
            assert tr.bound[-1] < tr.bound[0] + 1e-12
        verdicts.append(holds)
    assert any(verdicts) and not all(verdicts)


def test_check_sync_corollary_computes_each_coefficient_once(monkeypatch):
    calls = counting_coefficient(monkeypatch)
    B = Matrix(np.full((3, 3), 1.0 / 3.0))
    assert sync_corollary_holds([A4, B] * 5, [1.1] * 10)
    assert len(calls) == 2 and calls[0] is A4 and calls[1] is B


def test_simulate_repeated_matrix_computes_coefficient_once(monkeypatch):
    calls = counting_coefficient(monkeypatch)
    mp = make_map({"kind": "affine", "a": 1.05, "b": 0.0})
    tr = simulate(MatrixSequence(items=[A4] * 50), mp, [0.1, 0.9, 0.4], steps=50)
    assert len(calls) == 1
    c = contractivity(A4, linf()).c
    expected = [tr.distances[0]]
    for _ in range(50):
        expected.append(expected[-1] * c * mp.rho)
    assert tr.bound.tolist() == expected


def test_simulate_alternating_matrices_recompute_each_step(monkeypatch):
    calls = counting_coefficient(monkeypatch)
    B = np.full((3, 3), 0.05) + 0.85 * np.eye(3)
    cs = [contractivity(M, linf()).c for M in (A4.a, B)]
    assert cs[0] != cs[1]
    seq = MatrixSequence(items=[A4.a, B] * 10)
    mp = make_map({"kind": "affine", "a": 1.05, "b": 0.0})
    tr = simulate(seq, mp, [0.1, 0.9, 0.4], steps=20)
    assert len(calls) == 20
    assert all(M is seq[k] for k, M in enumerate(calls))
    for k in range(20):
        assert tr.bound[k + 1] == tr.bound[k] * cs[k % 2] * mp.rho


def test_simulate_repeated_pair_computes_each_coefficient_once(monkeypatch):
    B = Matrix(np.full((3, 3), 0.05) + 0.85 * np.eye(3))
    cs = [contractivity(M, linf()).c for M in (A4, B)]
    calls = counting_coefficient(monkeypatch)
    mp = make_map({"kind": "affine", "a": 1.05, "b": 0.0})
    tr = simulate(MatrixSequence(items=[A4, B] * 10), mp, [0.1, 0.9, 0.4], steps=20)
    assert len(calls) == 2 and calls[0] is A4 and calls[1] is B
    expected = [tr.distances[0]]
    for k in range(20):
        expected.append(expected[-1] * cs[k % 2] * mp.rho)
    assert tr.bound.tolist() == expected


def per_step_simulate(A_seq, maps, x0, steps, norm, sync_tol=cml.DEFAULT_SYNC_TOL,
                      domain_tol=1e-12):
    """Frozen per-step oracle: simulate as one loop that projects, tests
    the domain and tests for synchronization at every step."""
    maps = [maps] if isinstance(maps, MapDef) else list(maps)
    x = np.asarray(x0, dtype=float).copy()
    d0 = distance_to_diagonal(x, norm)
    states, distances, bound = [x.copy()], [d0], [d0]
    bound_available = True
    envelope_valid_until = None
    domain_exits = []
    synchronized_at = 0 if d0 < sync_tol else None
    diverged = False
    A_prev = c = None
    for k in range(steps):
        mp = maps[k % len(maps)]
        if mp.domain is not None:
            lo, hi = mp.domain
            if np.any(x < lo - domain_tol) or np.any(x > hi + domain_tol):
                domain_exits.append(k)
                if envelope_valid_until is None:
                    envelope_valid_until = k
        A = A_seq[k]
        x = A.a @ mp.f(x)
        if not np.all(np.isfinite(x)):
            diverged = True
            break
        states.append(x.copy())
        d = distance_to_diagonal(x, norm)
        distances.append(d)
        if bound_available:
            if A is not A_prev:
                try:
                    c = contractivity(A, norm).c
                except RowSumError:
                    c = None
                A_prev = A
            if c is None:
                bound_available = False
            else:
                bound.append(bound[-1] * c * mp.rho)
        if synchronized_at is None and d < sync_tol:
            synchronized_at = k + 1
    return (states, distances, bound if bound_available else None,
            synchronized_at, envelope_valid_until, domain_exits, diverged)


def _oracle_cases():
    rng = np.random.default_rng(41)
    n = 12  # past numpy's 8-element pairwise block
    S = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    S /= S.sum(axis=1, keepdims=True)
    A = 0.6 / n + 0.4 * S
    x0 = rng.random(n)
    logistic = make_map({"kind": "logistic", "a": 3.9})
    tent = make_map({"kind": "tent", "s": 1.0})
    table = make_map({"kind": "custom_table", "xs": [-1.0, 0.5, 2.0],
                      "ys": [0.0, 1.5, 0.0]})
    cases = {f"norm-{norm}": (seq_of(*[A] * 80), logistic, x0, 80, norm)
             for norm in (linf(), l2(), l1(), weighted_l2(rng.random(n) + 0.1))}
    # a signed coupling pushes states out of [0, 1]: an exit where the
    # logistic map takes them, none where the table map's [-1, 2] does
    B = np.array([[1.5, -0.3, -0.2], [-0.2, 1.4, -0.2], [-0.3, -0.1, 1.4]])
    for norm in (linf(), l2()):
        cases[f"cycling-domains-{norm}"] = (
            seq_of(*[B] * 30), [logistic, table, make_map({"kind": "affine", "a": 0.5, "b": 0.1})],
            [0.05, 0.5, 0.95], 30, norm)
    blow = make_map({"kind": "affine", "a": 1e100, "b": 0.0})
    square = make_map({"kind": "logistic", "a": 4.0})
    # 4 x (1 - x) overflows at once, from a state outside [0, 1]
    cases["diverge-step-0"] = (seq_of(*[A4.a] * 3), square, [1e300, 2e300, 3e300], 3, linf())
    # blow multiplies by 1e100 at every other step, so x(7) overflows
    cases["diverge-mid-run"] = (seq_of(*[A4.a] * 10), [blow, tent], [1.0, 2.0, 3.0], 10, l2())
    cases["diverge-last-step"] = (seq_of(*[A4.a] * 7), [blow, tent], [1.0, 2.0, 3.0], 7, linf())
    C = np.full((3, 3), 0.05) + 0.85 * np.eye(3)
    for norm in (linf(), weighted_l2([1.0, 0.3, 0.7])):
        cases[f"alternating-{norm}"] = (seq_of(*[A4.a, C] * 15), tent, [0.1, 0.9, 0.4], 30, norm)
    nonconstant = [[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]]
    # the coupling of the step that diverges, and every later one, gets no
    # coefficient: the envelope stays
    cases["diverge-step-0-before-lost-coefficient"] = (
        seq_of(A4.a, nonconstant, A4.a), square, [1e300, 2e300, 3e300], 3, l2())
    cases["diverge-before-lost-coefficient"] = (
        seq_of(*[A4.a] * 6, nonconstant, nonconstant), [blow, tent], [1.0, 2.0, 3.0], 8, linf())
    cases["coefficient-lost-at-step-1"] = (
        seq_of(*[A4.a, nonconstant] * 5), tent, [0.1, 0.9, 0.4], 10, l2())
    cases["coefficient-lost-mid-run"] = (
        seq_of(A4.a, A4.a, nonconstant, A4.a),
        tent, [0.1, 0.9, 0.4], 4, linf())
    # c = 0: the envelope is 0 from step 1
    cases["rank-one"] = (seq_of(*[np.outer(np.ones(5), RANK_ONE_V)] * 3), logistic,
                         [0.1, 0.2, 0.3, 0.4, 0.5], 3, linf())
    cases["generator"] = (MatrixSequence(generator={
        "kind": "random_stochastic_spanning_tree", "n": 10, "seed": 3, "min_entry": 0.05}),
        logistic, rng.random(10), 50, l2())
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_simulate_matches_per_step_oracle(name):
    seq, maps, x0, steps, norm = ORACLE_CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        tr = simulate(seq, maps, x0, steps, norm=norm)
        states, distances, bound, sync, valid_until, exits, diverged = \
            per_step_simulate(seq, maps, x0, steps, norm)
    assert isinstance(tr.states, np.ndarray)
    assert len(tr.states) == len(states)
    assert all(np.array_equal(row, s) for row, s in zip(tr.states, states))
    assert tr.distances.tolist() == distances
    assert (tr.bound is None) == (bound is None)
    if bound is not None:
        assert tr.bound.tolist() == bound
    assert tr.domain_exits == exits
    assert tr.envelope_valid_until == valid_until
    assert tr.synchronized_at == sync
    assert tr.diverged == diverged


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_simulate_bound_is_never_negative(name):
    # a product of d0, of coefficients and of Lipschitz constants, each >= 0
    seq, maps, x0, steps, norm = ORACLE_CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        tr = simulate(seq, maps, x0, steps, norm=norm)
    assert tr.bound is None or not np.any(tr.bound < 0)


def frozen_simulate(A_seq, maps, x0, steps, norm):
    """Frozen copy of simulate as it was with a finiteness test after every
    step, the oracle for the loop that tests once per block.  Returns the
    trace and the couplings whose coefficients make the envelope."""
    maps = [maps] if isinstance(maps, MapDef) else list(maps)
    x = np.asarray(x0, dtype=float)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    couplings = []
    used = steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            mp = maps[k % len(maps)]
            A = A_seq[k]
            x = A.a @ mp.f(x)
            if not np.isfinite(x).all():
                used = k + 1
                break
            states[k + 1] = x
            couplings.append(A)
        states = states[:used]
        distances = project_columns(states.T, norm)[1]
        try:
            c = coefficients(couplings, norm)
        except RowSumError:
            c = None
        rho = np.resize([mp.rho for mp in maps], len(couplings))
        bound = (None if c is None else
                 np.cumprod(np.append(distances[0], np.column_stack((c, rho))))[::2])
    exits = np.zeros(min(used, steps), dtype=bool)
    for i, mp in enumerate(maps):
        if mp.domain is not None:
            rows = states[i:steps:len(maps)]
            exits[i::len(maps)] = ((rows < mp.domain[0] - cml.DOMAIN_TOL)
                                   | (rows > mp.domain[1] + cml.DOMAIN_TOL)).any(axis=1)
    domain_exits = np.flatnonzero(exits).tolist()
    synced = np.flatnonzero(distances < DEFAULT_SYNC_TOL)
    trace = cml.SimTrace(
        states=states, distances=distances, bound=bound,
        synchronized_at=int(synced[0]) if synced.size else None,
        envelope_valid_until=domain_exits[0] if domain_exits else None,
        domain_exits=domain_exits, diverged=used <= steps)
    return trace, couplings


def repeated(a, steps):
    """A factory of sequences that repeat one coupling."""
    return lambda: seq_of(*[a] * steps)


def generated():
    return MatrixSequence(generator={
        "kind": "random_stochastic_spanning_tree", "n": 6, "seed": 4, "min_entry": 0.05})


def _block_cases():
    """name -> (sequence factory, maps, x0, steps, norm, first non-finite
    state or None)."""
    double = make_map({"kind": "affine", "a": 2.0, "b": 0.0})
    cases = {}
    # x(k) = 2^k x0 is finite at index - 1 and overflows at index
    for index in (1, 63, 64, 65, 200):
        cases[f"first-non-finite-{index}"] = (
            repeated(np.eye(2), 200), double, [1.2e308 / 2.0 ** (index - 1), 1.0], 200, linf(), index)
    cases["first-non-finite-194"] = (repeated(np.eye(2), 300), double, [1e250, 1.0], 300, l2(), 194)
    # the table map takes the inf of x(1) back to 1: x(2), x(3), ... are
    # finite.  J/2 has no zero, whose product with inf would be nan
    half = np.full((2, 2), 0.5)
    blow = make_map({"kind": "affine", "a": 1e300, "b": 0.0})
    table = make_map({"kind": "custom_table", "xs": [0.0, 1.0], "ys": [0.0, 1.0]})
    cases["custom-table-back-to-finite"] = (
        repeated(half, 100), [blow, table], [0.5, 1e10], 100, linf(), 1)
    cases["custom-table-mid-block"] = (
        repeated(half, 100), [double] * 69 + [blow, table], [0.5, 2.0], 100, l2(), 70)
    rng = np.random.default_rng(8)
    A = 0.5 / 6 + 0.5 * np.eye(6)
    logistic = make_map({"kind": "logistic", "a": 3.7})
    for steps in (1, 63, 64, 65, 130):
        cases[f"finite-{steps}-steps"] = (
            repeated(A, steps), logistic, rng.random(6), steps, linf(), None)
    cases["generated-finite"] = (generated, logistic, rng.random(6), 150, l2(), None)
    cases["generated-diverging"] = (
        generated, make_map({"kind": "affine", "a": 1e30, "b": 1.0}), rng.random(6), 150,
        linf(), 11)
    return cases


BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_simulate_matches_frozen_per_step_test(name, monkeypatch):
    make_seq, maps, x0, steps, norm, first_bad = BLOCK_CASES[name]
    used = []

    def recording(couplings, *args, **kwargs):
        used.append(list(couplings))
        return coefficients(couplings, *args, **kwargs)

    monkeypatch.setattr(cml, "coefficients", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate(make_seq(), maps, x0, steps, norm=norm)
    expected, couplings = frozen_simulate(make_seq(), maps, x0, steps, norm)
    assert len(tr.states) == (steps + 1 if first_bad is None else first_bad)
    assert tr.states.shape == expected.states.shape
    assert tr.states.tobytes() == expected.states.tobytes()
    assert tr.distances.tobytes() == expected.distances.tobytes()
    assert tr.bound.tobytes() == expected.bound.tobytes()
    assert tr.diverged == expected.diverged == (first_bad is not None)
    assert tr.domain_exits == expected.domain_exits
    assert tr.synchronized_at == expected.synchronized_at
    assert tr.envelope_valid_until == expected.envelope_valid_until
    (kept,) = used
    assert [A.a.tobytes() for A in kept] == [A.a.tobytes() for A in couplings]


def test_simulate_takes_one_coupling_per_step(monkeypatch):
    calls = []
    getitem = MatrixSequence.__getitem__

    def counting(self, k):
        calls.append(k)
        return getitem(self, k)

    monkeypatch.setattr(MatrixSequence, "__getitem__", counting)
    simulate(seq_of(*[A4.a] * 130), make_map({"kind": "tent", "s": 1.0}),
             [0.1, 0.5, 0.9], 130)
    # the row sum test reads the first coupling, then one per step
    assert calls == [0, *range(130)]
