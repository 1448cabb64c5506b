import warnings

import numpy as np
import pytest

from contractlab import (
    MatrixSequence,
    check_sync_condition,
    check_sync_corollary,
    make_map,
    simulate,
)
from contractlab import cml, contractivity
from contractlab.cml import MapDef
from contractlab.contractivity import RowSumError
from contractlab.projections import distance_to_diagonal
from contractlab import l1, l2, linf, weighted_l2
from contractlab.reference import A4


def seq_of(*ms):
    return MatrixSequence(items=list(ms))


def test_make_map_logistic():
    mp = make_map({"kind": "logistic", "a": 4.0})
    assert mp.rho == 4.0 and mp.domain == (0.0, 1.0)
    assert mp.f(0.5) == 1.0 and mp.f(0.0) == 0.0
    assert not mp.rho_is_estimate


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
    assert mp.rho == 2.0 and mp.rho_is_estimate
    assert mp.f(0.25) == 0.5
    assert mp.domain == (0.0, 1.0)


def test_make_map_validation():
    with pytest.raises(ValueError):
        make_map({"kind": "logistic", "a": -1.0})
    with pytest.raises(ValueError):
        make_map({"kind": "custom_table", "xs": [0.0, 0.0], "ys": [1.0, 2.0]})
    with pytest.raises(ValueError):
        make_map({"kind": "nope"})
    # not a dict, or missing a parameter of its kind: ValueError, not KeyError
    for spec in ("logistic", {"kind": "logistic"}, {"kind": "affine", "a": 1.0},
                 {"kind": "custom_table", "xs": [0.0, 1.0]}):
        with pytest.raises(ValueError):
            make_map(spec)


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
    mp = make_map({"kind": "tent", "s": 1.0})
    tr = simulate(seq_of(*[A4.a] * 5), mp, [0.1, 0.2, 0.3], steps=5, norm=l1())
    assert tr.bound is None
    assert tr.distances.shape == (6,)


def test_simulate_steps_below_one_raises():
    mp = make_map({"kind": "tent", "s": 1.0})
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps"):
            simulate(seq_of(A4.a, A4.a), mp, [0.1, 0.5, 0.9], steps=steps)


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


def test_check_sync_condition():
    out = check_sync_condition([0.9] * 600, [1.05] * 600)
    assert out["criterion_holds_over_horizon"]
    assert out["running_product"][-1] == pytest.approx((0.9 * 1.05) ** 600, rel=1e-9)
    out = check_sync_condition([0.9] * 10, [1.2] * 10)
    assert not out["criterion_holds_over_horizon"]
    with pytest.raises(ValueError):
        check_sync_condition([0.9], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_sync_condition([0.9] * 5, [1.0] * 5, horizon=10)
    # c * rho is -0.0 here, which a sign check on the product lets through
    with pytest.raises(ValueError):
        check_sync_condition([0.5, -0.1], [1.0, 0.0])


def test_check_sync_condition_horizon_truncates():
    # the factor past the horizon would lift the product back to 1
    out = check_sync_condition([1e-13, 1e13], [1.0, 1.0], horizon=1)
    assert out["running_product"].tolist() == [1e-13]
    assert out["criterion_holds_over_horizon"]
    assert not check_sync_condition([1e-13, 1e13], [1.0, 1.0])["criterion_holds_over_horizon"]


def test_check_sync_corollary():
    # r - mu - 1/rho = 1 - 0.1 - 1/rho < 0 iff rho < 1/0.9
    assert check_sync_corollary(seq_of(A4.a), [1.1])
    assert not check_sync_corollary(seq_of(A4.a), [1.2])
    assert check_sync_corollary(seq_of(np.full((3, 3), 1.0 / 3.0)), [3.9])
    with pytest.raises(ValueError):
        check_sync_corollary(seq_of(A4.a), [0.0])
    with pytest.raises(ValueError):
        check_sync_corollary(seq_of(A4.a, A4.a), [1.0])
    with pytest.raises(RowSumError):
        check_sync_corollary(seq_of(A4.a, [[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]]),
                             [1.0, 1.0])


def test_corollary_implies_envelope_decay():
    rng = np.random.default_rng(40)
    mp = make_map({"kind": "tent", "s": 1.05})
    for seed in range(10):
        seq = MatrixSequence(generator={
            "kind": "random_stochastic_spanning_tree", "n": 3,
            "seed": seed, "min_entry": 0.2})
        items = [seq[k] for k in range(40)]
        fin = MatrixSequence(items=[m.a for m in items])
        if check_sync_corollary(fin, [1.05] * 40):
            x0 = rng.uniform(0.2, 0.8, 3)
            tr = simulate(fin, mp, x0, steps=40)
            assert np.all(tr.distances <= tr.bound + 1e-10)
            assert tr.bound[-1] < tr.bound[0] + 1e-12


def counting_coefficient(monkeypatch):
    """Wrap the coefficient routine cml calls; return the list of its
    arguments, one entry per call."""
    calls = []
    original = cml.contractivity

    def counting(A, norm, *args, **kwargs):
        calls.append(A)
        return original(A, norm, *args, **kwargs)

    monkeypatch.setattr(cml, "contractivity", counting)
    return calls


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
                c = cml._coefficient_or_none(A, norm)
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
    cases["coefficient-lost-mid-run"] = (
        seq_of(A4.a, A4.a, [[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.0, 0.0, 1.0]], A4.a),
        tent, [0.1, 0.9, 0.4], 4, linf())
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
