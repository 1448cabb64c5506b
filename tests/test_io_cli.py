import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contractlab
from contractlab import (
    MatrixSequence,
    cli,
    contractivity_l2,
    contractivity_linf,
    l2,
    make_map,
    mu,
    product,
    product_contractivity_bound,
    simulate,
)
from contractlab.io import InputError, load_matrix, load_sequence, load_vector, parse_weights
from contractlab.reference import A1, A4, MATRICES, W4

from conftest import random_doubly_constant


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def a4_json(tmp_path, name="a4.json"):
    return write(tmp_path, name, json.dumps({"rows": A4.a.tolist()}))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- io


def test_load_matrix_json_and_csv(tmp_path):
    pj = a4_json(tmp_path)
    pc = write(tmp_path, "a4.csv",
               "\n".join(",".join(map(str, row)) for row in A4.a))
    assert np.array_equal(load_matrix(pj).a, A4.a)
    assert np.array_equal(load_matrix(pc).a, A4.a)


def test_load_matrix_rejects_bad_input(tmp_path):
    with pytest.raises(InputError):
        load_matrix(write(tmp_path, "ragged.csv", "1,2\n3\n"))
    with pytest.raises(InputError):
        load_matrix(write(tmp_path, "rect.csv", "1,2,3\n4,5,6\n"))
    with pytest.raises(InputError):
        load_matrix(write(tmp_path, "inf.json", '{"rows": [[1, Infinity], [0, 1]]}'))
    with pytest.raises(InputError):
        load_matrix(write(tmp_path, "text.csv", "a,b\nc,d\n"))
    with pytest.raises(InputError):
        load_matrix(write(tmp_path, "bad.json", "{not json"))
    with pytest.raises(InputError):
        load_matrix(tmp_path / "missing.json")


def test_load_vector(tmp_path):
    pj = write(tmp_path, "v.json", "[1.0, 2.0, 3.0]")
    pc = write(tmp_path, "v.csv", "1.0\n2.0\n3.0\n")
    assert np.array_equal(load_vector(pj), [1.0, 2.0, 3.0])
    assert np.array_equal(load_vector(pc), [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        load_vector(write(tmp_path, "wide.csv", "1.0,2.0\n"))
    with pytest.raises(InputError):
        load_vector(write(tmp_path, "obj.json", "{}"))


def test_parse_weights(tmp_path):
    assert np.array_equal(parse_weights("1.0,0.5,0.25"), [1.0, 0.5, 0.25])
    p = write(tmp_path, "w.json", "[2.0, 1.0]")
    assert np.array_equal(parse_weights(p), [2.0, 1.0])
    with pytest.raises(InputError):
        parse_weights("1.0,oops")


def test_load_sequence_matrix_list(tmp_path):
    a4_json(tmp_path)
    spec = write(tmp_path, "seq.json",
                 json.dumps({"matrices": ["a4.json"], "repeat": 3}))
    seq = load_sequence(spec)
    assert len(seq.items) == 3
    assert np.array_equal(seq[2].a, A4.a)


def test_load_sequence_generator(tmp_path):
    spec = write(tmp_path, "gen.json", json.dumps(
        {"generator": {"kind": "random_stochastic_spanning_tree",
                       "n": 3, "seed": 7}}))
    seq = load_sequence(spec)
    assert seq.n == 3
    assert np.array_equal(seq[0].a, load_sequence(spec)[0].a)


def test_load_sequence_errors(tmp_path):
    with pytest.raises(InputError):
        load_sequence(write(tmp_path, "empty.json", json.dumps({"matrices": []})))
    with pytest.raises(InputError):
        load_sequence(write(tmp_path, "norep.json",
                            json.dumps({"matrices": ["x.json"], "repeat": 0})))
    with pytest.raises(InputError):
        load_sequence(write(tmp_path, "badgen.json",
                            json.dumps({"generator": {"kind": "nope"}})))


# ---------------------------------------------------------------- cli


def test_cli_analyze_a4(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "analyze", a4_json(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["stochastic"] and doc["scrambling"]
    assert doc["mu"] == pytest.approx(0.1, abs=1e-12)
    assert doc["spanning_tree"] and doc["spanning_tree_root"] == 0
    assert doc["classification"]["linf"] == "set-contractive"
    assert doc["classification"]["l2"] == "expansive"


def test_cli_analyze_nonconstant_rows(tmp_path, capsys):
    p = write(tmp_path, "nc.json", json.dumps({"rows": [[1.0, 0.0], [0.5, 0.6]]}))
    code, out, _ = run_cli(capsys, "analyze", p)
    assert code == 0
    doc = json.loads(out)
    assert doc["c_linf"] is None and "note" in doc


def test_cli_analyze_multi_to_directory(tmp_path, capsys):
    p1, p2 = a4_json(tmp_path, "m1.json"), a4_json(tmp_path, "m2.json")
    outdir = tmp_path / "reports"
    code, _, _ = run_cli(capsys, "--output", str(outdir),
                         "analyze", p1, p2, "--jobs", "2")
    assert code == 0
    for stem in ("m1", "m2"):
        doc = json.loads((outdir / f"{stem}.analysis.json").read_text())
        assert doc["n"] == 3


@pytest.mark.parametrize("form", ["trailing-separator", "existing-directory"])
def test_cli_analyze_single_input_to_directory(tmp_path, capsys, form):
    p = a4_json(tmp_path, "m1.json")
    outdir = tmp_path / "reports"
    if form == "existing-directory":
        outdir.mkdir()
        target = str(outdir)
    else:
        target = str(outdir) + "/"
    code, out, _ = run_cli(capsys, "--output", target, "analyze", p)
    assert code == 0 and out == ""
    assert outdir.is_dir()
    assert json.loads((outdir / "m1.analysis.json").read_text())["n"] == 3


def test_cli_analyze_single_input_to_file(tmp_path, capsys):
    p = a4_json(tmp_path, "m1.json")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--output", str(target), "analyze", p)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


def test_cli_analyze_output_name_collision_exits_2(tmp_path, capsys, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1, p2 = a4_json(tmp_path / "a", "M.json"), a4_json(tmp_path / "b", "M.json")
    p3 = write(tmp_path / "b", "M.csv", "\n".join(",".join(map(str, r)) for r in A4.a))
    analysed = []
    monkeypatch.setattr(cli, "_analysis_report", lambda *a: analysed.append(a))
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--output", str(outdir), "analyze", p1, p2, p3)
    assert code == 2 and out == "" and "Traceback" not in err
    assert all(p in err for p in (p1, p2, p3)) and "M.analysis.json" in err
    assert analysed == [] and not outdir.exists()


def test_cli_analyze_computes_mu_once(tmp_path, capsys, monkeypatch):
    # contractlab.contractivity is shadowed by the function of that name
    contractivity_module = importlib.import_module("contractlab.contractivity")
    calls = []

    def counting_mu(A):
        calls.append(A)
        return mu(A)

    monkeypatch.setattr(cli, "mu", counting_mu)
    monkeypatch.setattr(contractivity_module, "mu", counting_mu)
    rng = np.random.default_rng(9)
    a = rng.random((12, 12))
    a /= a.sum(axis=1, keepdims=True)
    path = write(tmp_path, "a.json", json.dumps({"rows": a.tolist()}))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0 and json.loads(out)["c_linf"] is not None
    assert len(calls) == 1
    report = cli._analysis_report(path, 1e-12, 1e-9)
    assert report["c_linf"] == contractivity_linf(load_matrix(path)).c


def test_cli_contractivity_norms(tmp_path, capsys):
    p = a4_json(tmp_path)
    code, out, _ = run_cli(capsys, "contractivity", p, "--norm", "linf")
    assert code == 0
    assert json.loads(out)["c"] == pytest.approx(0.9, abs=1e-12)
    code, out, _ = run_cli(capsys, "contractivity", p, "--norm", "wl2",
                           "--weights", "1,0.2265,1")
    doc = json.loads(out)
    assert code == 0 and doc["bound_only"] and doc["c"] < 1.0
    code, out, _ = run_cli(capsys, "contractivity", p, "--norm", "l1",
                           "--samples", "500", "--seed", "3")
    doc = json.loads(out)
    assert code == 0 and "empirical_lower_bound" in doc and doc["samples"] == 500


def test_cli_contractivity_l2_bound_only(tmp_path, capsys):
    # exact only when the column sums are constant too, as for doubly constant matrices
    doubly = random_doubly_constant(4, np.random.default_rng(44)).a.tolist()
    doubly_path = write(tmp_path, "dc.json", json.dumps({"rows": doubly}))
    for path, bound_only in [(a4_json(tmp_path), True), (doubly_path, False)]:
        code, out, _ = run_cli(capsys, "contractivity", path, "--norm", "l2")
        assert code == 0 and json.loads(out)["bound_only"] is bound_only


def test_cli_contractivity_wl2_needs_weights(tmp_path, capsys):
    code, _, err = run_cli(capsys, "contractivity", a4_json(tmp_path), "--norm", "wl2")
    assert code == 2 and "weights" in err


def test_cli_product(tmp_path, capsys):
    a4_json(tmp_path)
    spec = write(tmp_path, "seq.json",
                 json.dumps({"matrices": ["a4.json"], "repeat": 4}))
    code, out, _ = run_cli(capsys, "product", spec)
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 4
    assert doc["c_bound"] == pytest.approx(0.9 ** 4, abs=1e-10)
    assert doc["c_exact"] <= doc["c_bound"] + 1e-10
    assert doc["product_scrambling"]


# 0.0001 entries that --zero-tol 1e-3 makes structural zeros; at that
# tolerance no two rows share a column, so the matrix is not scrambling
NEARLY_IDENTITY = [[0.9999, 0.0001, 0.0], [0.0, 0.9999, 0.0001], [0.0001, 0.0, 0.9999]]


def test_cli_product_keeps_zero_tol(tmp_path, capsys):
    path = write(tmp_path, "near.json", json.dumps({"rows": NEARLY_IDENTITY}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["near.json"]}))
    code, out, _ = run_cli(capsys, "--zero-tol", "1e-3", "analyze", path)
    assert code == 0 and not json.loads(out)["scrambling"]
    code, out, _ = run_cli(capsys, "--zero-tol", "1e-3", "product", spec)
    assert code == 0 and not json.loads(out)["product_scrambling"]
    code, out, _ = run_cli(capsys, "product", spec)
    assert code == 0 and json.loads(out)["product_scrambling"]


def test_cli_ergodicity(tmp_path, capsys):
    a4_json(tmp_path)
    spec = write(tmp_path, "seq.json",
                 json.dumps({"matrices": ["a4.json"], "repeat": 600}))
    code, out, _ = run_cli(capsys, "ergodicity", spec, "--horizon", "600")
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent_with_weak_ergodicity"


def test_cli_simulate(tmp_path, capsys):
    a4_json(tmp_path)
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "a4.json",
        "map": {"kind": "tent", "s": 1.05},
        "x0": [0.2, 0.45, 0.3],
        "steps": 50,
    }))
    trace = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "--output", str(trace), "simulate", config,
                           "--csv", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["steps"] == 50 and not summary["diverged"]
    lines = trace.read_text().splitlines()
    assert len(lines) == 51
    rec0 = json.loads(lines[0])
    assert rec0["k"] == 0 and "bound" in rec0
    assert csv_path.read_text().splitlines()[0] == "k,d,bound"


def test_cli_simulate_trace_records_match_library(tmp_path, capsys):
    a4_json(tmp_path)
    config = {"matrix": "a4.json", "map": {"kind": "tent", "s": 1.05},
              "x0": [0.2, 0.45, 0.3], "steps": 30}
    path = write(tmp_path, "sim.json", json.dumps(config))
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "--output", str(trace), "simulate", path)
    assert code == 0
    expected = simulate(MatrixSequence(items=[A4] * 30), make_map(config["map"]),
                        config["x0"], 30)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == len(expected.states) == 31
    for k, rec in enumerate(records):
        assert set(rec) == {"k", "d", "bound"} and rec["k"] == k
        assert rec["d"] == float(f"{expected.distances[k]:.12g}")
        assert rec["bound"] == float(f"{expected.bound[k]:.12g}")


def test_cli_simulate_trace_path_relative_to_config(tmp_path, capsys, monkeypatch):
    cfg, work = tmp_path / "cfg", tmp_path / "work"
    cfg.mkdir()
    work.mkdir()
    a4_json(cfg)
    config = write(cfg, "sim.json", json.dumps({**SIMULATE_CONFIG, "trace": "t.jsonl"}))
    monkeypatch.chdir(work)
    code, _, _ = run_cli(capsys, "simulate", config)
    assert code == 0
    assert len((cfg / "t.jsonl").read_text().splitlines()) == 6
    assert not (work / "t.jsonl").exists()
    # --output stays relative to the working directory
    code, _, _ = run_cli(capsys, "--output", "o.jsonl", "simulate", config)
    assert code == 0 and (work / "o.jsonl").exists() and not (cfg / "o.jsonl").exists()


def test_cli_simulate_full_state(tmp_path, capsys):
    a4_json(tmp_path)
    config = {"matrix": "a4.json", "map": {"kind": "tent", "s": 1.05},
              "x0": [0.2, 0.45, 0.3], "steps": 20}
    path = write(tmp_path, "sim.json", json.dumps(config))
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "--output", str(trace), "simulate", path, "--full-state")
    assert code == 0
    expected = simulate(MatrixSequence(items=[A4] * 20), make_map(config["map"]),
                        config["x0"], 20)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == len(expected.states) == 21
    for rec in records:
        assert rec["x"] == [float(f"{v:.12g}") for v in expected.states[rec["k"]]]
    run_cli(capsys, "--output", str(trace), "simulate", path)
    assert all("x" not in json.loads(line) for line in trace.read_text().splitlines())


def test_cli_decompose(tmp_path, capsys):
    a4_json(tmp_path)
    v = write(tmp_path, "x.json", "[0.1, 0.7, 0.4]")
    code, out, _ = run_cli(capsys, "decompose", str(tmp_path / "a4.json"), v)
    assert code == 0
    doc = json.loads(out)
    assert doc["B_stochastic"] and doc["residual_linf"] < 1e-10


def test_cli_decompose_keeps_zero_tol(tmp_path, capsys):
    # B mixes columns 0 and 2; rows 0 and 2 put 7.5e-05 on the other one
    path = write(tmp_path, "near.json", json.dumps({"rows": NEARLY_IDENTITY}))
    x = write(tmp_path, "x.json", "[0, 1, 2]")
    code, out, _ = run_cli(capsys, "--zero-tol", "1e-3", "decompose", path, x)
    doc = json.loads(out)
    assert code == 0 and doc["B"][0][2] == pytest.approx(7.5e-05, rel=1e-6)
    assert doc["B_stochastic"] and not doc["B_scrambling"]
    code, out, _ = run_cli(capsys, "decompose", path, x)
    assert code == 0 and json.loads(out)["B_scrambling"]


def test_cli_exit_code_on_malformed_input(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{nope")
    code, _, err = run_cli(capsys, "analyze", bad)
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2


def repeated_sequence(tmp_path, A, name):
    write(tmp_path, f"{name}.json", json.dumps({"rows": A.a.tolist()}))
    return write(tmp_path, f"{name}_seq.json",
                 json.dumps({"matrices": [f"{name}.json"], "repeat": 5}))


def test_cli_ergodicity_l2_outside_hypotheses_exits_2(tmp_path, capsys):
    spec = repeated_sequence(tmp_path, A4, "a4")
    code, _, err = run_cli(capsys, "ergodicity", spec, "--norm", "l2", "--horizon", "5")
    assert code == 2 and "set-nonexpansive" in err
    assert "Traceback" not in err


def test_cli_ergodicity_names_the_failing_block(tmp_path, capsys):
    generator = {"kind": "random_stochastic_spanning_tree", "n": 5, "seed": 7}
    spec = write(tmp_path, "gen.json", json.dumps({"generator": generator}))
    code, out, err = run_cli(capsys, "ergodicity", spec, "--norm", "l2", "--horizon", "200")
    c = contractivity_l2(product(MatrixSequence(generator=generator), 56, 59)).c
    assert code == 2 and out == "" and c > 1.0
    assert err == ("error: block of items 56..59: matrix is not set-nonexpansive "
                   f"under this norm (c = {c:.12g})\n")


def test_cli_ergodicity_not_stochastic_exits_2(tmp_path, capsys):
    spec = repeated_sequence(tmp_path, A1, "a1")
    code, _, err = run_cli(capsys, "ergodicity", spec, "--horizon", "5")
    assert code == 2 and "not stochastic" in err
    assert "Traceback" not in err


def test_cli_ergodicity_horizon_past_sequence_exits_2(tmp_path, capsys):
    spec = repeated_sequence(tmp_path, A4, "a4")
    code, _, err = run_cli(capsys, "ergodicity", spec, "--horizon", "6")
    assert code == 2 and "horizon exceeds sequence length" in err


@pytest.mark.parametrize("min_entry", [0, -0.1, float("inf")])  # inf is written Infinity
def test_cli_ergodicity_generator_min_entry_exits_2(tmp_path, capsys, min_entry):
    spec = write(tmp_path, "gen.json", json.dumps({"generator": {
        "kind": "random_stochastic_spanning_tree", "n": 3, "min_entry": min_entry}}))
    code, out, err = run_cli(capsys, "ergodicity", spec, "--horizon", "2")
    assert code == 2 and out == ""
    assert "min_entry must be in (0, 1]" in err and "Traceback" not in err


def assert_field_error(code, out, err, path, message):
    """Exit 2 with nothing on stdout and one stderr line naming the file
    and the field."""
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and message in err
    assert len(err.splitlines()) == 1


def generator_spec(tmp_path, **fields):
    return write(tmp_path, "gen.json", json.dumps({"generator": {
        "kind": "random_stochastic_spanning_tree", "n": 3, "seed": 1, **fields}}))


def generated_report(tmp_path, capsys, **fields):
    code, out, _ = run_cli(capsys, "ergodicity", generator_spec(tmp_path, **fields),
                           "--horizon", "3")
    assert code == 0
    return out


@pytest.mark.parametrize("n, message", [
    (5.9, "n must be an integer, got 5.9"),
    (True, "n must be an integer, got True"),
    ("3", "n must be an integer, got '3'"),
    (0, "n must be >= 1, got 0"),
])
def test_cli_generator_n_must_be_a_positive_integer(tmp_path, capsys, n, message):
    spec = generator_spec(tmp_path, n=n)
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "3"), spec, message)
    # an integral float is an integer
    exact = generated_report(tmp_path, capsys, n=5)
    assert generated_report(tmp_path, capsys, n=5.0) == exact
    assert json.loads(exact)["block_len"] == 4


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-3, "seed must be >= 0, got -3"),
])
def test_cli_generator_seed_must_be_a_nonnegative_integer(tmp_path, capsys, seed, message):
    spec = generator_spec(tmp_path, seed=seed)
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "3"), spec, message)
    exact = generated_report(tmp_path, capsys, seed=2)
    assert generated_report(tmp_path, capsys, seed=2.0) == exact
    assert generated_report(tmp_path, capsys, seed=1) != exact


@pytest.mark.parametrize("repeat, message", [
    (2.7, "repeat must be an integer, got 2.7"),
    (True, "repeat must be an integer, got True"),
])
def test_cli_repeat_must_be_an_integer(tmp_path, capsys, repeat, message):
    a4_json(tmp_path)
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["a4.json"], "repeat": repeat}))
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "2"), spec, message)
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["a4.json"], "repeat": 3.0}))
    code, out, _ = run_cli(capsys, "ergodicity", spec, "--horizon", "3")
    assert code == 0 and json.loads(out)["horizon"] == 3


@pytest.mark.parametrize("steps, message", [
    (2.9, "steps must be an integer, got 2.9"),
    (True, "steps must be an integer, got True"),
])
def test_cli_simulate_steps_must_be_an_integer(tmp_path, capsys, steps, message):
    path = write_simulate_config(tmp_path, "matrix", steps=steps)
    assert_field_error(*run_cli(capsys, "simulate", path), path, message)
    path = write_simulate_config(tmp_path, "matrix", steps=3.0)
    code, out, _ = run_cli(capsys, "simulate", path)
    assert code == 0 and json.loads(out)["steps"] == 3


def test_cli_product_generator_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "gen.json", json.dumps(
        {"generator": {"kind": "random_stochastic_spanning_tree", "n": 3}}))
    code, _, err = run_cli(capsys, "product", spec)
    assert code == 2 and "finite" in err


def test_cli_ergodicity_rejects_weights(tmp_path):
    spec = repeated_sequence(tmp_path, A4, "a4")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ergodicity", spec, "--weights", "1,2,3"])
    assert exc.value.code == 2


def test_cli_lapack_failure_exits_3(tmp_path, capsys, monkeypatch):
    norm = np.linalg.norm

    def failing_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", failing_norm)
    code, out, err = run_cli(capsys, "analyze", a4_json(tmp_path))
    assert code == 3 and out == ""
    assert "numerical failure" in err and "SVD did not converge" in err


def test_cli_product_matches_library_bound(tmp_path, capsys):
    a4_json(tmp_path)
    write(tmp_path, "mix.json", json.dumps({"rows": (0.5 * A4.a + 0.5 * np.eye(3)).tolist()}))
    spec = write(tmp_path, "seq.json", json.dumps(
        {"matrices": ["a4.json", "mix.json", "a4.json"]}))
    c_exact, c_bound = product_contractivity_bound(load_sequence(spec), l2())
    code, out, _ = run_cli(capsys, "product", spec, "--norm", "l2")
    assert code == 0
    doc = json.loads(out)
    assert doc["c_exact"] == float(f"{c_exact:.12g}")
    assert doc["c_bound"] == float(f"{c_bound:.12g}")
    assert doc["c_bound"] == doc["running_products"][-1]


# The Euclidean coefficients as the CLI printed them (12 significant digits)
# when they were computed from the basis K of e-perp; any other way of
# computing ||W^(1/2) A W^(-1) K||_2 must print the same numbers.
PINNED_ANALYZE_L2 = {
    "M0": (0.6279630302, "set-contractive"),
    "A1": (0.98488578018, "set-contractive"),
    "A2": (1.0, "set-nonexpansive"),
    "A3": (0.939085357096, "set-contractive"),
    "A4": (1.12505003316, "expansive"),
    "A5": (0.939085357096, "set-contractive"),
}
# n -> (l2, wl2) for the seeded signed constant row sum matrices below
PINNED_SEEDED = {1: (0.0, 0.0), 2: (1.48924740714, 2.00974682716),
                 7: (5.33824029275, 15.4578663316)}


def test_cli_l2_coefficients_pinned(tmp_path, capsys):
    for name, (c, verdict) in PINNED_ANALYZE_L2.items():
        path = write(tmp_path, f"{name}.json", json.dumps({"rows": MATRICES[name].a.tolist()}))
        code, out, _ = run_cli(capsys, "analyze", path)
        doc = json.loads(out)
        assert code == 0 and doc["c_l2"] == c and doc["classification"]["l2"] == verdict
    code, out, _ = run_cli(capsys, "contractivity", a4_json(tmp_path), "--norm", "wl2",
                           "--weights", ",".join(map(repr, W4.tolist())))
    assert code == 0 and json.loads(out)["c"] == 0.970755427282
    rng = np.random.default_rng(8)
    for n, (c_l2, c_wl2) in PINNED_SEEDED.items():
        a = rng.standard_normal((n, n))
        a = a - a.mean(axis=1, keepdims=True) + rng.uniform(-1.0, 2.0)
        path = write(tmp_path, f"signed{n}.json", json.dumps({"rows": a.tolist()}))
        weights = write(tmp_path, f"w{n}.json", json.dumps(rng.uniform(0.1, 1.0, n).tolist()))
        code, out, _ = run_cli(capsys, "contractivity", path, "--norm", "l2")
        assert code == 0 and json.loads(out)["c"] == c_l2
        code, out, _ = run_cli(capsys, "contractivity", path, "--norm", "wl2",
                               "--weights", weights)
        assert code == 0 and json.loads(out)["c"] == c_wl2


def test_cli_reproduce_paper(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] and len(doc["checks"]) >= 10


def test_cli_output_deterministic(tmp_path, capsys):
    p = a4_json(tmp_path)
    _, out1, _ = run_cli(capsys, "analyze", p)
    _, out2, _ = run_cli(capsys, "analyze", p)
    assert out1 == out2
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(capsys, "--output", str(f1), "analyze", p)
    run_cli(capsys, "--output", str(f2), "analyze", p)
    assert f1.read_bytes() == f2.read_bytes()


MALFORMED_SPECS = [
    {"matrices": 5},
    {"matrices": [7]},
    {"matrices": ["a4.json"], "repeat": None},
    {"matrices": ["a4.json"], "repeat": [2]},
    {"matrices": ["a4.json"], "repeat": float("inf")},
    {"generator": [1, 2]},
    {"generator": {"kind": "random_stochastic_spanning_tree", "n": [3]}},
]


@pytest.mark.parametrize("command", [
    *[("product", spec) for spec in MALFORMED_SPECS],
    *[("ergodicity", spec) for spec in MALFORMED_SPECS],
    ("analyze", {"rows": [1, 2]}),
], ids=lambda c: f"{c[0]}-{json.dumps(c[1])}")
def test_cli_malformed_spec_exits_2(tmp_path, capsys, command):
    name, doc = command
    a4_json(tmp_path)
    path = write(tmp_path, "input.json", json.dumps(doc))
    extra = ["--horizon", "1"] if name == "ergodicity" else []
    code, out, err = run_cli(capsys, name, path, *extra)
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


def test_cli_simulate_trace_has_no_nonfinite_literals(tmp_path, capsys):
    # identity coupling: c = 1, so the envelope d0 * 3.9^k overflows to inf
    write(tmp_path, "eye.json", json.dumps({"rows": np.eye(2).tolist()}))
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "eye.json",
        "map": {"kind": "logistic", "a": 3.9},
        "x0": [0.1, 0.7],
        "steps": 700,
    }))
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "--output", str(trace), "simulate", config)
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    json.loads(out, parse_constant=reject)
    records = [json.loads(line, parse_constant=reject)
               for line in trace.read_text().splitlines()]
    assert len(records) == 701
    assert any(rec["bound"] is None for rec in records)


SIMULATE_CONFIG = {"matrix": "a4.json", "map": {"kind": "logistic", "a": 3.9},
                   "x0": [0.1, 0.5, 0.9], "steps": 5}


@pytest.mark.parametrize("change", [
    {"map": {"kind": "logistic"}},
    {"map": {"kind": "custom_table", "xs": [0, 1]}},
    {"map": "logistic"},
    {"steps": float("inf")},  # written as Infinity, which parses like 1e999
    {"matrix": None, "sequence": "seq.json"},  # 2 matrices, 5 steps
    {"trace": 99999},  # open() takes an int for a file descriptor
    {"trace": ["trace.jsonl"]},
], ids=lambda c: json.dumps(c))
def test_cli_simulate_malformed_config_exits_2(tmp_path, capsys, change):
    a4_json(tmp_path)
    write(tmp_path, "seq.json", json.dumps({"matrices": ["a4.json", "a4.json"]}))
    config = {k: v for k, v in {**SIMULATE_CONFIG, **change}.items() if v is not None}
    path = write(tmp_path, "sim.json", json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


def write_simulate_config(tmp_path, source, **fields):
    """SIMULATE_CONFIG with fields replaced (None drops one), coupled by
    a4.json ("matrix") or by a generated sequence ("generator")."""
    a4_json(tmp_path)
    config = {k: v for k, v in {**SIMULATE_CONFIG, **fields}.items() if v is not None}
    if source == "generator":
        write(tmp_path, "gen.json", json.dumps({"generator": {
            "kind": "random_stochastic_spanning_tree", "n": 3, "seed": 1}}))
        del config["matrix"]
        config["sequence"] = "gen.json"
    return write(tmp_path, "sim.json", json.dumps(config))


@pytest.mark.parametrize("source", ["matrix", "generator", "option"])
@pytest.mark.parametrize("steps", [0, -3])
def test_cli_simulate_steps_below_one_exits_2(tmp_path, capsys, source, steps):
    if source == "option":
        path = write_simulate_config(tmp_path, "matrix", steps=None)
        argv = ["--steps", str(steps)]
    else:
        path, argv = write_simulate_config(tmp_path, source, steps=steps), []
    code, out, err = run_cli(capsys, "simulate", path, *argv)
    assert code == 2 and out == ""
    assert "steps must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["matrix", "generator"])
def test_cli_simulate_out_of_memory_exits_2(tmp_path, capsys, source):
    # 10**15 steps cannot be allocated: the matrix list or the state array
    # exceeds the address space, so nothing is actually filled
    path = write_simulate_config(tmp_path, source, steps=10 ** 15)
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


def run_cli_process(*argv, python_flags=()):
    """python -m contractlab.cli in a child process, importing this package."""
    paths = [str(Path(contractlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("CONTRACTLAB_LOG", None)
    return subprocess.run([sys.executable, *python_flags, "-m", "contractlab.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_cli_input_error_is_one_stderr_line(tmp_path):
    res = run_cli_process("analyze", str(tmp_path / "missing.json"))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("block_len", ["0", "-1"])
def test_cli_ergodicity_block_len_below_one_exits_2(tmp_path, capsys, block_len):
    spec = repeated_sequence(tmp_path, A4, "a4")
    code, out, err = run_cli(capsys, "ergodicity", spec, "--horizon", "5",
                             "--block-len", block_len)
    assert code == 2 and out == ""
    assert "block_len" in err and "Traceback" not in err


# ---------------------------------------------------------------- simulate trace files

# map specs and starting states that reach the writer's edge cases
DIVERGING = {"matrix": "a4.json", "map": {"kind": "affine", "a": 1e200, "b": 1},
             "x0": [0.1, 0.5, 0.9], "steps": 10}
TRACE_CASES = {
    **{f"tent-{norm}": {"matrix": "a4.json", "map": {"kind": "tent", "s": 1.05},
                        "x0": [0.2, 0.45, 0.3], "steps": 40, "norm": norm,
                        **({"weights": [1.0, 0.3, 0.7]} if norm == "wl2" else {})}
       for norm in ("linf", "l2", "wl2", "l1")},
    # identity coupling: c = 1, so the envelope d0 * 3.9^k overflows to inf
    "bound-overflow": {"matrix": "eye2.json", "map": {"kind": "logistic", "a": 3.9},
                       "x0": [0.1, 0.7], "steps": 700},
    "diverging-linf": DIVERGING,
    # a finite state of ~1e199, whose squared l2 distance is past the float range
    "diverging-l2": {**DIVERGING, "norm": "l2"},
    # -x flips signs every step; 3 and -2 are integers, written as 3.0 and -2.0
    "signs-and-zeros": {"matrix": "eye3.json", "map": {"kind": "affine", "a": -1.0, "b": 0.0},
                        "x0": [-0.0, 3, -2], "steps": 5},
    # in [1e12, 1e16) repr and .12g spell a number differently (no exponent)
    "large-values": {"matrix": "eye3.json", "map": {"kind": "affine", "a": 1.0, "b": 0.0},
                     "x0": [1.5e12, 2.3456789012345e15, -7.77777777777777e13], "steps": 3,
                     "norm": "l1"},
}


def frozen_trace_files(trace, full_state):
    """The JSONL and CSV text of the per-record trace writer that the
    column-wise writer replaced, kept as the oracle for its output."""
    def round12(value):
        if isinstance(value, list):
            return [round12(v) for v in value]
        return float(f"{value:.12g}") if np.isfinite(value) else None

    columns = {"d": trace.distances, "bound": trace.bound,
               "x": trace.states if full_state else None}
    columns = {name: round12(col.tolist()) for name, col in columns.items() if col is not None}
    jsonl = "".join(
        json.dumps(dict({name: col[k] for name, col in columns.items()}, k=k),
                   sort_keys=True, allow_nan=False) + "\n"
        for k in range(len(trace.distances)))
    csv = "k,d,bound\n"
    for k, d in enumerate(trace.distances.tolist()):
        bound = "" if trace.bound is None else format(trace.bound[k], ".12g")
        csv += f"{k},{d:.12g},{bound}\n"
    return jsonl, csv


def write_trace_case(tmp_path, name):
    a4_json(tmp_path)
    write(tmp_path, "eye2.json", json.dumps({"rows": np.eye(2).tolist()}))
    write(tmp_path, "eye3.json", json.dumps({"rows": np.eye(3).tolist()}))
    return write(tmp_path, "sim.json", json.dumps(TRACE_CASES[name]))


@pytest.mark.parametrize("full_state", [False, True], ids=["d-bound", "full-state"])
@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_cli_simulate_trace_files_match_frozen_writer(tmp_path, capsys, monkeypatch,
                                                      name, full_state):
    traces = []

    def recording_simulate(*args, **kwargs):
        traces.append(simulate(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli.cml, "simulate", recording_simulate)
    path = write_trace_case(tmp_path, name)
    jsonl, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
    argv = ["--output", str(jsonl), "simulate", path, "--csv", str(csv_path)]
    code, _, _ = run_cli(capsys, *argv, *(["--full-state"] if full_state else []))
    assert code == 0
    expected_jsonl, expected_csv = frozen_trace_files(traces[0], full_state)
    assert jsonl.read_text() == expected_jsonl
    assert csv_path.read_text() == expected_csv


@pytest.mark.parametrize("name", ["bound-overflow", "diverging-l2", "tent-l1", "large-values"])
def test_cli_simulate_jsonl_and_csv_agree(tmp_path, capsys, name):
    path = write_trace_case(tmp_path, name)
    jsonl, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "--output", str(jsonl), "simulate", path,
                         "--csv", str(csv_path))
    assert code == 0
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    assert rows[0] == ["k", "d", "bound"] and len(rows) == len(records) + 1

    def same(value, cell):
        return not np.isfinite(float(cell)) if value is None else value == float(cell)

    for rec, (k, d, bound) in zip(records, rows[1:]):
        assert rec["k"] == int(k) and same(rec["d"], d)
        assert bound == "" if "bound" not in rec else same(rec["bound"], bound)


def test_cli_simulate_divergence_is_no_warning(tmp_path):
    a4_json(tmp_path)
    config = write(tmp_path, "sim.json", json.dumps(DIVERGING))
    res = run_cli_process("simulate", config, python_flags=["-W", "error"])
    assert res.returncode == 0 and res.stderr == ""
    assert json.loads(res.stdout)["diverged"] is True


@pytest.mark.parametrize("weights, c_is_one", [(None, True), ([0.5, 0.5], True),
                                               ([1.0, 0.3], False)],
                         ids=["l2", "wl2-uniform", "wl2"])
def test_cli_simulate_distance_past_sqrt_of_float_range_is_finite(tmp_path, capsys,
                                                                 weights, c_is_one):
    # x1 = 1e200 x0 + 1 on the identity coupling: d1 = 1e200 d0 is finite,
    # though its square is not; with uniform weights c = 1 and d1 = bound1
    write(tmp_path, "eye2.json", json.dumps({"rows": np.eye(2).tolist()}))
    config = {"matrix": "eye2.json", "map": {"kind": "affine", "a": 1e200, "b": 1},
              "x0": [0.1, 0.9], "steps": 10, "norm": "l2"}
    if weights is not None:
        config.update(norm="wl2", weights=weights)
    path = write(tmp_path, "sim.json", json.dumps(config))
    jsonl = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "--output", str(jsonl), "simulate", path)
    summary = json.loads(out)
    assert code == 0 and summary["diverged"] and summary["steps"] == 1
    r0, r1 = (json.loads(line) for line in jsonl.read_text().splitlines())
    assert summary["final_distance"] == r1["d"]
    assert r1["d"] == pytest.approx(1e200 * r0["d"], rel=1e-12)
    assert r1["d"] <= r1["bound"] * (1 + 1e-12)
    if c_is_one:
        assert r1["d"] == pytest.approx(r1["bound"], rel=1e-12)


def test_cli_ergodicity_logs_load_parameters_and_verdict(tmp_path, capsys, caplog,
                                                        monkeypatch):
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    generated = generator_spec(tmp_path, n=4, seed=7)
    listed = repeated_sequence(tmp_path, A4, "a4")
    code, _, _ = run_cli(capsys, "ergodicity", generated, "--horizon", "6")
    assert code == 0 and all(r.levelno < logging.WARNING for r in caplog.records)

    caplog.set_level(logging.INFO, logger="contractlab")
    for spec, loaded, argv in [
        (generated, "n = 4, generator random_stochastic_spanning_tree, seed 7", []),
        (listed, "n = 3, 5 matrices", ["--block-len", "2"]),
    ]:
        caplog.clear()
        code, out, _ = run_cli(capsys, "ergodicity", spec, "--horizon", "5", *argv)
        report = json.loads(out)
        assert code == 0
        assert [r.levelno for r in caplog.records] == [logging.INFO] * 3
        assert [r.getMessage() for r in caplog.records] == [
            f"loaded sequence {spec}: {loaded}",
            f"horizon 5, block_len {report['block_len']}, anchors [0, 1, 3]",
            f"verdict: {report['verdict']}",
        ]


def test_cli_simulate_logs_events_once_per_run(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    # equal rows synchronize at step 1, where 4.5 x (1 - x) leaves [0, 1]
    # and then grows without bound
    write(tmp_path, "half.json", json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]]}))
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "half.json", "map": {"kind": "logistic", "a": 4.5},
        "x0": [0.4, 0.6], "steps": 30}))
    argv = ["--output", str(tmp_path / "t.jsonl"), "simulate", config,
            "--csv", str(tmp_path / "t.csv")]
    code, out, _ = run_cli(capsys, *argv)
    # the default level is WARNING; a subprocess test sees an empty stderr
    assert code == 0 and all(r.levelno < logging.WARNING for r in caplog.records)

    caplog.clear()
    caplog.set_level(logging.INFO, logger="contractlab")
    code, out, _ = run_cli(capsys, *argv)
    summary = json.loads(out)
    assert code == 0 and summary["diverged"]
    records = summary["steps"] + 1
    assert [r.levelno for r in caplog.records] == [logging.INFO] * 5
    assert [r.getMessage() for r in caplog.records] == [
        "synchronized at step 1 (distance < 1e-10)",
        "envelope void from step 1: the state left the map domain",
        f"diverged: state {records} is not finite; the trace stops before it",
        f"wrote JSONL trace {tmp_path / 't.jsonl'} ({records} records)",
        f"wrote CSV trace {tmp_path / 't.csv'} ({records} records)",
    ]
