import argparse
import importlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import contractlab
from contractlab import cli
from contractlab.cml import DEFAULT_SYNC_TOL, make_map, simulate
from contractlab.contractivity import contractivity, contractivity_l2, contractivity_linf
from contractlab.io import (
    InputError,
    load_matrix,
    load_object,
    load_sequence,
    load_vector,
    parse_weights,
)
from contractlab.matcore import DEFAULT_ROW_SUM_TOL, DEFAULT_ZERO_TOL
from contractlab.products import (
    MatrixSequence,
    product,
    weak_ergodicity_diagnostic,
)
from contractlab.projections import Norm, NormError, linf
from contractlab.reference import A1, A4, MATRICES, W4

from conftest import RANK_ONE_V, counting_coefficient, random_doubly_constant, rank_one_matrices


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


# a JSON value where a number belongs, and the JSON type the error names
NOT_NUMBERS = [("0.5", "string"), (True, "boolean"), (None, "null"), ([0.5], "array"),
               ({"v": 0.5}, "object")]


@pytest.mark.parametrize("value, found", NOT_NUMBERS, ids=lambda v: json.dumps(v))
def test_json_numbers_only(tmp_path, value, found):
    # a matrix entry, a JSON vector entry or a weight is a JSON number;
    # nothing else is converted to one
    message = f"non-numeric value (expected JSON numbers, found {found})"
    path = write(tmp_path, "m.json", json.dumps({"rows": [[0.5, value], [0.5, 0.5]]}))
    with pytest.raises(InputError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        load_matrix(path)
    path = write(tmp_path, "v.json", json.dumps([1.0, value]))
    with pytest.raises(InputError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        load_vector(path)
    with pytest.raises(InputError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
        parse_weights(path)


def test_cli_analyze_json_string_entry_exits_2(tmp_path, capsys):
    path = write(tmp_path, "m.json", json.dumps({"rows": [["0.5", True], [0.5, 0.5]]}))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err == (f"error: {path}: non-numeric value "
                   "(expected JSON numbers, found boolean, string)\n")


# a JSON integer past the float range; a repeat of 1e19 is past the index
# range, and a CSV cell of 200000 digits past the csv module's field limit
BIG = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["analyze", "big.json"],
    ["analyze", "big.csv"],
    ["decompose", "a4.json", "x.json"],
    ["contractivity", "a4.json", "--norm", "wl2", "--weights", "x.json"],
    ["product", "rep.json"],
    ["ergodicity", "rep.json", "--horizon", "2"],
], ids=" ".join)
def test_cli_oversized_number_exits_2_naming_the_file(tmp_path, capsys, argv):
    # the error names the last file of argv, the one holding the number
    a4_json(tmp_path)
    write(tmp_path, "big.json", '{"rows": [[%s]]}' % BIG)
    write(tmp_path, "x.json", "[%s, 1, 1]" % BIG)
    write(tmp_path, "rep.json", '{"matrices": ["a4.json"], "repeat": 1e19}')
    write(tmp_path, "big.csv", "1" * 200000 + ",0\n0,1\n")
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    named = [a for a in argv if a.endswith((".json", ".csv"))][-1]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


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


# past the recursion limit of the JSON decoder
DEEP = "[" * 100000 + "]" * 100000
DEEP_JSON = {
    "matrix": (load_matrix, '{"rows": ' + DEEP + "}"),
    "sequence": (load_sequence, '{"matrices": ' + DEEP + "}"),
    "config": (load_object, '{"map": ' + DEEP + "}"),
    "vector": (load_vector, DEEP),
    "weights": (parse_weights, DEEP),
}


@pytest.mark.parametrize("name", sorted(DEEP_JSON))
def test_deeply_nested_json_is_an_input_error(tmp_path, name):
    loader, text = DEEP_JSON[name]
    path = write(tmp_path, f"{name}.json", text)
    with pytest.raises(InputError, match=f"^{re.escape(path)}: JSON nested too deeply$"):
        loader(path)


# ---------------------------------------------------------------- cli


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_cli_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = write(tmp_path, "deep.json", '{"rows": ' + DEEP + "}")
    code, out, err = run_cli(capsys, command, path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


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
    code, _, _ = run_cli(capsys, "--output", str(outdir), "analyze", p1, p2)
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


def test_cli_analyze_output_directory_made_before_any_input(tmp_path, capsys, monkeypatch):
    p1, p2 = a4_json(tmp_path, "m1.json"), a4_json(tmp_path, "m2.json")
    analysed = []
    monkeypatch.setattr(cli, "_analysis_report", lambda *a: analysed.append(a))
    notadir = Path(write(tmp_path, "notadir", ""))
    code, out, err = run_cli(capsys, "--output", str(notadir), "analyze", p1, p2)
    assert code == 2 and out == "" and "File exists" in err and len(err.splitlines()) == 1
    assert analysed == [] and notadir.read_text() == ""
    monkeypatch.undo()
    outdir = tmp_path / "reports"
    code, out, err = run_cli(capsys, "--output", str(outdir), "analyze", p1,
                             str(tmp_path / "missing.json"))
    assert code == 2 and "missing.json" in err
    assert outdir.is_dir() and list(outdir.iterdir()) == []


def test_cli_analyze_computes_mu_once(tmp_path, capsys, monkeypatch):
    # analyze makes one n^3 row-pair sweep: the table of mu, from which it
    # also reads delta, and never delta's own full sweep
    matcore = importlib.import_module("contractlab.matcore")
    sweeps = []

    def counting(name, sweep):
        def counted(*args, **kwargs):
            sweeps.append(name)
            return sweep(*args, **kwargs)
        return counted

    monkeypatch.setattr(matcore, "_row_pairs", counting("table", matcore._row_pairs))
    monkeypatch.setattr(matcore, "_delta", counting("_delta", matcore._delta))
    rng = np.random.default_rng(9)
    a = rng.random((12, 12))
    a /= a.sum(axis=1, keepdims=True)
    path = write(tmp_path, "a.json", json.dumps({"rows": a.tolist()}))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0 and json.loads(out)["c_linf"] is not None
    assert sweeps == ["table"]
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
    assert doc["lower_bound"] == 0.893748035587
    code, out, _ = run_cli(capsys, "contractivity", p, "--norm", "l1")
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "closed_form_l1" and "lower_bound" not in doc
    assert doc["c"] == pytest.approx(0.9, abs=1e-12)


def test_cli_contractivity_lower_bound_only_with_an_upper_bound(tmp_path, capsys):
    # A4's l2 coefficient is a bound above 1, its attained ratio the exact
    # sup below 1; a doubly constant matrix has the exact l2 coefficient
    p = a4_json(tmp_path)
    code, out, _ = run_cli(capsys, "contractivity", p, "--norm", "l2")
    doc = json.loads(out)
    assert code == 0 and doc["bound_only"] and doc["c"] == pytest.approx(1.125050033165)
    assert doc["lower_bound"] == 0.955505136625
    exact = write(tmp_path, "exact.json", json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]]}))
    for argv in ([p], [p, "--norm", "l1"], [exact, "--norm", "l2"]):
        code, out, _ = run_cli(capsys, "contractivity", *argv)
        doc = json.loads(out)
        assert code == 0 and not doc["bound_only"] and "lower_bound" not in doc


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_cli_contractivity_samples_and_seed_are_usage_errors(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["contractivity", a4_json(tmp_path), "--norm", "l2", flag, "10"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"unrecognized arguments: {flag} 10" in err


# constant row sums fail: d(A(x + alpha e), X*) grows without bound in alpha
UNEVEN_ROWS = {"rows": [[0.5, 0.2], [0.2, 0.8]]}


@pytest.mark.parametrize("norm", ["linf", "l2", "l1", "wl2"])
def test_cli_contractivity_without_constant_row_sums_exits_2(tmp_path, capsys, norm):
    p = write(tmp_path, "uneven.json", json.dumps(UNEVEN_ROWS))
    weights = ["--weights", "1,0.5"] if norm == "wl2" else []
    code, out, err = run_cli(capsys, "contractivity", p, "--norm", norm, *weights)
    assert (code, out) == (2, "")
    assert err == "error: matrix does not have constant row sums\n"


@pytest.mark.parametrize("norm", ["linf", "l1", "l2"])
def test_cli_contractivity_row_sums_near_the_float_range(tmp_path, capsys, norm):
    # two finite row sums of 1e308 have a mean of 1e308, though their sum is
    # inf; so do the column sums, which makes the l2 coefficient exact
    p = write(tmp_path, "big.json", json.dumps({"rows": [[1e308, 0], [0, 1e308]]}))
    code, out, err = run_cli(capsys, "contractivity", p, "--norm", norm)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["c"], doc["bound_only"]) == (1e308, False) and "lower_bound" not in doc
    code, out, err = run_cli(capsys, "analyze", p)
    assert (code, err) == (0, "")
    assert json.loads(out)["r"] == 1e308


def rank_one_json(tmp_path):
    """R.json, holding e v^T for v = RANK_ONE_V."""
    return write(tmp_path, "R.json", json.dumps({"rows": [RANK_ONE_V] * 5}))


def test_cli_rank_one_coefficient_is_zero(tmp_path, capsys):
    paths = [rank_one_json(tmp_path)] + [
        write(tmp_path, f"r{k}.json", json.dumps({"rows": A.a.tolist()}))
        for k, A in enumerate(rank_one_matrices())]
    for path in paths:
        code, out, _ = run_cli(capsys, "contractivity", path)
        assert code == 0 and json.loads(out)["c"] == 0.0, path
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0 and json.loads(out)["c_linf"] == 0.0, path
    # equal row sums are constant at any tolerance
    code, out, _ = run_cli(capsys, "--row-sum-tol", "0", "contractivity", paths[0])
    assert code == 0 and json.loads(out)["c"] == 0.0


HALF ={"rows": [[0.5, 0.5], [0.5, 0.5]]}  # J/2: synchronizes any lattice at step 1


@pytest.mark.parametrize("argv", [
    ["--zero-tol", "nan", "analyze", "{matrix}"],
    ["--zero-tol", "inf", "analyze", "{matrix}"],
    ["--zero-tol", "-1", "analyze", "{matrix}"],
    ["--row-sum-tol", "nan", "analyze", "{matrix}"],
    ["--row-sum-tol", "inf", "analyze", "{matrix}"],
    ["simulate", "{config}", "--sync-tol", "nan"],
    ["simulate", "{config}", "--sync-tol", "-1"],
], ids=lambda argv: " ".join(a for a in argv if "{" not in a))
def test_cli_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, argv):
    matrix = write(tmp_path, "half.json", json.dumps(HALF))
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "half.json", "map": {"kind": "tent", "s": 1.0}, "x0": [0.2, 0.6]}))
    argv = [a.format(matrix=matrix, config=config) for a in argv]
    flag = next(a for a in argv if a.endswith("-tol"))
    value = argv[argv.index(flag) + 1]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite and >= 0, got {float(value)}\n"


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


WEIGHTS_WITHOUT_WL2 = {
    "contractivity": lambda tmp_path: ["contractivity", a4_json(tmp_path), "--norm", "l2",
                                       "--weights", "1,2,3"],
    "contractivity-file": lambda tmp_path: ["contractivity", a4_json(tmp_path), "--norm", "l1",
                                            "--weights", str(tmp_path / "missing.json")],
    "product": lambda tmp_path: ["product", repeated_sequence(tmp_path, A4, "a4"),
                                 "--weights", "1,2,3"],
    "simulate-config": lambda tmp_path: ["simulate", write_simulate_config(
        tmp_path, "matrix", norm="l2", weights=[1, 2, 3])],
    "simulate-default-norm": lambda tmp_path: ["simulate", write_simulate_config(
        tmp_path, "matrix", weights=[1, 2, 3])],
}


@pytest.mark.parametrize("name", sorted(WEIGHTS_WITHOUT_WL2))
def test_cli_weights_without_wl2_exit_2(tmp_path, capsys, name):
    # weights are rejected, not ignored, and before a weight file is read
    code, out, err = run_cli(capsys, *WEIGHTS_WITHOUT_WL2[name](tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("weights apply only to the wl2 norm\n")
    assert len(err.splitlines()) == 1


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


# 2 x 2 items whose max-norm coefficients r - mu are 0.5, 1 and 2, exactly
PRODUCT_ITEMS = {"half": [[0.75, 0.25], [0.25, 0.75]], "eye": [[1.0, 0.0], [0.0, 1.0]],
                 "double": [[2.0, 0.0], [0.0, 2.0]]}


@pytest.mark.parametrize("items, per_item_c, zero", [
    (["half"] * 50, [0.5] * 50, True),
    (["eye"] * 50, [1.0] * 50, False),
    (["half", "double"] * 25, [0.5, 2.0] * 25, False),
], ids=["half", "eye", "half-double"])
def test_cli_product_running_products(tmp_path, capsys, items, per_item_c, zero):
    # running_products is the running product of per_item_c and c_bound its
    # last entry, numerically zero below products.PRODUCT_ZERO_THRESHOLD
    for name, rows in PRODUCT_ITEMS.items():
        write(tmp_path, f"{name}.json", json.dumps({"rows": rows}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": [f"{n}.json" for n in items]}))
    code, out, err = run_cli(capsys, "product", spec)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    running = np.cumprod(per_item_c)
    assert doc["per_item_c"] == per_item_c
    assert doc["running_products"] == pytest.approx(running.tolist(), rel=1e-11)
    assert doc["c_bound"] == pytest.approx(running[-1], rel=1e-11)
    assert doc["product_numerically_zero"] is zero


def test_cli_product_of_rank_one_items(tmp_path, capsys):
    rank_one_json(tmp_path)
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["R.json", "R.json"]}))
    code, out, err = run_cli(capsys, "product", spec)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["per_item_c"], doc["c_bound"]) == ([0.0, 0.0], 0.0)
    assert doc["product_numerically_zero"]


def test_cli_simulate_rank_one_coupling_bound_is_never_negative(tmp_path, capsys):
    # R maps every state into X*: the envelope is d0 and then 0
    rank_one_json(tmp_path)
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "R.json", "map": {"kind": "logistic", "a": 3.9},
        "x0": [0.1, 0.2, 0.3, 0.4, 0.5], "steps": 3}))
    trace = tmp_path / "trace.jsonl"
    code, _, err = run_cli(capsys, "--output", str(trace), "simulate", config)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [rec["bound"] for rec in records] == [0.2, 0.0, 0.0, 0.0]


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


def test_cli_wl2_bound_past_the_float_range_is_null(tmp_path, capsys):
    # W^(1/2) C W^(-1) holds -1e310: the bound is inf, printed null
    C = write(tmp_path, "C.json", json.dumps(
        {"rows": [[2e10, -1e10, 0], [0, 1e10, 0], [0, 0, 1e10]]}))
    code, out, err = run_cli(capsys, "contractivity", C, "--norm", "wl2",
                             "--weights", "1,1e-300,1")
    assert code == 0 and err == "" and len(out.splitlines()) == 1
    doc = json.loads(out)
    assert doc["c"] is None
    assert doc["set_nonexpansive"] is False and doc["set_contractive"] is False


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


# scrambling, with a first row that sums to 1 + 1e-7: stochastic and of
# constant row sums within 1e-6, but not within the default 1e-9
OFF_ROW_SUM = [[0.6000001, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]


@pytest.mark.parametrize("command", ["ergodicity", "simulate"])
def test_cli_row_sum_tol_reaches_ergodicity_and_simulate(tmp_path, capsys, command):
    write(tmp_path, "off.json", json.dumps({"rows": OFF_ROW_SUM}))
    if command == "ergodicity":
        argv = ["ergodicity", write(tmp_path, "seq.json", json.dumps(
            {"matrices": ["off.json"], "repeat": 4})), "--horizon", "4"]
    else:
        argv = ["simulate", write(tmp_path, "sim.json", json.dumps(
            {**SIMULATE_CONFIG, "matrix": "off.json"}))]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.count("\n") == 1
    code, out, err = run_cli(capsys, "--row-sum-tol", "1e-6", *argv)
    assert code == 0 and err == "" and json.loads(out)


def test_cli_ergodicity_judges_a_block_within_its_items_slack(tmp_path, capsys):
    # each item's first row sums to 1 + 9e-7, within --row-sum-tol 1e-6,
    # and a block of two such items to about 1 + 1.8e-6; far.json's first
    # row sums to 1 + 2e-6
    off = [[0.6000009, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
    write(tmp_path, "off.json", json.dumps({"rows": off}))
    write(tmp_path, "far.json", json.dumps({"rows": [[0.600002, 0.2, 0.2], *off[1:]]}))
    for matrices, want in ((["off.json"] * 4, (0, "")),
                           (["off.json", "off.json", "far.json", "off.json"],
                            (2, "error: sequence item 2 is not stochastic\n"))):
        spec = write(tmp_path, "seq.json", json.dumps({"matrices": matrices}))
        code, out, err = run_cli(capsys, "--row-sum-tol", "1e-6", "ergodicity", spec,
                                 "--horizon", "4")
        assert (code, err) == want
        assert bool(out) == (code == 0)


# row 0 sums to 1 + 9e-7: within --row-sum-tol 1e-6 of the mean row sum
DRIFTING = [[0.6000009, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
# row sums within 9e-7 of 1, and 1.2e-6 from their mean
SPREAD_DIAGONAL = [[1.0000009, 0, 0], [0, 0.9999991, 0], [0, 0, 0.9999991]]
# a first row that sums to 1 + 9e-10: within the default 1e-9 of the mean
R3_ITEM = [[0.6000000009, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]


@pytest.mark.parametrize("rows, flags, repeat", [
    pytest.param(DRIFTING, ["--row-sum-tol", "1e-6"], 12, id="12"),
    pytest.param(DRIFTING, ["--row-sum-tol", "1e-6"], 16, id="16"),
    pytest.param(R3_ITEM, [], 8, id="R3-8"),
    pytest.param(R3_ITEM, [], 20, id="R3-20"),
])
def test_cli_product_of_accepted_items_is_accepted(tmp_path, capsys, monkeypatch, rows, flags,
                                                   repeat):
    write(tmp_path, "item.json", json.dumps({"rows": rows}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["item.json"], "repeat": repeat}))
    calls = counting_coefficient(monkeypatch)
    code, out, err = run_cli(capsys, *flags, "product", spec)
    assert (code, err) == (0, "")
    # the item's coefficient first, then the product's
    assert len(calls) == 2 and calls[0].a.tolist() == rows
    full = product(load_sequence(spec), 0, repeat - 1)
    assert calls[1].a.tolist() == full.a.tolist()
    doc = json.loads(out)
    assert doc["c_exact"] == float(f"{contractivity(full, linf(), 1e-3).c:.12g}")
    c_item = contractivity(np.array(rows), linf(), 1e-6).c
    assert doc["c_bound"] == pytest.approx(c_item ** repeat, rel=1e-11)


def test_cli_product_of_drifting_items_exceeds_the_factor_bound(tmp_path, capsys):
    # c = r - mu under linf, and the product's mean row sum r is not the
    # product of the items' means: c_exact passes c_bound only by the drift
    write(tmp_path, "drift.json", json.dumps({"rows": DRIFTING}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["drift.json"], "repeat": 16}))
    code, out, _ = run_cli(capsys, "--row-sum-tol", "1e-6", "product", spec)
    doc = json.loads(out)
    assert code == 0 and doc["c_exact"] > 2 * doc["c_bound"]
    assert (doc["c_exact"], doc["c_bound"]) == pytest.approx((9.295e-07, 4.295e-07), rel=1e-3)


def test_cli_ergodicity_block_of_one_accepted_item(tmp_path, capsys):
    write(tmp_path, "spread.json", json.dumps({"rows": SPREAD_DIAGONAL}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["spread.json"], "repeat": 2}))
    code, out, err = run_cli(capsys, "--row-sum-tol", "1e-6", "ergodicity", spec,
                             "--horizon", "2", "--block-len", "1")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["block_mu_c_partial_sums"]) == 2


def test_cli_product_names_an_item_off_by_twice_the_tolerance(tmp_path, capsys):
    # far.json's row sums are 2e-6 apart at --row-sum-tol 1e-6, and 2.9e-9
    # apart at the default 1e-9; ergodicity's case is in
    # test_cli_ergodicity_judges_a_block_within_its_items_slack
    for rows, far, flags in ((DRIFTING, 0.600002, ["--row-sum-tol", "1e-6"]),
                             (R3_ITEM, 0.6000000029, [])):
        write(tmp_path, "drift.json", json.dumps({"rows": rows}))
        write(tmp_path, "far.json", json.dumps({"rows": [[far, 0.2, 0.2], *rows[1:]]}))
        spec = write(tmp_path, "seq.json", json.dumps(
            {"matrices": ["drift.json", "far.json", "drift.json"]}))
        code, out, err = run_cli(capsys, *flags, "product", spec)
        assert (code, out) == (2, "")
        assert err == "error: item 1: matrix does not have constant row sums\n"


def exactly_stochastic(rng, n):
    """A random n x n stochastic matrix whose rows sum to exactly 1.0."""
    while True:
        a = rng.random((n, n))
        a /= a.sum(axis=1, keepdims=True)
        a[:, -1] = 1.0 - a[:, :-1].sum(axis=1)
        if np.all(a >= 0) and np.all(a.sum(axis=1) == 1.0):
            return a


@pytest.mark.parametrize("command", ["ergodicity", "product"])
def test_cli_product_rounding_passes_a_zero_row_sum_tol(tmp_path, capsys, command):
    # three 5 x 5 items whose rows sum to exactly 1.0, nine in all: the
    # first block of four and the product of all nine drift by rounding
    rng = np.random.default_rng(5)
    names = []
    for k in range(3):
        names.append(f"x{k}.json")
        write(tmp_path, names[-1], json.dumps({"rows": exactly_stochastic(rng, 5).tolist()}))
    spec = write(tmp_path, "xs.json", json.dumps({"matrices": names, "repeat": 3}))
    seq = load_sequence(spec)
    for stop in (3, 8):
        assert np.abs(product(seq, 0, stop).a.sum(axis=1) - 1.0).max() > 0
    argv = ["ergodicity", spec, "--horizon", "9"] if command == "ergodicity" else ["product", spec]
    code, out, err = run_cli(capsys, "--row-sum-tol", "0", *argv)
    assert (code, err) == (0, "") and json.loads(out)


def test_cli_ergodicity_block_slack_past_the_float_range(tmp_path, capsys):
    # (1 + 1e300)^5 - 1 is past the float range: the block's slack is infinite
    spec = repeated_sequence(tmp_path, A4, "a4")
    code, out, err = run_cli(capsys, "--row-sum-tol", "1e300", "ergodicity", spec,
                             "--horizon", "5", "--block-len", "5")
    assert (code, err) == (0, "") and json.loads(out)["block_mu_c_partial_sums"]


@pytest.mark.parametrize("block_len", ["1", "2"])
def test_cli_ergodicity_overflowing_product_exits_2(tmp_path, capsys, block_len):
    # H is accepted at 1e300 and H H overflows: anchor 0 names the product
    # of items 0..1 before any block is judged, whatever the block length
    write(tmp_path, "H.json", json.dumps({"rows": [[1e200, -1e200], [0, 1]]}))
    spec = write(tmp_path, "hseq.json", json.dumps({"matrices": ["H.json"], "repeat": 4}))
    code, out, err = run_cli(capsys, "--row-sum-tol", "1e300", "ergodicity", spec,
                             "--horizon", "4", "--block-len", block_len)
    assert (code, out) == (2, "")
    assert err == "error: product of items 0..1 is not finite\n"


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_cli_product_overflowing_product_exits_2(tmp_path, capsys, norm):
    # each H is accepted at 1e300; their product of items 0..3 is not finite
    write(tmp_path, "H.json", json.dumps({"rows": [[1e200, -1e200], [0, 1]]}))
    spec = write(tmp_path, "hseq.json", json.dumps({"matrices": ["H.json"], "repeat": 4}))
    code, out, err = run_cli(capsys, "--row-sum-tol", "1e300", "product", spec, "--norm", norm)
    assert (code, out) == (2, "")
    assert err == "error: product of items 0..3 is not finite\n"


@pytest.mark.parametrize("command", ["contractivity", "product", "ergodicity", "simulate"])
def test_cli_wrong_weight_count_is_one_error(tmp_path, capsys, command):
    a4_json(tmp_path)
    weights = ["--norm", "wl2", "--weights", "1,2"]
    if command == "contractivity":
        argv = ["contractivity", str(tmp_path / "a4.json"), *weights]
    elif command == "simulate":
        argv = ["simulate", write(tmp_path, "sim.json", json.dumps(
            {**SIMULATE_CONFIG, "norm": "wl2", "weights": [1, 2]}))]
    else:
        spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["a4.json"], "repeat": 5}))
        argv = [command, spec, *weights] + (["--horizon", "5"] if command == "ergodicity" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: weight vector length 2 != vector length 3\n"


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


@pytest.mark.parametrize("min_entry, message", [
    (0.9, "min_entry 0.9 too large for a positive diagonal plus a tree edge"),
    ("0.1", "min_entry must be a real number, got '0.1'"),
    (True, "min_entry must be a real number, got True"),
])
def test_cli_generator_min_entry_checked_at_load(tmp_path, capsys, min_entry, message):
    spec = generator_spec(tmp_path, n=4, min_entry=min_entry)
    with pytest.raises(InputError, match=re.escape(message)):
        load_sequence(spec)  # before any item is drawn
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "3"), spec, message)


def test_cli_tolerance_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["simulate", "cfg.json"])
    assert args.zero_tol == DEFAULT_ZERO_TOL and args.row_sum_tol == DEFAULT_ROW_SUM_TOL
    assert args.sync_tol == DEFAULT_SYNC_TOL


def assert_field_error(code, out, err, path, message):
    """Exit 2 with nothing on stdout and one stderr line naming the file
    and the field."""
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and message in err
    assert len(err.splitlines()) == 1


def generator_spec(tmp_path, **fields):
    return write(tmp_path, "gen.json", json.dumps({"generator": {
        "kind": "random_stochastic_spanning_tree", "n": 3, "seed": 1, **fields}}))


GENERATOR = {"kind": "random_stochastic_spanning_tree", "n": 3, "seed": 1}


@pytest.mark.parametrize("doc, message", [
    ({"generator": GENERATOR, "matrices": ["a4.json"]},
     "fields 'generator' and 'matrices' exclude each other"),
    ({"generator": GENERATOR, "repeat": 2}, "fields 'generator' and 'repeat' exclude each other"),
    ({"matrices": ["a4.json"], "repaet": 2}, "unknown field 'repaet'"),
    ({"generator": {**GENERATOR, "sed": 3}}, "bad generator spec (unknown field 'sed')"),
    ({"generator": {**GENERATOR, "min_entyr": 0.1}},
     "bad generator spec (unknown field 'min_entyr')"),
], ids=["generator-and-matrices", "generator-and-repeat", "repaet", "sed", "min_entyr"])
def test_cli_sequence_spec_field_errors(tmp_path, capsys, doc, message):
    a4_json(tmp_path)
    spec = write(tmp_path, "seq.json", json.dumps(doc))
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "2"), spec, message)


def generated_report(tmp_path, capsys, **fields):
    code, out, _ = run_cli(capsys, "ergodicity", generator_spec(tmp_path, **fields),
                           "--horizon", "3")
    assert code == 0
    return out


@pytest.mark.parametrize("tol, code", [("0", 2), ("1e-15", 0)])
def test_cli_generated_row_sums_miss_one_by_rounding(tmp_path, capsys, tol, code):
    # a generated row sums to 1 within 2 ulps, not exactly: at t = 0 the
    # first item fails, and 1e-15 covers every item
    spec = generator_spec(tmp_path, n=30, seed=5)
    miss = np.abs(load_sequence(spec)[0].a.sum(axis=1) - 1.0).max()
    assert 0 < miss <= 4.5e-16
    result = run_cli(capsys, "--row-sum-tol", tol, "ergodicity", spec, "--horizon", "30")
    if code:
        assert result == (2, "", "error: sequence item 0 is not stochastic\n")
    else:
        assert result[0] == 0 and result[2] == "" and json.loads(result[1])


@pytest.mark.parametrize("n, message", [
    (5.9, "n must be an integer, got 5.9"),
    (True, "n must be an integer, got True"),
    ("3", "n must be an integer, got '3'"),
    (0, "n must be >= 1, got 0"),
    # an n x n float64 item has more bytes than np.intp indexes
    pytest.param(10 ** 400, "bad generator spec (n too large: an n x n float64 matrix has "
                            "more bytes than numpy can index)", id="10**400"),
])
def test_cli_generator_n_must_be_a_positive_integer(tmp_path, capsys, n, message):
    spec = generator_spec(tmp_path, n=n)
    assert_field_error(*run_cli(capsys, "ergodicity", spec, "--horizon", "3"), spec, message)
    # an integral float is an integer
    exact = generated_report(tmp_path, capsys, n=5)
    assert generated_report(tmp_path, capsys, n=5.0) == exact
    assert json.loads(exact)["block_len"] == 4


def test_generator_n_limit_is_numpys_index_range():
    # the largest n whose n x n float64 item numpy can index loads (no item
    # is drawn at load); one more is rejected
    n = math.isqrt(np.iinfo(np.intp).max // 8)
    assert MatrixSequence(generator={**GENERATOR, "n": n}).n == n
    with pytest.raises(ValueError, match="^n too large: "):
        MatrixSequence(generator={**GENERATOR, "n": n + 1})


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


def test_cli_ergodicity_rejects_weights(tmp_path, capsys):
    # --weights is for --norm wl2 alone, as in contractivity and product
    spec = repeated_sequence(tmp_path, A4, "a4")
    code, out, err = run_cli(capsys, "ergodicity", spec, "--weights", "1,2,3")
    assert (code, out) == (2, "")
    assert err == "error: weights apply only to the wl2 norm\n"


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


# each norm's --norm arguments, and the Norm they select
NORM_ARGS = {
    "linf": ([], Norm("linf")),
    "l2": ([], Norm("l2")),
    "l1": ([], Norm("l1")),
    "wl2": (["--weights", "1,0.5,1"], Norm("wl2", np.array([1.0, 0.5, 1.0]))),
}


def test_cli_product_matches_library_bound(tmp_path, capsys):
    a4_json(tmp_path)
    mix = 0.5 * A4.a + 0.5 * np.eye(3)
    write(tmp_path, "mix.json", json.dumps({"rows": mix.tolist()}))
    spec = write(tmp_path, "seq.json", json.dumps(
        {"matrices": ["a4.json", "mix.json", "a4.json"]}))
    for kind, (flags, norm) in NORM_ARGS.items():
        # the numpy product in application order, and each item's coefficient
        c_exact = contractivity(A4.a @ (mix @ A4.a), norm).c
        c_a4, c_mix = contractivity(A4, norm).c, contractivity(mix, norm).c
        c_bound = c_a4 * c_mix * c_a4
        code, out, _ = run_cli(capsys, "product", spec, "--norm", kind, *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["norm"] == kind
        assert doc["c_exact"] == float(f"{c_exact:.12g}")
        assert doc["c_bound"] == float(f"{c_bound:.12g}")
        assert doc["c_bound"] == doc["running_products"][-1]


@pytest.mark.parametrize("kind", sorted(NORM_ARGS))
def test_cli_ergodicity_every_norm_reports_library_series(tmp_path, capsys, kind):
    # B = 0.05 J + 0.85 I and M = 0.8 J/3 + 0.2 I in turn: every block
    # product is set-nonexpansive under each norm of NORM_ARGS
    write(tmp_path, "b.json", json.dumps({"rows": (0.05 + 0.85 * np.eye(3)).tolist()}))
    write(tmp_path, "m.json", json.dumps({"rows": (0.8 / 3 + 0.2 * np.eye(3)).tolist()}))
    spec = write(tmp_path, "seq.json", json.dumps({"matrices": ["b.json", "m.json"],
                                                   "repeat": 15}))
    flags, norm = NORM_ARGS[kind]
    code, out, err = run_cli(capsys, "ergodicity", spec, "--norm", kind, *flags,
                             "--horizon", "30")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    report = weak_ergodicity_diagnostic(load_sequence(spec), horizon=30, norm=norm)
    assert doc["norm"] == kind and doc["verdict"] == report.verdict
    for name in ("delta_of_partial_products", "block_mu_c_partial_sums"):
        assert doc[name] == [float(f"{v:.12g}") for v in getattr(report, name)]
    assert len(doc["block_mu_c_partial_sums"]) == 15


def test_every_norm_option_offers_the_kinds_norm_accepts():
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    offered = {name: action.choices for name, p in subcommands.items()
               for action in p._actions if "--norm" in action.option_strings}
    assert sorted(offered) == ["contractivity", "ergodicity", "product"]
    assert all(list(choices) == ["linf", "l2", "l1", "wl2"] for choices in offered.values())
    for kind in ["linf", "l2", "l1"]:
        Norm(kind)
    Norm("wl2", [1.0])
    for kind in ["l3", "max", ""]:
        with pytest.raises(NormError, match="unknown norm kind"):
            Norm(kind)


# product on {"matrices": [A4, B], "repeat": 50}: (c_exact, c_bound, per_item_c
# of A4 and B) as printed before coefficients were computed once per
# distinct matrix.  c_exact is pinned to 1e-9 only: under linf it is 1 - mu
# of a nearly rank-one product, where BLAS rounding shows.
PINNED_REPEATED_PRODUCT = {
    "linf": (4.82433626381e-09, 1.52430459104e-06, [0.9, 0.85]),
    "l2": (1.10835842905, 0.107038034474, [1.12505003316, 0.85]),
}


@pytest.mark.parametrize("norm", sorted(PINNED_REPEATED_PRODUCT))
def test_cli_product_computes_each_coefficient_once(tmp_path, capsys, monkeypatch, norm):
    a4_json(tmp_path)
    B = np.full((3, 3), 0.05) + 0.85 * np.eye(3)
    write(tmp_path, "b.json", json.dumps({"rows": B.tolist()}))
    spec = write(tmp_path, "seq.json", json.dumps(
        {"matrices": ["a4.json", "b.json"], "repeat": 50}))
    calls = counting_coefficient(monkeypatch)
    code, out, _ = run_cli(capsys, "product", spec, "--norm", norm)
    assert code == 0
    # one per distinct factor, then the full product
    assert len(calls) == 3 and calls[0].a.tolist() == A4.a.tolist()
    assert calls[1].a.tolist() == B.tolist()
    doc = json.loads(out)
    c_exact, c_bound, pair = PINNED_REPEATED_PRODUCT[norm]
    assert doc["c_exact"] == pytest.approx(c_exact, rel=1e-9)
    assert doc["c_bound"] == c_bound == doc["running_products"][-1]
    assert doc["per_item_c"] == pair * 50 and doc["length"] == 100
    assert not doc["product_numerically_zero"] and doc["product_scrambling"]


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
    # unknown fields: the JSONL trace is named by --output only
    {"trace": 99999},
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


@pytest.mark.parametrize("fields, message", [
    ({"x0": [0.1, "0.5", 0.9]}, "field 'x0': non-numeric value (expected JSON numbers, "
                                "found string)"),
    ({"x0": [0.1, None, 0.9]}, "field 'x0': non-numeric value (expected JSON numbers, "
                               "found null)"),
    ({"x0": 0.5}, "field 'x0': expected a JSON array"),
    ({"map": {"kind": "logistic", "a": "3.9"}},
     "logistic map parameter 'a' must be a number, got '3.9'"),
    ({"map": {"kind": "affine", "a": True, "b": 0}},
     "affine map parameter 'a' must be a number, got True"),
    ({"map": {"kind": "custom_table", "xs": [0, 1], "ys": [True, "1"]}},
     "custom_table map parameter 'ys' must be a list of numbers"),
    ({"norm": "wl2", "weights": ["1", True, 0.5]},
     "field 'weights': non-numeric value (expected JSON numbers, found boolean, string)"),
    ({"norm": "wl2", "weights": "1,1,1"}, "field 'weights': expected a JSON array"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else "")
def test_cli_simulate_json_numbers_only(tmp_path, capsys, fields, message):
    path = write_simulate_config(tmp_path, "matrix", **fields)
    assert_field_error(*run_cli(capsys, "simulate", path), path, message)


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


@pytest.mark.parametrize("source", ["matrix", "generator"])
@pytest.mark.parametrize("steps", [0, -3])
def test_cli_simulate_steps_below_one_exits_2(tmp_path, capsys, source, steps):
    path = write_simulate_config(tmp_path, source, steps=steps)
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 2 and out == ""
    assert "steps must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--steps", "3"), ("--norm", "l2")])
def test_cli_simulate_steps_and_norm_flags_are_usage_errors(tmp_path, capsys, flag, value):
    path = write_simulate_config(tmp_path, "matrix")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"unrecognized arguments: {flag} {value}" in err


def test_cli_simulate_defaults_are_100_steps_under_linf(tmp_path, capsys):
    def summary(**fields):
        code, out, err = run_cli(capsys, "simulate",
                                 write_simulate_config(tmp_path, "matrix", **fields))
        assert (code, err) == (0, "")
        return {k: v for k, v in json.loads(out).items() if k != "input"}

    assert summary(steps=None, norm=None) == summary(steps=100, norm="linf")
    assert summary(steps=None)["steps"] == 100


@pytest.mark.parametrize("fields, message", [
    ({"trace": "t.jsonl"}, "unknown field 'trace'"),
    ({"stpes": 7}, "unknown field 'stpes'"),
    ({"stpes": 7, "nrom": "l2"}, "unknown fields 'stpes', 'nrom'"),
    ({"sequence": "seq.json"}, "fields 'matrix' and 'sequence' exclude each other"),
    ({"map": {"kind": "logistic", "a": 3.9, "s": 2}}, "unknown logistic map parameter 's'"),
    ({"matrix": 5}, "field 'matrix' must be a path, got 5"),
    ({"matrix": None, "sequence": 5}, "field 'sequence' must be a path, got 5"),
], ids=["trace", "stpes", "two-unknown", "matrix-and-sequence", "map-parameter",
        "matrix-not-a-path", "sequence-not-a-path"])
def test_cli_simulate_config_field_errors(tmp_path, capsys, fields, message):
    path = write_simulate_config(tmp_path, "matrix", **fields)
    assert_field_error(*run_cli(capsys, "simulate", path), path, message)


@pytest.mark.parametrize("source", ["matrix", "generator"])
def test_cli_simulate_out_of_memory_exits_2(tmp_path, capsys, source):
    # 10**15 steps, or the most numpy can index, cannot be allocated: the
    # matrix list or the state array exceeds the address space, so nothing
    # is actually filled
    for steps in (10 ** 15, MAX_STEPS):
        path = write_simulate_config(tmp_path, source, steps=steps)
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory") and len(err.splitlines()) == 1


# the most steps whose (steps + 1) x 3 float64 state array numpy can index
MAX_STEPS = np.iinfo(np.intp).max // (3 * 8) - 1


@pytest.mark.parametrize("source", ["matrix", "generator"])
@pytest.mark.parametrize("steps", [10 ** 19, MAX_STEPS + 1], ids=["1e19", "limit+1"])
def test_cli_simulate_steps_past_the_index_range_names_the_field(tmp_path, capsys, source,
                                                                 steps):
    path = write_simulate_config(tmp_path, source, steps=steps)
    assert_field_error(*run_cli(capsys, "simulate", path), path,
                       "steps too large: a (steps + 1) x n float64 state array has more "
                       "bytes than numpy can index")


TENT = '"map": {"kind": "tent", "s": 1.0}'
X0 = '"x0": [0.1, 0.5, 0.9]'
# inputs that each exit 2 with one stderr line naming the file at fault,
# or horizon: (files written beside a4.json and seq.json, argv, named)
INPUT_ERRORS = {
    "spec-array": ({"bad.json": '["a4.json"]'}, ["product", "bad.json"], "bad.json"),
    "matrix-without-rows": ({"bad.json": '{"cols": [[1]]}'}, ["analyze", "bad.json"],
                            "bad.json"),
    "matrix-empty-rows": ({"bad.json": '{"rows": []}'}, ["analyze", "bad.json"], "bad.json"),
    "decompose-empty-vector": ({"x.json": "[]"}, ["decompose", "a4.json", "x.json"], "x.json"),
    "weights-empty-file": ({"w.json": "[]"}, ["contractivity", "a4.json", "--norm", "wl2",
                                              "--weights", "w.json"], "w.json"),
    "simulate-empty-x0": ({"sim.json": '{"matrix": "a4.json", %s, "x0": []}' % TENT},
                          ["simulate", "sim.json"], "sim.json"),
    "simulate-no-coupling": ({"sim.json": "{%s, %s}" % (TENT, X0)}, ["simulate", "sim.json"],
                             "sim.json"),
    "simulate-no-map": ({"sim.json": '{"matrix": "a4.json", %s}' % X0},
                        ["simulate", "sim.json"], "sim.json"),
    "simulate-no-x0": ({"sim.json": '{"matrix": "a4.json", %s}' % TENT},
                       ["simulate", "sim.json"], "sim.json"),
    "tent-1e400": ({"sim.json": '{"matrix": "a4.json", "map": {"kind": "tent", "s": 1e400}, '
                                '%s}' % X0}, ["simulate", "sim.json"], "sim.json"),
    "affine-1e400": ({"sim.json": '{"matrix": "a4.json", "map": {"kind": "affine", "a": 1e400, '
                                  '"b": 0}, %s}' % X0}, ["simulate", "sim.json"], "sim.json"),
    "horizon-0": ({}, ["ergodicity", "seq.json", "--horizon", "0"], "horizon"),
    "horizon-negative": ({}, ["ergodicity", "seq.json", "--horizon", "-3"], "horizon"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_cli_input_error_names_its_source(tmp_path, capsys, name):
    files, argv, named = INPUT_ERRORS[name]
    a4_json(tmp_path)
    write(tmp_path, "seq.json", json.dumps({"matrices": ["a4.json"], "repeat": 3}))
    for file, text in files.items():
        write(tmp_path, file, text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {tmp_path / named}: " if named.endswith(".json")
                          else f"error: {named} ")


def child_env(**overrides):
    """This environment, importing this package, without CONTRACTLAB_LOG or
    PYTHONUNBUFFERED (so stdout to a pipe waits in its buffer until exit),
    and with the overrides set; an override of None unsets the variable."""
    paths = [str(Path(contractlab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for name, value in {"CONTRACTLAB_LOG": None, "PYTHONUNBUFFERED": None, **overrides}.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_cli_process(*argv, python_flags=(), stdout=subprocess.PIPE, **env):
    """python -m contractlab.cli in a child process, in child_env(**env)."""
    return subprocess.run([sys.executable, *python_flags, "-m", "contractlab.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=child_env(**env))


def test_cli_input_error_is_one_stderr_line(tmp_path):
    res = run_cli_process("analyze", str(tmp_path / "missing.json"))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


def test_cli_analyze_first_failing_input_ends_the_command(tmp_path):
    """Neither a running input nor those queued behind a failing one are
    waited for: the command ends in under half the time one of them takes."""
    rng = np.random.default_rng(18)
    bigs = []
    for name in ("big1.json", "big2.json"):
        a = rng.random((500, 500))
        a /= a.sum(axis=1, keepdims=True)
        bigs.append(write(tmp_path, name, json.dumps({"rows": a.tolist()})))
    missing = str(tmp_path / "missing.json")

    def timed(*argv):
        start = time.perf_counter()
        res = run_cli_process("analyze", *argv)
        return res, time.perf_counter() - start

    res, alone = timed(bigs[0])
    assert res.returncode == 0
    for argv in ([missing, bigs[0]], [missing, *bigs]):
        res, took = min((timed(*argv) for _ in range(2)), key=lambda run: run[1])
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and missing in res.stderr
        assert took < alone / 2, (argv, took, alone)


def test_cli_entries_near_the_float_limit_warn_nothing(tmp_path):
    """Finite entries whose sums and differences overflow: numpy warns
    nothing, also for analyze's later inputs; the overflowed values are
    reported as null, and an error is one stderr line."""
    huge = write(tmp_path, "huge.json", json.dumps({"rows": [[1e308, -1e308], [-1e308, 1e308]]}))
    sums = write(tmp_path, "sums.json", json.dumps({"rows": [[1e308, 1e308], [1e308, 1e308]]}))
    # row sums 0, column sums past the float range: an l2 bound and its
    # lower end, both null
    cols = write(tmp_path, "cols.json", json.dumps(
        {"rows": [[1e308, -1e308, 0], [1e308, -1e308, 0], [0, 0, 0]]}))
    vector = write(tmp_path, "x.json", "[1, 2]")
    cases = [(["analyze", huge], 0), (["analyze", huge, sums], 0),
             (["contractivity", huge], 0), (["contractivity", huge, "--norm", "l2"], 0),
             (["contractivity", sums, "--norm", "l2"], 2), (["contractivity", cols, "--norm", "l2"], 0),
             (["decompose", huge, vector], 2)]
    for argv, code in cases:
        res = run_cli_process(*argv, PYTHONWARNINGS="error")
        assert res.returncode == code, (argv, res.stderr)
        assert len(res.stderr.splitlines()) == (code == 2), (argv, res.stderr)
    doc = json.loads(run_cli_process("contractivity", cols, "--norm", "l2").stdout)
    assert (doc["bound_only"], doc["c"], doc["lower_bound"]) == (True, None, None)
    # r - mu = 0 - (-inf): the clamp at 0 keeps inf, printed as null
    assert json.loads(run_cli_process("contractivity", huge).stdout)["c"] is None
    reports = json.loads(run_cli_process("analyze", huge, sums, PYTHONWARNINGS="error").stdout)
    assert [(r["delta"], r["c_linf"], r["mu"]) for r in reports] == [(None, None, None),
                                                                      (0.0, None, None)]


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
    # the last coupling has no constant row sums: no envelope, no bound key
    "no-envelope": {"sequence": "uneven-last.json", "map": {"kind": "tent", "s": 1.05},
                    "x0": [0.2, 0.45, 0.3], "steps": 6, "norm": "l1"},
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
    write(tmp_path, "uneven3.json", json.dumps({"rows": [[1, 0, 0], [0.5, 0.6, 0], [0, 0, 1]]}))
    write(tmp_path, "uneven-last.json",
          json.dumps({"matrices": ["a4.json"] * 5 + ["uneven3.json"]}))
    return write(tmp_path, "sim.json", json.dumps(TRACE_CASES[name]))


@pytest.mark.parametrize("full_state", [False, True], ids=["d-bound", "full-state"])
@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_cli_simulate_trace_files_match_frozen_writer(tmp_path, capsys, monkeypatch,
                                                      name, full_state):
    traces = []

    def recording_simulate(*args, **kwargs):
        traces.append(simulate(*args, **kwargs))
        return traces[-1]

    # cli imports cml when simulate runs and calls cml.simulate through it
    monkeypatch.setattr(importlib.import_module("contractlab.cml"), "simulate",
                        recording_simulate)
    path = write_trace_case(tmp_path, name)
    jsonl, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
    argv = ["--output", str(jsonl), "simulate", path, "--csv", str(csv_path)]
    code, _, _ = run_cli(capsys, *argv, *(["--full-state"] if full_state else []))
    assert code == 0
    expected_jsonl, expected_csv = frozen_trace_files(traces[0], full_state)
    assert jsonl.read_text() == expected_jsonl
    assert csv_path.read_text() == expected_csv


@pytest.mark.parametrize("name", ["bound-overflow", "diverging-l2", "tent-l1", "large-values",
                                  "no-envelope"])
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
    never = "delta bound <= 1e-10 never"
    # one line per anchor past 0: the step from which its delta
    # bound held to the end, and the exact delta sweeps taken
    for spec, loaded, argv, anchors, anchor_lines in [
        (generated, "n = 4, generator random_stochastic_spanning_tree, seed 7",
         ["--horizon", "5"], [0, 1, 3],
         [f"anchor 1: {never}; 4 exact sweeps in 4 steps",
          f"anchor 3: {never}; 2 exact sweeps in 2 steps"]),
        (listed, "n = 3, 5 matrices", ["--horizon", "5", "--block-len", "2"], [0, 1, 3],
         [f"anchor 1: {never}; 4 exact sweeps in 4 steps",
          f"anchor 3: {never}; 2 exact sweeps in 2 steps"]),
        (generated, "n = 4, generator random_stochastic_spanning_tree, seed 7",
         ["--horizon", "300"], [0, 100, 200],
         ["anchor 100: delta bound <= 1e-10 from step 27 on; 27 exact sweeps in 200 steps",
          "anchor 200: delta bound <= 1e-10 from step 33 on; 33 exact sweeps in 100 steps"]),
    ]:
        caplog.clear()
        code, out, _ = run_cli(capsys, "ergodicity", spec, *argv)
        report = json.loads(out)
        assert code == 0
        assert [r.levelno for r in caplog.records] == [logging.INFO] * 5
        assert [r.getMessage() for r in caplog.records] == [
            f"loaded sequence {spec}: {loaded}",
            *anchor_lines,
            f"horizon {report['horizon']}, block_len {report['block_len']}, anchors {anchors}",
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


# ---------------------------------------------------------------- process exit

def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def simulate_outputs(tmp_path, out):
    a4_json(tmp_path)
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "a4.json", "map": {"kind": "logistic", "a": 3.9},
        "x0": [0.2, 0.45, 0.3], "steps": 50}))
    return ["--output", str(out / "t.jsonl"), "simulate", config, "--csv", str(out / "t.csv")]


EXIT_PATH_CASES = {
    "analyze": lambda tmp_path, out: ["analyze", a4_json(tmp_path)],
    "input-error": lambda tmp_path, out: ["analyze", str(tmp_path / "missing.json")],
    "reproduce-paper": lambda tmp_path, out: ["reproduce-paper"],
    "simulate-output-csv": simulate_outputs,
    "analyze-directory-jobs": lambda tmp_path, out: [
        "--output", f"{out / 'reports'}{os.sep}", "analyze", a4_json(tmp_path),
        write(tmp_path, "a1.json", json.dumps({"rows": A1.a.tolist()}))],
}


@pytest.mark.parametrize("name", sorted(EXIT_PATH_CASES))
def test_cli_process_matches_in_process_main(tmp_path, capsys, name):
    # the process ends through cli.run and os._exit; nothing it prints or
    # writes may differ from what main() produces in this process
    out = tmp_path / "out"
    out.mkdir()
    argv = EXIT_PATH_CASES[name](tmp_path, out)
    code, stdout, stderr = run_cli(capsys, *argv)
    written = files_under(out)
    shutil.rmtree(out)
    out.mkdir()
    res = run_cli_process(*argv)
    assert (res.returncode, res.stdout, res.stderr) == (code, stdout, stderr)
    assert files_under(out) == written
    assert (name == "input-error") == (code == 2)


def test_cli_process_logs_at_info(tmp_path):
    write(tmp_path, "half.json", json.dumps(HALF))
    config = write(tmp_path, "sim.json", json.dumps({
        "matrix": "half.json", "map": {"kind": "logistic", "a": 4.5},
        "x0": [0.4, 0.6], "steps": 30}))
    csv = tmp_path / "t.csv"
    res = run_cli_process("simulate", config, "--csv", str(csv), CONTRACTLAB_LOG="INFO")
    records = json.loads(res.stdout)["steps"] + 1
    assert res.returncode == 0
    assert res.stderr.splitlines() == [f"INFO:contractlab.cli:{line}" for line in [
        "synchronized at step 1 (distance < 1e-10)",
        "envelope void from step 1: the state left the map domain",
        f"diverged: state {records} is not finite; the trace stops before it",
        f"wrote CSV trace {csv} ({records} records)",
    ]]


def logged_commands(tmp_path):
    """argv and INFO lines (without the logger prefix) of analyze,
    contractivity and product runs that log."""
    a4 = a4_json(tmp_path)
    uneven = write(tmp_path, "uneven.json", json.dumps({"rows": [[1, 0], [1, 1]]}))
    spec = repeated_sequence(tmp_path, A4, "a4")
    return {
        "analyze": (["analyze", a4, uneven], [
            f"loaded matrix {a4}: n = 3",
            "linf coefficient: method closed_form_linf",
            "l2 coefficient: method spectral_l2, an upper bound",
            f"loaded matrix {uneven}: n = 2",
            f"{uneven}: row sums are not constant; no coefficient",
        ]),
        "contractivity": (["contractivity", a4, "--norm", "wl2", "--weights", "1,0.5,1"], [
            f"loaded matrix {a4}: n = 3",
            "wl2 coefficient: method weighted_bound, an upper bound",
        ]),
        "contractivity-l1": (["contractivity", a4, "--norm", "l1"], [
            f"loaded matrix {a4}: n = 3",
            "l1 coefficient: method closed_form_l1",
        ]),
        "product": (["product", spec], [
            f"loaded sequence {spec}: n = 3, 5 matrices",
            "linf coefficient: method closed_form_linf",
        ]),
    }


@pytest.mark.parametrize("name", ["analyze", "contractivity", "contractivity-l1", "product"])
def test_cli_process_logs_load_and_method_at_info(tmp_path, name):
    argv, lines = logged_commands(tmp_path)[name]
    res = run_cli_process(*argv, CONTRACTLAB_LOG="INFO")
    assert res.returncode == 0 and json.loads(res.stdout)
    assert res.stderr.splitlines() == [f"INFO:contractlab.cli:{line}" for line in lines]


@pytest.mark.parametrize("level", ["basic_format", "verbose"])
def test_cli_process_unknown_log_level_exits_2(tmp_path, level):
    # basic_format names a logging attribute that is no level; verbose none
    res = run_cli_process("analyze", a4_json(tmp_path), CONTRACTLAB_LOG=level)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: CONTRACTLAB_LOG must be one of DEBUG, INFO, WARNING, "
                          f"ERROR, CRITICAL, got {level!r}\n")


def test_cli_process_log_level_in_any_case(tmp_path):
    path = a4_json(tmp_path)
    res = run_cli_process("analyze", path, CONTRACTLAB_LOG="info")
    assert res.returncode == 0 and json.loads(res.stdout)
    assert f"INFO:contractlab.cli:loaded matrix {path}: n = 3" in res.stderr.splitlines()


def test_cli_process_logs_nothing_by_default(tmp_path):
    for argv, _ in logged_commands(tmp_path).values():
        res = run_cli_process(*argv)
        assert (res.returncode, res.stderr) == (0, "")


def test_cli_process_runs_exit_handlers(tmp_path):
    wrapper = write(tmp_path, "wrapper.py", "\n".join([
        "import atexit, runpy",
        "atexit.register(print, 'exit handler ran')",
        "runpy.run_module('contractlab.cli', run_name='__main__')",
    ]))
    res = subprocess.run([sys.executable, wrapper, "analyze", a4_json(tmp_path)],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0 and res.stderr == ""
    report, handler = res.stdout.splitlines()
    assert json.loads(report)["n"] == 3 and handler == "exit handler ran"


def test_cli_process_under_cprofile_prints_stats():
    res = run_cli_process("reproduce-paper", python_flags=["-m", "cProfile"])
    assert res.returncode == 0 and res.stderr == ""
    report, stats = res.stdout.split("\n", 1)
    assert json.loads(report)["all_pass"] and "function calls" in stats


def test_cli_process_help_and_unknown_flag(tmp_path):
    res = run_cli_process("--help")
    assert res.returncode == 0 and res.stdout.startswith("usage: contractlab")
    res = run_cli_process("analyze", a4_json(tmp_path), "--bogus")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines()[-1] == "contractlab: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_cli_process_closed_stdout_exits_2(tmp_path, unbuffered):
    # buffered, the report waits in the buffer until the exit flush;
    # unbuffered, print itself fails inside main
    path = a4_json(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = run_cli_process("analyze", path, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Broken pipe" in res.stderr
    assert len(res.stderr.splitlines()) == 1


STDOUT_CLOSED = "error: stdout is closed; the report has nowhere to go\n"


def test_cli_process_started_without_stdout_exits_2(tmp_path):
    # with descriptor 1 closed, sys.stdout is None, where print writes nothing
    res = subprocess.run([sys.executable, "-m", "contractlab.cli", "analyze", a4_json(tmp_path)],
                         stderr=subprocess.PIPE, text=True, env=child_env(),
                         preexec_fn=lambda: os.close(1))
    assert res.returncode == 2 and res.stderr == STDOUT_CLOSED


def run_cli_shell(redirect, *argv, **env):
    """python -m contractlab.cli started by sh with a redirection such as
    '>&-' (stdout closed) or '2>&-' (stderr closed), in child_env(**env)."""
    return subprocess.run(["sh", "-c", f'exec "$0" -m contractlab.cli "$@" {redirect}',
                           sys.executable, *argv],
                          capture_output=True, text=True, env=child_env(**env))


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_cli_process_closed_stdout_with_a_report_exits_2(tmp_path, unbuffered):
    res = run_cli_shell(">&-", "reproduce-paper", PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 2 and res.stderr == STDOUT_CLOSED
    res = run_cli_shell(">&-", "simulate", write_simulate_config(tmp_path, "matrix"),
                        PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 2 and res.stderr == STDOUT_CLOSED
    # a report written to --output needs no stdout
    out = tmp_path / "report.json"
    res = run_cli_shell(">&-", "--output", str(out), "reproduce-paper",
                        PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 0 and res.stderr == ""
    assert json.loads(out.read_text())["all_pass"]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_cli_process_closed_stderr_keeps_the_exit_code(tmp_path, unbuffered):
    res = run_cli_shell("2>&-", "analyze", str(tmp_path / "missing.json"),
                        PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 2 and res.stdout == ""
    res = run_cli_shell("2>&-", "analyze", a4_json(tmp_path), PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 0 and json.loads(res.stdout)["n"] == 3


class RejectingStream:
    """A stream whose every write fails, as one on a descriptor that is
    open for reading only."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        pass


@pytest.mark.parametrize("stderr", [None, RejectingStream()], ids=["none", "rejecting"])
def test_cli_error_without_stderr_keeps_exit_code(tmp_path, capsys, monkeypatch, stderr):
    def failing_norm(x, ord=None, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 2
    monkeypatch.setattr(np.linalg, "norm", failing_norm)
    assert cli.main(["contractivity", a4_json(tmp_path), "--norm", "l2"]) == 3
    assert capsys.readouterr().out == ""


def test_cli_analyze_jobs_logs_in_input_order(tmp_path, capsys, caplog, monkeypatch):
    # several inputs log each input's lines in input order, and report
    # what each input alone reports
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    big = np.random.default_rng(12).random((120, 120))
    big /= big.sum(axis=1, keepdims=True)
    paths = [write(tmp_path, "big.json", json.dumps({"rows": big.tolist()})),
             a4_json(tmp_path),
             write(tmp_path, "uneven.json", json.dumps({"rows": [[1, 0], [1, 1]]})),
             write(tmp_path, "a1.json", json.dumps({"rows": A1.a.tolist()}))]
    caplog.set_level(logging.INFO, logger="contractlab")
    code, out, _ = run_cli(capsys, "analyze", *paths)
    messages = [r.getMessage() for r in caplog.records]
    assert code == 0 and len(messages) == 11
    assert [messages[i] for i in (0, 3, 6, 8)] == [
        f"loaded matrix {path}: n = {n}" for path, n in zip(paths, (120, 3, 2, A1.n))]
    assert messages[7] == f"{paths[2]}: row sums are not constant; no coefficient"
    alone = []
    for path in paths:
        code, single, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        alone.append(json.loads(single))
    assert json.loads(out) == alone


def test_cli_analyze_jobs_logs_up_to_a_failing_input(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    caplog.set_level(logging.INFO, logger="contractlab")
    a4, missing = a4_json(tmp_path), str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "analyze", a4, missing, a4)
    assert code == 2 and out == "" and missing in err
    assert [r.getMessage() for r in caplog.records] == [
        f"loaded matrix {a4}: n = 3",
        "linf coefficient: method closed_form_linf",
        "l2 coefficient: method spectral_l2, an upper bound",
    ]


def test_cli_analyze_reads_no_input_after_a_failing_one(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_matrix(path)

    monkeypatch.setattr(cli.io, "load_matrix", counting_load)
    a4, missing = a4_json(tmp_path), str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "analyze", a4, missing, a4)
    assert code == 2 and out == "" and missing in err
    assert calls == [a4, missing]


@pytest.mark.parametrize("norm", ["linf", "l1"])
def test_cli_simulate_logs_each_record_at_debug(tmp_path, capsys, caplog, monkeypatch, norm):
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    path = write_simulate_config(tmp_path, "matrix", steps=70, norm=norm)
    csv_path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "simulate", path, "--csv", str(csv_path))
    assert code == 0 and caplog.records == []

    caplog.set_level(logging.DEBUG, logger="contractlab")
    code, _, _ = run_cli(capsys, "simulate", path, "--csv", str(csv_path))
    assert code == 0
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(debug) == len(rows) == 71
    for message, (k, d, bound) in zip(debug, rows):
        assert message == f"record {k}: d {d}, bound {bound or 'none'}"


def test_cli_simulate_logs_bound_none_without_an_envelope(tmp_path, capsys, caplog):
    path = write_trace_case(tmp_path, "no-envelope")
    caplog.set_level(logging.DEBUG, logger="contractlab")
    code, _, _ = run_cli(capsys, "simulate", path)
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert code == 0 and len(debug) == 7
    assert all(message.endswith(", bound none") for message in debug)


def test_cli_decompose_and_reproduce_log_at_info(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.delenv("CONTRACTLAB_LOG", raising=False)
    a4 = a4_json(tmp_path)
    x = write(tmp_path, "x.json", json.dumps([0.2, 0.7, 0.4]))
    for argv in (["decompose", a4, x], ["reproduce-paper"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0 and caplog.records == []

    caplog.set_level(logging.INFO, logger="contractlab")
    code, out, _ = run_cli(capsys, "decompose", a4, x)
    residual = json.loads(out)["residual_linf"]
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"loaded matrix {a4}: n = 3, vector {x}: n = 3",
        f"residual max |B x + x* - A x| = {residual:.3g}",
    ]
    caplog.clear()
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0 and json.loads(out)["all_pass"]
    assert [r.getMessage() for r in caplog.records] == ["13 of 13 reference checks passed"]


def token_oracle(values):
    """The JSONL token of each value as the writer once made it: the float
    that its 12-digit string spells, through json.dumps, or null."""
    rounded = [float(format(v, ".12g")) for v in values.tolist()]
    return [json.dumps(v) if np.isfinite(v) else "null" for v in rounded]


def token_cases():
    rng = np.random.default_rng(2024)
    tiny = np.finfo(float).tiny  # the smallest normal double, 2.2e-308
    return {
        "subnormal": np.concatenate([rng.random(300) * tiny, [5e-324, 1e-323, 2e-323, tiny]]),
        "near-normal": tiny * np.concatenate([1 + rng.random(200) * 0.1, [1.03, 1.033, 1.04]]),
        "zeros": np.array([0.0, -0.0, 0.0]),
        "integers": np.concatenate([rng.integers(-10**6, 10**6, 300).astype(float),
                                    [1.0, -1.0, 10.0, 1e11, 99999999999.0]]),
        "1e12-to-1e16": 10.0 ** rng.uniform(12, 16, 300) * rng.choice([-1, 1], 300),
        "1e12-edges": np.array([1e12, -1e12, np.nextafter(1e12, 0), 999999999999.5,
                                999999999999.4, 1e16, np.nextafter(1e16, 0)]),
        "past-1e16": 10.0 ** rng.uniform(16, 308, 300) * rng.choice([-1, 1], 300),
        "negative": -(10.0 ** rng.uniform(-307, 12, 300)),
        "all-exponents": 10.0 ** rng.uniform(-307, 12, 300),
        "1e-4-edges": np.array([1e-4, 1e-5, 9.99999999999995e-05, 9.9999999999995e-05,
                                0.000123456789012345, -1e-4]),
        "non-finite": np.array([np.inf, -np.inf, np.nan, 1.0, -np.nan]),
        "bit-patterns": rng.integers(0, 2**64, 2000, dtype=np.uint64).view(float),
    }


TOKEN_CASES = token_cases()


@pytest.mark.parametrize("name", sorted(TOKEN_CASES))
def test_trace_tokens_match_json_of_the_12_digit_float(name):
    values = TOKEN_CASES[name]
    assert cli._tokens(values, cli._text12(values)) == token_oracle(values)
    for row in values.reshape(-1, 1)[:50]:  # one value at a time, as an x row
        assert cli._tokens(row, cli._text12(row)) == token_oracle(row)
