"""Smoke test for the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/tests

Every workload, shrunk, must pass its oracle when run through the real
CLI, and the oracle must reject an output with one value off by 1e-6.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Analyze, Ergodicity, Simulate  # noqa: E402

TINY = {
    "analyze": Analyze(n=12),
    "simulate": Simulate(n=6, steps=60),
    "ergodicity": Ergodicity(n=5, horizon=40),
}


def invoke(case, workdir):
    s = run.run_child([sys.executable, "-m", "contractlab.cli", *case.argv],
                      run.child_env(), workdir)
    assert s.code == 0, s.stderr
    assert "Traceback" not in s.stderr
    return s.stdout


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_oracle(name, tmp_path):
    case = TINY[name].build(7, tmp_path)
    assert case.check(invoke(case, tmp_path)) == []


def test_oracle_rejects_perturbed_analyze(tmp_path):
    case = TINY["analyze"].build(7, tmp_path)
    doc = json.loads(invoke(case, tmp_path))
    for key in ("c_linf", "c_l2", "mu", "delta"):
        bad = dict(doc, **{key: doc[key] + 1e-6})
        assert any(key in e for e in case.check(json.dumps(bad)))
    bad = dict(doc, spanning_tree_root=doc["spanning_tree_root"] + 1)
    assert case.check(json.dumps(bad))


def test_oracle_rejects_perturbed_simulate(tmp_path):
    case = TINY["simulate"].build(7, tmp_path)
    stdout = invoke(case, tmp_path)
    trace, table = tmp_path / "trace.jsonl", tmp_path / "trace.csv"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    csv_text = table.read_text()
    assert case.check(stdout) == []
    assert not trace.exists()  # consumed, so a later run cannot reuse it

    records[3]["d"] += 1e-6
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    table.write_text(csv_text)
    assert any("trace.d[3]" in e for e in case.check(stdout))

    assert case.check(stdout)  # trace files missing now


def test_oracle_rejects_perturbed_ergodicity(tmp_path):
    case = TINY["ergodicity"].build(7, tmp_path)
    doc = json.loads(invoke(case, tmp_path))
    series = list(doc["delta_of_partial_products"])
    series[2] += 1e-6
    assert case.check(json.dumps(dict(doc, delta_of_partial_products=series)))
    sums = list(doc["block_mu_c_partial_sums"])
    sums[0] -= 1e-6
    assert case.check(json.dumps(dict(doc, block_mu_c_partial_sums=sums)))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("stdout", [
    "", "[1]", json.dumps({"c_linf": "1", "digraph": 5, "row_sums": None,
                           "delta_of_partial_products": [None], "steps": 60})])
def test_oracle_reports_malformed_output(name, stdout, tmp_path):
    assert TINY[name].build(7, tmp_path).check(stdout)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    case = TINY[name].build(7, tmp_path)
    t = tracer.Tracer()
    code, out, wall, error = tracer.call_main(case.argv, t)
    assert code == 0, error
    assert case.check(out) == []
    m = t.metrics()
    listed = {x["name"] for x in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert listed - {"trace.overhead_s", "trace.inproc_wall_s"} <= set(m)
    # Self times partition the root cli.main span.
    assert t.self_sum() == pytest.approx(wall, rel=0.01, abs=1e-3)
    if name == "simulate":
        assert m["cml.simulate.steps"] == 60
        assert m["products.MatrixSequence.getitem_calls"] == 61
        assert m["contractivity.contractivity_linf.calls"] == 60
        assert m["contractivity.calls_per_distinct_matrix"] == 60
    if name == "ergodicity":
        assert m["products.random_stochastic_spanning_tree.calls"] == 40
        assert m["products.generator_cache_hit_ratio"] == pytest.approx(1 - 40 / 161)
        assert m["products.generator_cache_items"] == 40  # the cache keeps every item
    if name == "analyze":
        pair_calls = m["matcore.mu.calls"] + m["matcore.delta.calls"]
        assert m["matcore.pair_temp_bytes"] == (8 * pair_calls + 1) * 12 ** 3
    # Patches are removed again.
    from contractlab import cli, matcore
    assert cli.mu is matcore.mu and not hasattr(cli.main, "__wrapped__")


def test_generator_items_counted_when_sequence_recomputes(tmp_path, monkeypatch):
    """A generator sequence without a cache reads as one live item, not 0."""
    import numpy as np
    from contractlab import products

    def recompute(self, k):
        if self.items is not None:
            return self.items[k]
        return products.random_stochastic_spanning_tree(
            self.n, np.random.default_rng([self._seed, k]), self._min_entry)

    monkeypatch.setattr(products.MatrixSequence, "__getitem__", recompute)
    case = TINY["ergodicity"].build(7, tmp_path)
    t = tracer.Tracer()
    code, out, _, error = tracer.call_main(case.argv, t)
    assert code == 0, error
    assert case.check(out) == []
    m = t.metrics()
    assert m["products.random_stochastic_spanning_tree.calls"] == 161
    assert m["products.generator_cache_hit_ratio"] == 0.0
    assert m["products.generator_cache_items"] == 1


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "success_rate"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate_fixed",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
