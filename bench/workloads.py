"""Seeded inputs for the three benchmark workloads.

Each workload writes its input files for one seed into a directory and
returns a ``Case``: the ``contractlab`` argument list, the measured
properties of the inputs, and a checker that validates one invocation's
output against the independent oracle.  The same seed always produces
the same files.  Only the sizes are dataclass fields, so the smoke test
can build tiny versions of the same workloads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# About half the off-diagonal entries of every generated matrix are
# structural zeros, so the graph checks and the zero patterns have work.
DENSITY = 0.5
# Logistic map parameter: chaotic, so only the coupling can synchronize.
A_MAP = 3.9
# Weight of J/n in the simulate coupling; large enough that
# c_linf(A) * A_MAP < 1 and the envelope is a real bound.
COUPLING = 0.8
# Smallest positive entry of the generated spanning-tree matrices.
MIN_ENTRY = 0.05


@dataclass(frozen=True)
class Case:
    argv: list[str]
    properties: dict
    check: Callable[[str], list[str]]  # stdout of one invocation -> mismatches


def sparse_stochastic(n: int, density: float, rng) -> np.ndarray:
    """Row-stochastic matrix with a positive diagonal and about
    ``1 - density`` of the off-diagonal entries structurally zero."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    w = (0.05 + rng.random((n, n))) * mask
    return w / w.sum(axis=1, keepdims=True)


def write_matrix(path: Path, a: np.ndarray) -> np.ndarray:
    """Write ``{"rows": ...}`` and return the array exactly as the CLI will
    parse it back."""
    text = json.dumps({"rows": a.tolist()})
    path.write_text(text)
    return np.asarray(json.loads(text)["rows"], dtype=float)


def _json_doc(stdout: str):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not one JSON document ({exc})"]
    return doc, [] if isinstance(doc, dict) else ["stdout is not a JSON object"]


@dataclass(frozen=True)
class Analyze:
    """``analyze`` on one nonnegative row-stochastic matrix."""

    n: int = 200

    def build(self, seed: int, workdir: Path) -> Case:
        rng = np.random.default_rng(seed)
        path = workdir / "A.json"
        a = write_matrix(path, sparse_stochastic(self.n, DENSITY, rng))
        exp = oracle.analyze_expected(a)

        def check(stdout: str) -> list[str]:
            doc, errors = _json_doc(stdout)
            return errors or oracle.check_analyze(doc, exp)

        props = {"n": self.n, "density": float(np.mean(np.abs(a) > oracle.ZERO_TOL)),
                 "c_linf": exp["c_linf"], "c_l2": exp["c_l2"],
                 "scrambling": exp["scrambling"]}
        return Case(["analyze", str(path)], props, check)


@dataclass(frozen=True)
class Simulate:
    """``simulate`` with one fixed coupling ``A = s J/n + (1 - s) S`` and the
    logistic map; ``s = COUPLING``."""

    n: int = 50
    steps: int = 4000

    def build(self, seed: int, workdir: Path) -> Case:
        rng = np.random.default_rng(seed)
        S = sparse_stochastic(self.n, DENSITY, rng)
        A = write_matrix(workdir / "A.json", COUPLING / self.n + (1.0 - COUPLING) * S)
        x0 = rng.random(self.n)
        config = workdir / "sim.json"
        config.write_text(json.dumps({
            "matrix": "A.json", "map": {"kind": "logistic", "a": A_MAP},
            "x0": x0.tolist(), "steps": self.steps, "norm": "linf"}))
        trace, table = workdir / "trace.jsonl", workdir / "trace.csv"
        exp = oracle.simulate_expected(A, A_MAP, x0, self.steps)

        def check(stdout: str) -> list[str]:
            summary, errors = _json_doc(stdout)
            if errors:
                return errors
            try:
                with trace.open() as fh:
                    records = [json.loads(line) for line in fh]
                with table.open(newline="") as fh:
                    rows = list(csv.reader(fh))
            except (OSError, ValueError, csv.Error) as exc:
                return [f"trace files: {exc}"]
            finally:  # a later invocation must write its own files
                trace.unlink(missing_ok=True)
                table.unlink(missing_ok=True)
            return oracle.check_simulate(summary, records, rows, exp)

        props = {"n": self.n, "steps": self.steps, "coupling": COUPLING,
                 "c_linf": exp["c"], "c_linf_rho": exp["c"] * A_MAP,
                 "synchronized": exp["synchronized_at"] is not None,
                 "synchronized_at": exp["synchronized_at"]}
        argv = ["--output", str(trace), "simulate", str(config), "--csv", str(table)]
        return Case(argv, props, check)


@dataclass(frozen=True)
class Ergodicity:
    """``ergodicity`` on a seeded random_stochastic_spanning_tree generator."""

    n: int = 30
    horizon: int = 1000

    def build(self, seed: int, workdir: Path) -> Case:
        from contractlab.products import random_stochastic_spanning_tree

        spec = workdir / "seq.json"
        spec.write_text(json.dumps({"generator": {
            "kind": "random_stochastic_spanning_tree", "n": self.n,
            "seed": seed, "min_entry": MIN_ENTRY}}))
        items = [random_stochastic_spanning_tree(
                     self.n, np.random.default_rng([seed, k]), MIN_ENTRY).a
                 for k in range(self.horizon)]
        exp = oracle.ergodicity_expected(items, self.horizon, max(1, self.n - 1))

        def check(stdout: str) -> list[str]:
            doc, errors = _json_doc(stdout)
            return errors or oracle.check_ergodicity(doc, exp)

        props = {"n": self.n, "horizon": self.horizon,
                 "density": float(np.mean([np.mean(m > oracle.ZERO_TOL) for m in items])),
                 "final_delta": float(exp["delta"][-1]), "verdict": exp["verdict"]}
        argv = ["ergodicity", str(spec), "--horizon", str(self.horizon), "--norm", "linf"]
        return Case(argv, props, check)


WORKLOADS = {
    "analyze_n200": Analyze(),
    "simulate_fixed": Simulate(),
    "ergodicity_generated": Ergodicity(),
}
