"""In-process traced run of the contractlab CLI.

The tracer wraps the public functions listed in ``SPANNED`` from the
outside; no code under ``src/`` changes.  ``from .x import f`` copies the
binding into every importing module, so each ``contractlab.*`` module
attribute that *is* the original function object is replaced, and
``MatrixSequence.__getitem__`` is wrapped on the class.  Submodules are
taken from ``sys.modules`` because ``contractlab.contractivity`` is
shadowed by the function of that name in the package namespace.

Spans (name, start, end, parent) are kept in memory; counts that need
arguments or results (pair temporaries, distinct matrices, simulated
steps, live generated matrices) are taken by hooks that run after the
wrapped call, outside its span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import statistics
import sys
import weakref
from time import perf_counter

import numpy as np

SPANNED = {
    "io": ["load_matrix", "load_sequence"],
    "matcore": ["mu", "delta", "is_scrambling", "row_sum_profile", "is_stochastic"],
    "graphs": ["interaction_digraph", "has_spanning_directed_tree", "is_irreducible"],
    "projections": ["distance_to_diagonal"],
    "contractivity": ["contractivity", "contractivity_linf", "contractivity_l2",
                      "spectral_norm_2"],
    "products": ["random_stochastic_spanning_tree", "product", "ergodicity_coefficient",
                 "weak_ergodicity_diagnostic"],
    "cml": ["simulate"],
    "cli": ["main"],
}
GETITEM = "products.MatrixSequence.__getitem__"
# Bytes of the n x n x n temporary each pairwise kernel allocated when the
# benchmark was written: float64 for mu/delta, bool for the scrambling
# pattern.  Computed from shapes, not measured, so it moves only with the
# call counts; a kernel's memory effect shows in peak_rss_mb.
PAIR_TEMP_ITEMSIZE = {"matcore.mu": 8, "matcore.delta": 8, "matcore.is_scrambling": 1}
COEFFICIENTS = ("contractivity.contractivity_linf", "contractivity.contractivity_l2")


def _matrix_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "a", x))


class Tracer:
    """Records spans and counts for one traced ``cli.main`` call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self.pair_temp_bytes = 0
        self.coefficient_calls = 0
        self.coefficient_keys = set()
        self._digests = {}  # id -> (instance, digest)
        self.steps = 0
        self.generator_getitems = 0
        # Matrices returned by a generator sequence's __getitem__, while
        # anything (the sequence's cache or a caller) keeps them alive.
        self._generated = weakref.WeakValueDictionary()
        self.generator_cache_items = 0

    # ---------------------------------------------------------- hooks

    def _after(self, name, args, result):
        if name in PAIR_TEMP_ITEMSIZE:
            n = _matrix_array(args[0]).shape[0]
            if n > 1:
                self.pair_temp_bytes += PAIR_TEMP_ITEMSIZE[name] * n ** 3
        elif name in COEFFICIENTS:
            self.coefficient_calls += 1
            self.coefficient_keys.add((name, self._digest(args[0])))
        elif name == "cml.simulate":
            self.steps += len(result.distances) - 1
        elif name == GETITEM and args[0].items is None:
            self.generator_getitems += 1
            self._generated[id(result)] = result
            self.generator_cache_items = max(self.generator_cache_items,
                                             len(self._generated))

    def _digest(self, x) -> bytes:
        """Content digest of a matrix argument.  Matrix is frozen, so the
        digest of an instance seen before is reused; holding the instance
        keeps its id from being recycled during the call."""
        seen = self._digests.get(id(x))
        if seen is not None and seen[0] is x:
            return seen[1]
        a = np.ascontiguousarray(_matrix_array(x))
        digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
        self._digests[id(x)] = (x, digest)
        return digest

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, self._after

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- patching

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "contractlab" or key.startswith("contractlab.")]
        for mod_name, names in SPANNED.items():
            mod = importlib.import_module(f"contractlab.{mod_name}")
            for name in names:
                original = getattr(mod, name)
                wrapped = self._wrap(f"{mod_name}.{name}", original)
                for m in modules:
                    for attr in [k for k, v in vars(m).items() if v is original]:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapped)
        cls = importlib.import_module("contractlab.products").MatrixSequence
        self._patches.append((cls, "__getitem__", cls.__getitem__))
        cls.__getitem__ = self._wrap(GETITEM, cls.__getitem__)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._digests.clear()

    # ---------------------------------------------------------- summaries

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, (name, *_rest) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + dur[i], self_s + dur[i] - child[i])
        return out

    def self_sum(self) -> float:
        """Sum of all self times.  They partition the root ``cli.main``
        span, so this equals its inclusive time unless spans overlap."""
        return sum(v[2] for v in self.totals().values())

    def metrics(self) -> dict:
        """``<span>.calls``, ``<span>.s`` (inclusive) and ``<span>.self_s``
        for every wrapped function, plus the hook counts and ratios."""
        totals = self.totals()
        m = {}
        for mod_name, names in SPANNED.items():
            for name in (f"{mod_name}.{fn}" for fn in names):
                calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
                m.update({f"{name}.calls": calls, f"{name}.s": incl,
                          f"{name}.self_s": self_s})
        names = [s[0] for s in self.spans]
        built_in_getitem = sum(1 for name, _, _, parent in self.spans
                               if name == "products.random_stochastic_spanning_tree"
                               and parent >= 0 and names[parent] == GETITEM)
        m.update({
            "matcore.pair_temp_bytes": self.pair_temp_bytes,
            "contractivity.calls_per_distinct_matrix":
                self.coefficient_calls / len(self.coefficient_keys)
                if self.coefficient_keys else 0.0,
            "products.MatrixSequence.getitem_calls": totals.get(GETITEM, (0,))[0],
            "products.generator_cache_hit_ratio":
                1.0 - built_in_getitem / self.generator_getitems
                if self.generator_getitems else 0.0,
            "products.generator_cache_items": self.generator_cache_items,
            "cml.simulate.steps": self.steps,
        })
        return m

    def dump(self, path):
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def call_main(argv, tracer: Tracer | None = None):
    """Run ``cli.main(argv)`` in this process, with or without tracing.

    Returns (exit code or None on an exception, captured stdout, wall
    seconds, error text).
    """
    cli = importlib.import_module("contractlab.cli")
    gc.collect()
    out = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            try:
                code, error = cli.main(argv), ""
            except Exception as exc:  # a traceback is a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, out.getvalue(), wall, error


def layer_metrics(tracers: list[Tracer], untraced_walls: list[float],
                  traced_walls: list[float]) -> dict:
    """Median of each per-layer metric over the traced rounds, plus the
    tracing overhead (traced minus untraced in-process wall).  Counts are
    deterministic and come from the last round, so they stay integers."""
    per_round = [t.metrics() for t in tracers]
    out = {name: value if isinstance(value, int)
           else statistics.median(r[name] for r in per_round)
           for name, value in per_round[-1].items()}
    out["trace.inproc_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - out["trace.inproc_wall_s"]
    return out
