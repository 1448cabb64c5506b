"""Command-line front end.

Subcommands: analyze, contractivity, product, ergodicity, simulate,
decompose, reproduce-paper.  All reports are JSON (floats rendered at 12
significant digits so repeated runs are byte-identical); exit codes are
0 for success, 2 for input errors, 3 for internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from . import cml, io, products, reference
from .contractivity import (
    _linf_report,
    contractivity,
    decompose_affine,
    empirical_contractivity,
)
from .graphs import has_spanning_directed_tree, interaction_digraph, is_irreducible
from .matcore import delta, is_scrambling, is_stochastic, mu, row_sum_profile
from .projections import L1, norm_from_name

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# not __name__, which is "__main__" under python -m contractlab.cli
log = logging.getLogger("contractlab.cli")


def _round12(value):
    """Render floats at 12 significant digits, recursively; non-finite
    floats become None, since JSON has no literal for them."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}") if np.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu":  # nothing to round, e.g. an edge list
            return value.tolist()
        return [_round12(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _dump(doc, pretty: bool) -> str:
    return json.dumps(_round12(doc), indent=2 if pretty else None, sort_keys=True,
                      allow_nan=False)


def _emit(doc, args) -> None:
    text = _dump(doc, args.pretty)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _norm_from_args(args):
    weights = None
    if args.norm == "wl2":
        if not args.weights:
            raise io.InputError("--norm wl2 requires --weights")
        weights = io.parse_weights(args.weights)
    return norm_from_name(args.norm, weights)


def _classification(rep) -> str:
    if rep.is_set_contractive:
        return "set-contractive"
    return "set-nonexpansive" if rep.is_set_nonexpansive else "expansive"


def _analysis_report(path, zero_tol, row_sum_tol) -> dict:
    A = io.load_matrix(path, zero_tol)
    profile = row_sum_profile(A, row_sum_tol)
    G = interaction_digraph(A)
    tree, root = has_spanning_directed_tree(G)
    m = mu(A)
    report = {
        "input": str(path),
        "n": A.n,
        "row_sums": profile.sums,
        "constant_row_sum": profile.is_constant,
        "r": profile.r,
        "stochastic": is_stochastic(A, row_sum_tol),
        "scrambling": is_scrambling(A),
        "mu": m,
        "delta": delta(A),
        "spanning_tree": tree,
        "spanning_tree_root": root,
        "irreducible": is_irreducible(G),
        # the edge list in row-major order, i.e. sorted; the pairs stay one
        # int array, which _round12 turns into lists in one call
        "digraph": {"n": A.n, "edges": np.argwhere(G)},
    }
    if profile.is_constant:
        reps = {"linf": _linf_report(profile.r, m),
                "l2": contractivity(A, norm_from_name("l2"), row_sum_tol)}
        report["c_linf"] = reps["linf"].c
        report["c_l2"] = reps["l2"].c
        report["classification"] = {name: _classification(rep) for name, rep in reps.items()}
    else:
        report["c_linf"] = None
        report["c_l2"] = None
        report["note"] = "row sums are not constant; coefficient formulas do not apply"
    return report


def cmd_analyze(args) -> int:
    paths, out = args.matrix, args.output
    # --output is a directory, except for one input and a path that is not one
    if len(paths) == 1 and not (out and (out.endswith(("/", os.sep)) or Path(out).is_dir())):
        _emit(_analysis_report(paths[0], args.zero_tol, args.row_sum_tol), args)
        return 0
    names = [Path(path).stem + ".analysis.json" for path in paths]
    if out:
        # one report file per input: a shared name would overwrite a report
        by_name = {}
        for path, name in zip(paths, names):
            by_name.setdefault(name, []).append(path)
        clashes = [f"{', '.join(ps)} -> {name}" for name, ps in by_name.items() if len(ps) > 1]
        if clashes:
            raise io.InputError(
                "analyze --output: inputs share a report name: " + "; ".join(clashes))
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        reports = list(pool.map(
            lambda p: _analysis_report(p, args.zero_tol, args.row_sum_tol), paths))
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, report in zip(names, reports):
            (outdir / name).write_text(_dump(report, args.pretty) + "\n")
    else:
        print(_dump(reports, args.pretty))
    return 0


def cmd_contractivity(args) -> int:
    A = io.load_matrix(args.matrix, args.zero_tol)
    norm = _norm_from_args(args)
    # l1 has no closed form: sampling only
    rep = None if norm.kind == L1 else contractivity(A, norm, args.row_sum_tol)
    doc = {"input": str(args.matrix), "norm": args.norm}
    if rep is not None:
        doc.update(rep.to_json())
    if args.samples > 0 or rep is None:
        samples = args.samples if args.samples > 0 else 10000
        doc["empirical_lower_bound"] = empirical_contractivity(
            A, norm, samples=samples, seed=args.seed)
        doc["samples"] = samples
        doc["seed"] = args.seed
    _emit(doc, args)
    return 0


def cmd_product(args) -> int:
    seq = io.load_sequence(args.sequence, args.zero_tol)
    if seq.items is None:
        raise io.InputError(f"{args.sequence}: product needs a finite list of matrices")
    norm = _norm_from_args(args)
    full = products.product(seq, 0, len(seq.items) - 1)
    c_values = [contractivity(m, norm, args.row_sum_tol).c for m in seq.items]
    conv = products.check_convergence_condition(c_values)
    doc = {
        "input": str(args.sequence),
        "norm": args.norm,
        "length": len(seq.items),
        "c_exact": contractivity(full, norm, args.row_sum_tol).c,
        # the last running product is the product of the factor coefficients
        "c_bound": conv["running_products"][-1],
        "per_item_c": c_values,
        "running_products": conv["running_products"],
        "product_numerically_zero": conv["converges_to_zero_over_horizon"],
        "product_scrambling": is_scrambling(full),
    }
    _emit(doc, args)
    return 0


def cmd_ergodicity(args) -> int:
    seq = io.load_sequence(args.sequence, args.zero_tol)
    if seq.items is None:
        log.info("loaded sequence %s: n = %d, generator %s, seed %d",
                 args.sequence, seq.n, seq.generator["kind"], seq._seed)
    else:
        log.info("loaded sequence %s: n = %d, %d matrices",
                 args.sequence, seq.n, len(seq.items))
    norm = _norm_from_args(args)
    report = products.weak_ergodicity_diagnostic(
        seq, horizon=args.horizon, block_len=args.block_len, norm=norm)
    log.info("horizon %d, block_len %d, anchors %s",
             report.horizon, report.block_len, list(report.anchors))
    log.info("verdict: %s", report.verdict)
    doc = {"input": str(args.sequence), "norm": args.norm}
    doc.update(report.to_json())
    _emit(doc, args)
    return 0


def _text12(values: np.ndarray) -> list[str]:
    """Each value of a float array at 12 significant digits."""
    return [format(v, ".12g") for v in values.tolist()]


def _json12(values: np.ndarray, text: list[str]) -> str:
    """The JSON array _dump writes for values, given their _text12 strings:
    each value is the float its string spells, or null if it is not finite."""
    rounded = [float(s) for s in text]
    if not np.isfinite(values).all():
        rounded = [v if math.isfinite(v) else None for v in rounded]
    return json.dumps(rounded, allow_nan=False)


def _write_trace(trace: cml.SimTrace, jsonl_path, csv_path, full_state: bool) -> None:
    """Write the simulate trace as JSONL and/or CSV, whichever has a path.

    Each distance and bound is formatted once at 12 significant digits.
    The CSV holds those strings; the JSONL holds the float each spells,
    as _dump renders it.  A JSONL line has the keys bound (absent without
    an envelope), d, k and, with full_state, x, in that order; the x row
    of a record is rendered as the record is written.
    """
    if not (jsonl_path or csv_path):
        return
    records = len(trace.distances)
    d_text = _text12(trace.distances)
    b_text = None if trace.bound is None else _text12(trace.bound)
    if jsonl_path:
        # no token of a float array holds ", ", so one dumps splits per value
        columns = [_json12(trace.distances, d_text)[1:-1].split(", "), range(records)]
        template = '"d": %s, "k": %d'
        if b_text is not None:
            columns.insert(0, _json12(trace.bound, b_text)[1:-1].split(", "))
            template = '"bound": %s, ' + template
        if full_state:
            columns.append(_json12(row, _text12(row)) for row in trace.states)
            template += ', "x": %s'
        template = "{" + template + "}\n"
        with open(jsonl_path, "w") as fh:
            fh.writelines(template % rec for rec in zip(*columns))
        log.info("wrote JSONL trace %s (%d records)", jsonl_path, records)
    if csv_path:
        bounds = repeat("") if b_text is None else b_text
        with open(csv_path, "w") as fh:
            fh.write("k,d,bound\n")
            fh.writelines(f"{k},{d},{b}\n" for k, d, b in zip(range(records), d_text, bounds))
        log.info("wrote CSV trace %s (%d records)", csv_path, records)


def cmd_simulate(args) -> int:
    config = io.load_object(args.config)
    base = Path(args.config).parent
    try:
        steps = products.integer(config.get("steps", args.steps), "steps")
        if steps < 1:
            raise io.InputError(f"{args.config}: steps must be >= 1, got {steps}")
        if "sequence" in config:
            seq = io.load_sequence(base / config["sequence"], args.zero_tol)
        elif "matrix" in config:
            A = io.load_matrix(base / config["matrix"], args.zero_tol)
            seq = products.MatrixSequence(items=[A] * steps)
        else:
            raise io.InputError(f"{args.config}: field 'matrix' or 'sequence' required")
        map_spec = config.get("map")
        if map_spec is None:
            raise io.InputError(f"{args.config}: field 'map' required")
        mp = cml.make_map(map_spec)
        x0 = config.get("x0")
        if x0 is None:
            raise io.InputError(f"{args.config}: field 'x0' required")
        x0 = io.load_vector(base / x0) if isinstance(x0, str) else np.asarray(x0, float)
        norm = norm_from_name(config.get("norm", args.norm),
                              config.get("weights"))
        trace_path = config.get("trace")
        if trace_path is not None:
            # open() would take an integer for a file descriptor
            if not isinstance(trace_path, str):
                raise io.InputError(f"{args.config}: field 'trace' must be a path string")
            trace_path = base / trace_path
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, io.InputError):
            raise
        raise io.InputError(f"{args.config}: {exc}") from exc
    trace = cml.simulate(seq, mp, x0, steps, norm=norm, sync_tol=args.sync_tol)
    if trace.synchronized_at is not None:
        log.info("synchronized at step %d (distance < %g)", trace.synchronized_at, args.sync_tol)
    if trace.envelope_valid_until is not None:
        log.info("envelope void from step %d: the state left the map domain",
                 trace.envelope_valid_until)
    if trace.diverged:
        log.info("diverged: state %d is not finite; the trace stops before it",
                 len(trace.distances))
    _write_trace(trace, args.output or trace_path, args.csv, args.full_state)
    summary = dict(trace.summary(), input=str(args.config))
    if summary["synchronized_at"] is None:
        summary["note"] = "not synchronized within horizon"
    print(_dump(summary, args.pretty))
    return 0


def cmd_decompose(args) -> int:
    A = io.load_matrix(args.matrix, args.zero_tol)
    x = io.load_vector(args.vector)
    dec = decompose_affine(A, x, args.row_sum_tol)
    residual = float(np.abs(dec.B.a @ x + dec.xstar - A.a @ x).max())
    doc = {
        "input": str(args.matrix),
        "B": dec.B.a,
        "xstar": dec.xstar,
        "B_scrambling": is_scrambling(dec.B),
        "B_stochastic": is_stochastic(dec.B),
        "residual_linf": residual,
    }
    _emit(doc, args)
    return 0


def cmd_reproduce(args) -> int:
    rows = reference.run_reference_checks()
    doc = {"checks": rows, "all_pass": all(r["pass"] for r in rows)}
    _emit(doc, args)
    return 0 if doc["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Set-contractivity analysis of constant row sum matrices "
                    "and coupled map lattice simulation")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument("--zero-tol", type=float, default=1e-12,
                        help="structural-zero threshold")
    parser.add_argument("--row-sum-tol", type=float, default=1e-9,
                        help="constant row sum tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural and coefficient report for matrices")
    p.add_argument("matrix", nargs="+")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("contractivity", help="coefficient under a chosen norm")
    p.add_argument("matrix")
    p.add_argument("--norm", choices=["linf", "l2", "l1", "wl2"], default="linf")
    p.add_argument("--weights", help="weight vector: file path or comma-separated list")
    p.add_argument("--samples", type=int, default=0,
                   help="also compute a sampled lower bound with this many samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_contractivity)

    p = sub.add_parser("product", help="coefficient of a matrix product vs the factor bound")
    p.add_argument("sequence", help="sequence spec file")
    p.add_argument("--norm", choices=["linf", "l2", "wl2"], default="linf")
    p.add_argument("--weights")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("ergodicity", help="finite-horizon weak-ergodicity diagnostic")
    p.add_argument("sequence")
    p.add_argument("--norm", choices=["linf", "l2"], default="linf")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--block-len", type=int, default=None)
    p.set_defaults(func=cmd_ergodicity)

    p = sub.add_parser("simulate", help="run a coupled map lattice from a config file")
    p.add_argument("config")
    p.add_argument("--norm", choices=["linf", "l2", "l1", "wl2"], default="linf")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--sync-tol", type=float, default=1e-10)
    p.add_argument("--csv", help="also write a (k, d, bound) CSV")
    p.add_argument("--full-state", action="store_true",
                   help="include full state vectors in the trace")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="affine stochastic decomposition at a point")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reproduce-paper",
                       help="check the bundled reference values")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CONTRACTLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it has to be caught first.
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large, e.g. 10**15 simulate steps
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
